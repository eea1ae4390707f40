#include "engine/spec_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "engine/names.hpp"
#include "support/json.hpp"
#include "support/json_doc.hpp"

namespace pwcet {
namespace {

// The JSON document model + parser live in support/json_doc.{hpp,cpp}
// (shared with the CLI's metrics renderer and the observability tests);
// this file keeps only the campaign-spec schema mapping over it.

[[noreturn]] void fail(const std::string& source, int line,
                       const std::string& message, const std::string& path) {
  std::string out = source;
  out += ':';
  out += std::to_string(line);
  out += ": ";
  out += message;
  if (!path.empty()) {
    out += " (field \"";
    out += path;
    out += "\")";
  }
  throw SpecError(out);
}

// ---------------------------------------------------------------------------
// Schema mapping: Json document -> SpecDocument, with field-path context.
// ---------------------------------------------------------------------------

/// Line of the deepest node of `root` that a SpecViolation path
/// ("geometries[0].sets", "mbpta.chips", "dcaches") reaches: a rule on a
/// key the file leaves at its default points at the enclosing object.
int line_of(const Json& root, const std::string& path) {
  const Json* node = &root;
  for (std::size_t at = 0; at < path.size();) {
    const Json* next = nullptr;
    if (path[at] == '[') {
      char* close = nullptr;
      const std::size_t index =
          std::strtoull(path.c_str() + at + 1, &close, 10);
      if (node->type == Json::Type::kArray && index < node->array.size())
        next = &node->array[index];
      at = static_cast<std::size_t>(close - path.c_str()) + 1;  // past ']'
    } else {
      if (path[at] == '.') ++at;
      const std::size_t end =
          std::min(path.find_first_of(".[", at), path.size());
      next = node->find(path.substr(at, end - at));
      at = end;
    }
    if (next == nullptr) break;
    node = next;
  }
  return node->line;
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string joined(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& v : values) {
    if (!out.empty()) out += ", ";
    out += v;
  }
  return out;
}

/// Spec keys of the lists a view names, indexed by SpecAxis.
constexpr const char* kViewAxisKeys[] = {
    "tasks",   "geometries", "pfails", "mechanisms", "engines",
    "kinds",   "dcaches",    "tlbs",   "l2s",        "dcache_mechanisms",
    "sample_counts", "ccdf_exceedances"};
static_assert(std::size(kViewAxisKeys) ==
              static_cast<std::size_t>(SpecAxis::kCcdfExceedances) + 1);

const char* view_axis_key(SpecAxis axis) {
  return kViewAxisKeys[static_cast<std::size_t>(axis)];
}

class SpecReader;

/// One key of a spec object: its name, whether the object must carry it,
/// and how its value is read into the object's target. A null `read`
/// accepts the key and leaves its value to the caller, after the walk.
template <typename T>
struct Field {
  const char* key;
  bool required;
  void (*read)(SpecReader& reader, const Json& value, const std::string& path,
               T& out);
};

class SpecReader {
 public:
  explicit SpecReader(const std::string& source) : source_(source) {}

  SpecDocument read(const Json& root) {
    if (root.type != Json::Type::kObject)
      fail(source_, root.line,
           std::string("a campaign spec must be a JSON object, got ") +
               root.type_name(),
           "");
    // All enum axes parse against the axis-name registry (engine/names.hpp),
    // the same tables the reports and `pwcet list` print from.
    static constexpr Field<SpecDocument> kFields[] = {
        {"name", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.name = r.as_string(v, p);
         }},
        {"notes", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.notes = r.as_string(v, p);
         }},
        {"tasks", true, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.tasks = r.read_list(v, p, "an array of task names",
                                        &SpecReader::as_string);
         }},
        {"geometries", true, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.geometries =
               r.read_list(v, p, "an array of geometry objects",
                           &SpecReader::read_geometry);
         }},
        {"dcaches", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.dcaches =
               r.read_list(v, p, "an array of null (off) or geometry objects",
                           &SpecReader::read_dcache);
         }},
        {"tlbs", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.tlbs =
               r.read_list(v, p, "an array of null (off) or TLB objects",
                           &SpecReader::read_tlb);
         }},
        {"l2s", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.l2s =
               r.read_list(v, p, "an array of null (off) or geometry objects",
                           &SpecReader::read_l2);
         }},
        {"pfails", true, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.pfails = r.read_list(v, p, "an array of probabilities",
                                         &SpecReader::as_number);
         }},
        {"mechanisms", true, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.mechanisms = r.read_enums(
               v, p, axis_name_table(mechanism_names()), "mechanism");
         }},
        {"dcache_mechanisms", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.dcache_mechanisms =
               r.read_enums(v, p, axis_name_table(dcache_mechanism_names()),
                            "dcache mechanism");
         }},
        {"engines", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.engines =
               r.read_enums(v, p, axis_name_table(engine_names()), "engine");
         }},
        {"kinds", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.kinds = r.read_enums(
               v, p, axis_name_table(analysis_kind_names()), "analysis kind");
         }},
        {"sample_counts", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.sample_counts = r.read_list(
               v, p, "an array of sample counts", &SpecReader::as_u64);
         }},
        {"target_exceedance", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.target_exceedance = r.as_number(v, p);
         }},
        {"ccdf_exceedances", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.ccdf_exceedances =
               r.read_list(v, p, "an array of exceedance probabilities",
                           &SpecReader::as_number);
         }},
        {"max_distribution_points", false,
         [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.max_distribution_points = r.as_u64(v, p);
         }},
        {"mbpta", false, [](auto& r, auto& v, auto& p, auto& doc) {
           static constexpr Field<MbptaOptions> kMbpta[] = {
               {"chips", false, [](auto& r, auto& v, auto& p, auto& o) {
                  o.chips = r.as_u64(v, p);
                }},
               {"block_size", false, [](auto& r, auto& v, auto& p, auto& o) {
                  o.block_size = r.as_u64(v, p);
                }}};
           r.expect_type(v, Json::Type::kObject, "an object", p);
           r.read_fields(v, p, "mbpta options", "missing", kMbpta,
                         doc.spec.mbpta);
         }},
        {"simulation_chips", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.simulation_chips = r.as_u64(v, p);
         }},
        {"base_seed", false, [](auto& r, auto& v, auto& p, auto& doc) {
           doc.spec.base_seed = r.as_u64(v, p);
         }},
        {"view", false, nullptr}};  // read last: it names the axes' values

    SpecDocument doc;  // absent keys keep the C++ defaults
    read_fields(root, "", "campaign spec", "missing required key", kFields,
                doc);

    // Every rule on a value is CampaignSpec::validate()'s; the reader adds
    // only the line its field path reaches in this document.
    if (const std::optional<SpecViolation> v = doc.spec.validate())
      fail(source_, line_of(root, v->path), v->message, v->path);

    if (const Json* view = root.find("view"))
      doc.view = read_view(*view, doc.spec);
    return doc;
  }

 private:
  /// Walks `object`'s keys in document order, reading each through its
  /// field and failing on one outside `fields` (naming `what`, with the
  /// closest key as a hint); then fails on the first required field the
  /// object lacks, as `<missing> "<key>"`. A field's path is
  /// `<path>.<key>`, or `<key>` when `path` is empty.
  template <typename Fields, typename T>
  void read_fields(const Json& object, const std::string& path,
                   const char* what, const char* missing,
                   const Fields& fields, T& out) {
    std::string field_path = path;
    if (!path.empty()) field_path += '.';
    const std::size_t stem = field_path.size();
    for (const auto& [key, value] : object.object) {
      field_path.resize(stem);
      field_path += key;
      const auto field =
          std::find_if(std::begin(fields), std::end(fields),
                       [&key](const Field<T>& f) { return key == f.key; });
      if (field == std::end(fields)) {
        std::vector<std::string> keys;
        for (const Field<T>& f : fields) keys.emplace_back(f.key);
        std::string message =
            "unknown key \"" + key + "\" in " + std::string(what);
        const std::string hint = closest_match(key, keys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, value.line, message, field_path);
      }
      if (field->read != nullptr) field->read(*this, value, field_path, out);
    }
    for (const Field<T>& field : fields) {
      if (!field.required || object.find(field.key) != nullptr) continue;
      field_path.resize(stem);
      field_path += field.key;
      fail(source_, object.line,
           std::string(missing) + " \"" + field.key + "\"", field_path);
    }
  }

  const Json& expect_type(const Json& value, Json::Type type,
                          const char* what, const std::string& path) {
    if (value.type != type)
      fail(source_, value.line,
           std::string("expected ") + what + ", got " + value.type_name(),
           path);
    return value;
  }

  std::string as_string(const Json& value, const std::string& path) {
    return expect_type(value, Json::Type::kString, "a string", path).string;
  }

  double as_number(const Json& value, const std::string& path) {
    return expect_type(value, Json::Type::kNumber, "a number", path).number;
  }

  /// Unsigned 64-bit field: a plain integer, or (for values above 2^53,
  /// which JSON numbers cannot carry exactly) a string of decimal digits.
  std::uint64_t as_u64(const Json& value, const std::string& path) {
    if (value.type == Json::Type::kString) {
      const std::string& s = value.string;
      if (!s.empty() &&
          std::all_of(s.begin(), s.end(),
                      [](unsigned char c) { return std::isdigit(c); })) {
        errno = 0;
        char* end = nullptr;
        const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
        if (errno == 0 && end == s.c_str() + s.size())
          return parsed;
      }
      fail(source_, value.line,
           "expected a non-negative integer (number or decimal string)",
           path);
    }
    expect_type(value, Json::Type::kNumber, "a non-negative integer", path);
    if (!value.integral) {
      const char* what =
          "expected a non-negative integer, got a non-integral number";
      if (value.number < 0)
        what = "expected a non-negative integer, got a negative number";
      else if (value.integer_overflow)
        what = "integer does not fit in 64 bits";
      fail(source_, value.line, what, path);
    }
    return value.integer;
  }

  std::uint32_t as_u32(const Json& value, const std::string& path) {
    const std::uint64_t wide = as_u64(value, path);
    if (wide > std::numeric_limits<std::uint32_t>::max())
      fail(source_, value.line, "value does not fit in 32 bits", path);
    return static_cast<std::uint32_t>(wide);
  }

  /// Cycle counts are signed 64-bit downstream; values beyond int64 max
  /// would wrap negative through the cast.
  Cycles as_cycles(const Json& value, const std::string& path) {
    const std::uint64_t wide = as_u64(value, path);
    if (wide > static_cast<std::uint64_t>(std::numeric_limits<Cycles>::max()))
      fail(source_, value.line,
           "value does not fit in a signed 64-bit cycle count", path);
    return static_cast<Cycles>(wide);
  }

  /// An axis array, one `read(*this, entry, "key[i]")` per entry.
  template <typename Read, typename T = std::invoke_result_t<
                               Read, SpecReader&, const Json&,
                               const std::string&>>
  std::vector<T> read_list(const Json& value, const std::string& key,
                           const std::string& what, Read read) {
    expect_type(value, Json::Type::kArray, what.c_str(), key);
    std::vector<T> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i)
      out.push_back(std::invoke(read, *this, value.array[i],
                                key + "[" + std::to_string(i) + "]"));
    return out;
  }

  /// An entry of an optional-domain axis: false for `null` (the domain is
  /// off), true for an object; fails on anything else.
  bool enabled_entry(const Json& entry, const std::string& path,
                     const char* expected) {
    if (entry.type == Json::Type::kNull) return false;
    if (entry.type != Json::Type::kObject)
      fail(source_, entry.line,
           std::string("expected ") + expected + ", got " + entry.type_name(),
           path);
    return true;
  }

  /// The keys of a data-cache entry: a geometry's five, then `"policy":
  /// "write_back"` and a `writeback_penalty` (cycles charged per dirty
  /// eviction; the analysis folds it into the miss penalty — see
  /// analysis/writeback_dcache_domain.hpp for why that is sound).
  static std::span<const Field<DcacheAxis>> cache_fields() {
    static constexpr Field<DcacheAxis> kFields[] = {
        {"sets", true, [](auto& r, auto& v, auto& p, auto& d) {
           d.geometry.sets = r.as_u32(v, p);
         }},
        {"ways", true, [](auto& r, auto& v, auto& p, auto& d) {
           d.geometry.ways = r.as_u32(v, p);
         }},
        {"line_bytes", true, [](auto& r, auto& v, auto& p, auto& d) {
           d.geometry.line_bytes = r.as_u32(v, p);
         }},
        {"hit_latency", false, [](auto& r, auto& v, auto& p, auto& d) {
           d.geometry.hit_latency = r.as_cycles(v, p);
         }},
        {"miss_penalty", false, [](auto& r, auto& v, auto& p, auto& d) {
           d.geometry.miss_penalty = r.as_cycles(v, p);
         }},
        {"policy", false, [](auto& r, auto& v, auto& p, auto& d) {
           d.policy = r.parse_enum(v, p, axis_name_table(write_policy_names()),
                                   "write policy");
         }},
        {"writeback_penalty", false, [](auto& r, auto& v, auto& p, auto& d) {
           d.writeback_penalty = r.as_cycles(v, p);
         }}};
    return kFields;
  }

  CacheConfig read_geometry(const Json& value, const std::string& path) {
    expect_type(value, Json::Type::kObject, "a geometry object", path);
    DcacheAxis axis;
    read_fields(value, path, "geometry", "geometry is missing",
                cache_fields().first(5), axis);  // the geometry's keys
    return axis.geometry;
  }

  /// A data-cache axis entry: `null` (data cache off, the default
  /// analysis) or a geometry object, optionally write-back.
  DcacheAxis read_dcache(const Json& entry, const std::string& path) {
    DcacheAxis axis;
    axis.enabled = enabled_entry(
        entry, path, "null (data cache off) or a geometry object");
    if (!axis.enabled) return axis;
    read_fields(entry, path, "data-cache entry", "geometry is missing",
                cache_fields(), axis);
    if (entry.find("writeback_penalty") != nullptr &&
        axis.policy != WritePolicy::kWriteBack)
      fail(source_, entry.line,
           "\"writeback_penalty\" needs \"policy\": \"write_back\" (a "
           "write-through data cache never writes lines back)",
           path + ".writeback_penalty");
    return axis;
  }

  /// A TLB axis entry: `null` (TLB off) or an object with `entries`,
  /// `ways`, `page_bytes` and an optional `miss_penalty`.
  TlbAxis read_tlb(const Json& entry, const std::string& path) {
    static constexpr Field<TlbAxis> kFields[] = {
        {"entries", true, [](auto& r, auto& v, auto& p, auto& t) {
           t.entries = r.as_u32(v, p);
         }},
        {"ways", true, [](auto& r, auto& v, auto& p, auto& t) {
           t.ways = r.as_u32(v, p);
         }},
        {"page_bytes", true, [](auto& r, auto& v, auto& p, auto& t) {
           t.page_bytes = r.as_u32(v, p);
         }},
        {"miss_penalty", false, [](auto& r, auto& v, auto& p, auto& t) {
           t.miss_penalty = r.as_cycles(v, p);
         }}};
    TlbAxis axis;
    axis.enabled =
        enabled_entry(entry, path, "null (TLB off) or a TLB object");
    if (axis.enabled)
      read_fields(entry, path, "TLB entry", "TLB entry is missing", kFields,
                  axis);
    return axis;
  }

  /// A shared-L2 axis entry: `null` (no L2) or a geometry object (the L2
  /// is lookup-through; hit_latency/miss_penalty price the *incremental*
  /// L2 cost per reference).
  L2Axis read_l2(const Json& entry, const std::string& path) {
    L2Axis axis;
    axis.enabled =
        enabled_entry(entry, path, "null (no shared L2) or a geometry object");
    if (axis.enabled) axis.geometry = read_geometry(entry, path);
    return axis;
  }

  /// One enum name, matched case-insensitively against the registry.
  template <typename Enum>
  Enum parse_enum(const Json& value, const std::string& path,
                  const std::vector<std::pair<std::string, Enum>>& table,
                  const char* what) {
    const std::string name = as_string(value, path);
    const std::string folded = lowercase(name);
    for (const auto& [candidate, enumerator] : table)
      if (folded == lowercase(candidate)) return enumerator;
    std::vector<std::string> names;
    for (const auto& entry : table) names.push_back(entry.first);
    fail(source_, value.line,
         std::string("unknown ") + what + " \"" + name +
             "\"; valid values: " + joined(names),
         path);
  }

  template <typename Enum>
  std::vector<Enum> read_enums(
      const Json& value, const std::string& key,
      const std::vector<std::pair<std::string, Enum>>& table,
      const char* what) {
    return read_list(
        value, key, std::string("an array of ") + what + " names",
        [&](SpecReader& r, const Json& entry, const std::string& path) {
          return r.parse_enum(entry, path, table, what);
        });
  }

  /// The `view` block, resolved against the spec's axes. Every condition
  /// render_view relies on is checked here: each cell must address
  /// exactly one job.
  SpecView read_view(const Json& value, const CampaignSpec& spec) {
    // The view's objects are read after their keys are checked, so their
    // fields have no reader of their own.
    static constexpr Field<SpecView> kFields[] = {{"rows", true, nullptr},
                                                  {"columns", true, nullptr}};
    static constexpr Field<ViewColumn> kColumnFields[] = {
        {"label", true, nullptr},
        {"value", false, nullptr},
        {"where", false, nullptr},
        {"divide_by", false, nullptr}};
    static constexpr Field<ViewColumn> kDivisorFields[] = {
        {"value", true, nullptr}, {"where", false, nullptr}};
    SpecView view;
    expect_type(value, Json::Type::kObject, "a view object", "view");
    read_fields(value, "view", "view", "view is missing", kFields, view);
    const Json* rows = value.find("rows");
    const Json* columns = value.find("columns");

    expect_type(*rows, Json::Type::kArray, "an array of axis names",
                "view.rows");
    const std::vector<std::string> keys(std::begin(kViewAxisKeys),
                                        std::end(kViewAxisKeys));
    for (std::size_t i = 0; i < rows->array.size(); ++i) {
      const std::string path = "view.rows[" + std::to_string(i) + "]";
      const Json& entry = rows->array[i];
      const std::string name = as_string(entry, path);
      const auto it = std::find(keys.begin(), keys.end(), name);
      if (it == keys.end())
        fail(source_, entry.line,
             "unknown axis \"" + name + "\"; valid values: " + joined(keys),
             path);
      const auto axis = static_cast<SpecAxis>(it - keys.begin());
      if (std::find(view.rows.begin(), view.rows.end(), axis) !=
          view.rows.end())
        fail(source_, entry.line,
             "axis \"" + name + "\" is already a view row", path);
      if (axis == SpecAxis::kCcdfExceedances && spec.ccdf_exceedances.empty())
        fail(source_, entry.line,
             "a \"ccdf_exceedances\" row needs a spec with "
             "\"ccdf_exceedances\" (this one has no distribution sink)",
             path);
      view.rows.push_back(axis);
    }

    expect_type(*columns, Json::Type::kArray, "an array of view columns",
                "view.columns");
    if (columns->array.empty())
      fail(source_, columns->line, "\"view.columns\" must not be empty",
           "view.columns");
    for (std::size_t i = 0; i < columns->array.size(); ++i) {
      const std::string path = "view.columns[" + std::to_string(i) + "]";
      const Json& entry = columns->array[i];
      expect_type(entry, Json::Type::kObject, "a view column object", path);
      ViewColumn column;
      read_fields(entry, path, "view column", "view column is missing",
                  kColumnFields, column);
      column.label = as_string(*entry.find("label"), path + ".label");
      column.value = read_view_ref(entry, path, spec, view.rows);
      if (const Json* divisor = entry.find("divide_by")) {
        const std::string divisor_path = path + ".divide_by";
        expect_type(*divisor, Json::Type::kObject,
                    "an object with \"value\" and \"where\"", divisor_path);
        read_fields(*divisor, divisor_path, "divide_by", "missing",
                    kDivisorFields, column);
        column.divide_by = read_view_ref(*divisor, divisor_path, spec,
                                         view.rows);
      }
      view.columns.push_back(std::move(column));
    }
    return view;
  }

  /// The `value` and `where` keys of a view column or of its divisor.
  ViewRef read_view_ref(const Json& object, const std::string& path,
                        const CampaignSpec& spec,
                        const std::vector<SpecAxis>& rows) {
    const auto is_row = [&rows](SpecAxis axis) {
      return std::find(rows.begin(), rows.end(), axis) != rows.end();
    };
    ViewRef ref;
    const Json* value = object.find("value");
    if (value == nullptr)
      fail(source_, object.line, "missing \"value\"", path + ".value");
    const std::string name = as_string(*value, path + ".value");
    const std::vector<std::string> names = report_result_columns();
    const auto column = std::find(names.begin(), names.end(), name);
    if (column == names.end())
      fail(source_, value->line,
           "unknown report column \"" + name + "\"; valid values: " +
               joined(names),
           path + ".value");
    ref.value = static_cast<std::size_t>(column - names.begin());

    if (const Json* where = object.find("where")) {
      expect_type(*where, Json::Type::kObject, "an object of axis values",
                  path + ".where");
      for (const auto& [key, field] : where->object) {
        const std::string field_path = path + ".where." + key;
        SpecAxis axis = SpecAxis::kMechanisms;
        std::size_t index = 0;
        if (key == "mechanisms") {
          axis = SpecAxis::kMechanisms;
          index = where_index(field, field_path,
                              axis_name_table(mechanism_names()),
                              spec.mechanisms, "mechanism", key);
        } else if (key == "dcache_mechanisms") {
          axis = SpecAxis::kDcacheMechanisms;
          index = where_index(field, field_path,
                              axis_name_table(dcache_mechanism_names()),
                              spec.dcache_mechanisms, "dcache mechanism", key);
        } else if (key == "engines") {
          axis = SpecAxis::kEngines;
          index = where_index(field, field_path,
                              axis_name_table(engine_names()), spec.engines,
                              "engine", key);
        } else if (key == "kinds") {
          axis = SpecAxis::kKinds;
          index = where_index(field, field_path,
                              axis_name_table(analysis_kind_names()),
                              spec.kinds, "analysis kind", key);
        } else {
          fail(source_, field.line,
               "unknown axis \"" + key +
                   "\" in \"where\"; valid values: mechanisms, "
                   "dcache_mechanisms, engines, kinds",
               field_path);
        }
        if (is_row(axis))
          fail(source_, field.line,
               "axis \"" + key + "\" is a view row; \"where\" cannot pin it",
               field_path);
        ref.where.emplace_back(axis, index);
      }
    }

    // Any other axis holding several values would make the cell ambiguous.
    for (std::size_t a = 0; a < std::size(kViewAxisKeys); ++a) {
      const auto axis = static_cast<SpecAxis>(a);
      const std::size_t size = axis_size(spec, axis);
      if (axis == SpecAxis::kCcdfExceedances || size < 2 || is_row(axis) ||
          std::any_of(ref.where.begin(), ref.where.end(),
                      [axis](const auto& pin) { return pin.first == axis; }))
        continue;
      const bool pinnable =
          axis == SpecAxis::kMechanisms ||
          axis == SpecAxis::kDcacheMechanisms ||
          axis == SpecAxis::kEngines || axis == SpecAxis::kKinds;
      fail(source_, object.line,
           "axis \"" + std::string(view_axis_key(axis)) + "\" has " +
               std::to_string(size) + " values: make it a view row" +
               (pinnable ? " or pin it in \"where\"" : ""),
           path + ".where");
    }
    return ref;
  }

  /// Index on `axis` of the enum value named by `field`.
  template <typename Enum>
  std::size_t where_index(
      const Json& field, const std::string& path,
      const std::vector<std::pair<std::string, Enum>>& table,
      const std::vector<Enum>& axis, const char* what,
      const std::string& key) {
    const Enum value = parse_enum(field, path, table, what);
    const auto it = std::find(axis.begin(), axis.end(), value);
    if (it == axis.end())
      fail(source_, field.line,
           std::string(what) + " \"" + field.string +
               "\" is not on this spec's \"" + key + "\" axis",
           path);
    return static_cast<std::size_t>(it - axis.begin());
  }

  const std::string& source_;
};

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

/// Shortest decimal string that parses back to exactly `value` — nicer to
/// read than a flat %.17g (1e-15 stays "1e-15") while still bit-exact, which
/// the spec -> JSON -> spec round-trip (campaign_spec_key equality) needs.
std::string fmt_shortest_exact(double value) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  return buf;
}

std::string fmt_u64_json(std::uint64_t value) {
  // Values above 2^53 would be rounded by double-based JSON readers (and
  // by our own parser's strtod fallback); ship them as decimal strings.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  if (value > (std::uint64_t{1} << 53)) return std::string("\"") + buf + "\"";
  return buf;
}

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& values, Fn&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += render(values[i]);
  }
  out += ']';
  return out;
}

}  // namespace

SpecDocument parse_spec(const std::string& text, const std::string& source) {
  // Syntax errors surface as SpecError like every other spec problem; the
  // shared parser's diagnostics already carry source and line.
  Json root;
  try {
    root = parse_json(text, source);
  } catch (const JsonParseError& e) {
    throw SpecError(e.what());
  }
  return SpecReader(source).read(root);
}

SpecDocument load_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError(path + ": cannot open spec file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw SpecError(path + ": error reading spec file");
  return parse_spec(buffer.str(), path);
}

std::string spec_to_json(const CampaignSpec& spec, const std::string& name,
                         const std::string& notes,
                         const std::optional<SpecView>& view) {
  std::string out = "{\n";
  auto field = [&out](const std::string& key, const std::string& value,
                      bool last = false) {
    out += "  ";
    out += json_quote(key);
    out += ": ";
    out += value;
    if (!last) out += ',';
    out += '\n';
  };

  const auto geometry_json = [](const CacheConfig& g) {
    return "{\"sets\": " + std::to_string(g.sets) +
           ", \"ways\": " + std::to_string(g.ways) +
           ", \"line_bytes\": " + std::to_string(g.line_bytes) +
           ", \"hit_latency\": " + std::to_string(g.hit_latency) +
           ", \"miss_penalty\": " + std::to_string(g.miss_penalty) + "}";
  };

  if (!name.empty()) field("name", json_quote(name));
  if (!notes.empty()) field("notes", json_quote(notes));
  field("tasks", json_array(spec.tasks, json_quote));
  std::string geometries = "[\n";
  for (std::size_t i = 0; i < spec.geometries.size(); ++i) {
    geometries += "    " + geometry_json(spec.geometries[i]);
    geometries += i + 1 < spec.geometries.size() ? ",\n" : "\n";
  }
  geometries += "  ]";
  field("geometries", geometries);
  field("dcaches", json_array(spec.dcaches, [&](const DcacheAxis& d) {
          if (!d.enabled) return std::string("null");
          std::string entry = geometry_json(d.geometry);
          if (d.policy == WritePolicy::kWriteBack) {
            entry.pop_back();  // reopen the geometry object
            entry += ", \"policy\": " + json_quote(write_policy_name(d.policy)) +
                     ", \"writeback_penalty\": " +
                     std::to_string(d.writeback_penalty) + "}";
          }
          return entry;
        }));
  field("tlbs", json_array(spec.tlbs, [](const TlbAxis& t) {
          if (!t.enabled) return std::string("null");
          return "{\"entries\": " + std::to_string(t.entries) +
                 ", \"ways\": " + std::to_string(t.ways) +
                 ", \"page_bytes\": " + std::to_string(t.page_bytes) +
                 ", \"miss_penalty\": " + std::to_string(t.miss_penalty) +
                 "}";
        }));
  field("l2s", json_array(spec.l2s, [&](const L2Axis& l) {
          return l.enabled ? geometry_json(l.geometry) : std::string("null");
        }));
  field("pfails", json_array(spec.pfails, fmt_shortest_exact));
  field("mechanisms", json_array(spec.mechanisms, [](Mechanism m) {
          return json_quote(mechanism_name(m));
        }));
  field("dcache_mechanisms",
        json_array(spec.dcache_mechanisms, [](DcacheMechanism m) {
          return json_quote(dcache_mechanism_name(m));
        }));
  field("engines", json_array(spec.engines, [](WcetEngine e) {
          return json_quote(engine_name(e));
        }));
  field("kinds", json_array(spec.kinds, [](AnalysisKind k) {
          return json_quote(analysis_kind_name(k));
        }));
  field("sample_counts",
        json_array(spec.sample_counts, [](std::size_t n) {
          return std::to_string(n);
        }));
  field("target_exceedance", fmt_shortest_exact(spec.target_exceedance));
  field("ccdf_exceedances",
        json_array(spec.ccdf_exceedances, fmt_shortest_exact));
  field("max_distribution_points",
        std::to_string(spec.max_distribution_points));
  field("mbpta", "{\"chips\": " + std::to_string(spec.mbpta.chips) +
                     ", \"block_size\": " +
                     std::to_string(spec.mbpta.block_size) + "}");
  field("simulation_chips", std::to_string(spec.simulation_chips));
  field("base_seed", fmt_u64_json(spec.base_seed), /*last=*/!view);
  if (view) {
    const auto ref_json = [&spec](const ViewRef& ref) {
      std::string entry =
          "\"value\": " + json_quote(report_result_columns()[ref.value]);
      if (!ref.where.empty()) {
        entry += ", \"where\": {";
        for (std::size_t i = 0; i < ref.where.size(); ++i) {
          const auto [axis, index] = ref.where[i];
          if (i != 0) entry += ", ";
          entry += json_quote(view_axis_key(axis)) + ": " +
                   json_quote(axis_label(spec, axis, index));
        }
        entry += '}';
      }
      return entry;
    };
    std::string block = "{\n    \"rows\": " +
                        json_array(view->rows,
                                   [](SpecAxis axis) {
                                     return json_quote(view_axis_key(axis));
                                   }) +
                        ",\n    \"columns\": [\n";
    for (std::size_t i = 0; i < view->columns.size(); ++i) {
      const ViewColumn& column = view->columns[i];
      block += "      {\"label\": " + json_quote(column.label) + ", " +
               ref_json(column.value);
      if (column.divide_by)
        block += ", \"divide_by\": {" + ref_json(*column.divide_by) + "}";
      block += i + 1 < view->columns.size() ? "},\n" : "}\n";
    }
    block += "    ]\n  }";
    field("view", block, /*last=*/true);
  }
  out += "}\n";
  return out;
}

}  // namespace pwcet
