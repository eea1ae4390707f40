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

class SpecReader {
 public:
  explicit SpecReader(const std::string& source) : source_(source) {}

  SpecDocument read(const Json& root) {
    if (root.type != Json::Type::kObject)
      fail(source_, root.line,
           std::string("a campaign spec must be a JSON object, got ") +
               root.type_name(),
           "");

    static const std::vector<std::string> kKnownKeys = {
        "name",          "notes",
        "tasks",         "geometries",
        "dcaches",       "tlbs",
        "l2s",           "pfails",
        "mechanisms",    "dcache_mechanisms",
        "engines",       "kinds",
        "sample_counts", "target_exceedance",
        "ccdf_exceedances", "max_distribution_points",
        "mbpta",         "simulation_chips",
        "base_seed",     "view"};

    SpecDocument doc;
    CampaignSpec& spec = doc.spec;  // absent keys keep the C++ defaults

    bool saw_tasks = false, saw_geometries = false, saw_pfails = false;
    bool saw_mechanisms = false;
    const Json* view = nullptr;  // read last: it names the axes' values

    for (const auto& [key, value] : root.object) {
      if (key == "name") {
        doc.name = as_string(value, key);
      } else if (key == "notes") {
        doc.notes = as_string(value, key);
      } else if (key == "view") {
        view = &value;
      } else if (key == "tasks") {
        spec.tasks = read_list<std::string>(
            value, key, "an array of task names",
            std::bind_front(&SpecReader::as_string, this));
        saw_tasks = true;
      } else if (key == "geometries") {
        spec.geometries = read_list<CacheConfig>(
            value, key, "an array of geometry objects",
            std::bind_front(&SpecReader::read_geometry, this));
        saw_geometries = true;
      } else if (key == "pfails") {
        spec.pfails = read_list<Probability>(
            value, key, "an array of probabilities",
            std::bind_front(&SpecReader::as_number, this));
        saw_pfails = true;
      } else if (key == "dcaches") {
        spec.dcaches = read_list<DcacheAxis>(
            value, key, "an array of null (off) or geometry objects",
            std::bind_front(&SpecReader::read_dcache, this));
      } else if (key == "tlbs") {
        spec.tlbs = read_list<TlbAxis>(
            value, key, "an array of null (off) or TLB objects",
            std::bind_front(&SpecReader::read_tlb, this));
      } else if (key == "l2s") {
        spec.l2s = read_list<L2Axis>(
            value, key, "an array of null (off) or geometry objects",
            std::bind_front(&SpecReader::read_l2, this));
      } else if (key == "mechanisms") {
        // All enum axes parse against the axis-name registry
        // (engine/names.hpp), the same tables the reports and `pwcet
        // list` print from.
        spec.mechanisms = read_enums<Mechanism>(
            value, key, axis_name_table(mechanism_names()), "mechanism");
        saw_mechanisms = true;
      } else if (key == "dcache_mechanisms") {
        spec.dcache_mechanisms = read_enums<DcacheMechanism>(
            value, key, axis_name_table(dcache_mechanism_names()),
            "dcache mechanism");
      } else if (key == "engines") {
        spec.engines = read_enums<WcetEngine>(
            value, key, axis_name_table(engine_names()), "engine");
      } else if (key == "kinds") {
        spec.kinds = read_enums<AnalysisKind>(
            value, key, axis_name_table(analysis_kind_names()),
            "analysis kind");
      } else if (key == "sample_counts") {
        spec.sample_counts = read_list<std::size_t>(
            value, key, "an array of sample counts",
            std::bind_front(&SpecReader::as_u64, this));
      } else if (key == "ccdf_exceedances") {
        spec.ccdf_exceedances = read_list<Probability>(
            value, key, "an array of exceedance probabilities",
            std::bind_front(&SpecReader::as_number, this));
      } else if (key == "target_exceedance") {
        spec.target_exceedance = as_number(value, key);
      } else if (key == "max_distribution_points") {
        spec.max_distribution_points =
            static_cast<std::size_t>(as_u64(value, key));
      } else if (key == "mbpta") {
        read_mbpta(value, spec.mbpta);
      } else if (key == "simulation_chips") {
        spec.simulation_chips = static_cast<std::size_t>(as_u64(value, key));
      } else if (key == "base_seed") {
        spec.base_seed = as_u64(value, key);
      } else {
        std::string message = "unknown key \"" + key + "\" in campaign spec";
        const std::string hint = closest_match(key, kKnownKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, value.line, message, key);
      }
    }

    if (!saw_tasks)
      fail(source_, root.line, "missing required key \"tasks\"", "tasks");
    if (!saw_geometries)
      fail(source_, root.line, "missing required key \"geometries\"",
           "geometries");
    if (!saw_pfails)
      fail(source_, root.line, "missing required key \"pfails\"", "pfails");
    if (!saw_mechanisms)
      fail(source_, root.line, "missing required key \"mechanisms\"",
           "mechanisms");

    // Every rule on a value is CampaignSpec::validate()'s; the reader adds
    // only the line its field path reaches in this document.
    if (const std::optional<SpecViolation> v = spec.validate())
      fail(source_, line_of(root, v->path), v->message, v->path);

    if (view != nullptr) doc.view = read_view(*view, spec);
    return doc;
  }

 private:
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

  /// An axis array, one `read(entry, "key[i]")` per entry.
  template <typename T, typename Read>
  std::vector<T> read_list(const Json& value, const std::string& key,
                           const std::string& what, Read read) {
    expect_type(value, Json::Type::kArray, what.c_str(), key);
    std::vector<T> out;
    out.reserve(value.array.size());
    for (std::size_t i = 0; i < value.array.size(); ++i)
      out.push_back(read(value.array[i], key + "[" + std::to_string(i) + "]"));
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

  CacheConfig read_geometry(const Json& value, const std::string& path) {
    expect_type(value, Json::Type::kObject, "a geometry object", path);
    static const std::vector<std::string> kKeys = {
        "sets", "ways", "line_bytes", "hit_latency", "miss_penalty"};
    CacheConfig config;
    bool saw_sets = false, saw_ways = false, saw_line_bytes = false;
    for (const auto& [key, field] : value.object) {
      const std::string field_path = path + "." + key;
      if (key == "sets") {
        config.sets = as_u32(field, field_path);
        saw_sets = true;
      } else if (key == "ways") {
        config.ways = as_u32(field, field_path);
        saw_ways = true;
      } else if (key == "line_bytes") {
        config.line_bytes = as_u32(field, field_path);
        saw_line_bytes = true;
      } else if (key == "hit_latency") {
        config.hit_latency = as_cycles(field, field_path);
      } else if (key == "miss_penalty") {
        config.miss_penalty = as_cycles(field, field_path);
      } else {
        std::string message = "unknown key \"" + key + "\" in geometry";
        const std::string hint = closest_match(key, kKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, field.line, message, field_path);
      }
    }
    if (!saw_sets)
      fail(source_, value.line, "geometry is missing \"sets\"", path + ".sets");
    if (!saw_ways)
      fail(source_, value.line, "geometry is missing \"ways\"", path + ".ways");
    if (!saw_line_bytes)
      fail(source_, value.line, "geometry is missing \"line_bytes\"",
           path + ".line_bytes");
    return config;
  }

  /// A data-cache axis entry: `null` (data cache off, the default
  /// analysis) or a geometry object, optionally extended with
  /// `"policy": "write_back"` and a `writeback_penalty` (cycles charged
  /// per dirty eviction; the analysis folds it into the miss penalty —
  /// see analysis/writeback_dcache_domain.hpp for why that is sound).
  DcacheAxis read_dcache(const Json& entry, const std::string& path) {
    static const std::vector<std::string> kGeometryKeys = {
        "sets", "ways", "line_bytes", "hit_latency", "miss_penalty"};
    static const std::vector<std::string> kKeys = {
        "sets",        "ways",   "line_bytes",        "hit_latency",
        "miss_penalty", "policy", "writeback_penalty"};
    DcacheAxis axis;
    axis.enabled = enabled_entry(
        entry, path, "null (data cache off) or a geometry object");
    if (!axis.enabled) return axis;
    // Split the entry: the policy fields are handled here, everything
    // else flows through read_geometry so the geometry diagnostics
    // (required keys) stay in one place.
    Json geometry = entry;
    geometry.object.clear();
    bool saw_penalty = false;
    for (const auto& [key, field] : entry.object) {
      const std::string field_path = path + "." + key;
      if (key == "policy") {
        axis.policy = parse_enum(field, field_path,
                                 axis_name_table(write_policy_names()),
                                 "write policy");
      } else if (key == "writeback_penalty") {
        axis.writeback_penalty = as_cycles(field, field_path);
        saw_penalty = true;
      } else if (std::find(kGeometryKeys.begin(), kGeometryKeys.end(), key) !=
                 kGeometryKeys.end()) {
        geometry.object.emplace_back(key, field);
      } else {
        std::string message = "unknown key \"" + key + "\" in data-cache entry";
        const std::string hint = closest_match(key, kKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, field.line, message, field_path);
      }
    }
    axis.geometry = read_geometry(geometry, path);
    if (saw_penalty && axis.policy != WritePolicy::kWriteBack)
      fail(source_, entry.line,
           "\"writeback_penalty\" needs \"policy\": \"write_back\" (a "
           "write-through data cache never writes lines back)",
           path + ".writeback_penalty");
    return axis;
  }

  /// A TLB axis entry: `null` (TLB off) or an object with `entries`,
  /// `ways`, `page_bytes` and an optional `miss_penalty`.
  TlbAxis read_tlb(const Json& entry, const std::string& path) {
    static const std::vector<std::string> kKeys = {"entries", "ways",
                                                   "page_bytes",
                                                   "miss_penalty"};
    TlbAxis axis;
    axis.enabled =
        enabled_entry(entry, path, "null (TLB off) or a TLB object");
    if (!axis.enabled) return axis;
    bool saw_entries = false, saw_ways = false, saw_page_bytes = false;
    for (const auto& [key, field] : entry.object) {
      const std::string field_path = path + "." + key;
      if (key == "entries") {
        axis.entries = as_u32(field, field_path);
        saw_entries = true;
      } else if (key == "ways") {
        axis.ways = as_u32(field, field_path);
        saw_ways = true;
      } else if (key == "page_bytes") {
        axis.page_bytes = as_u32(field, field_path);
        saw_page_bytes = true;
      } else if (key == "miss_penalty") {
        axis.miss_penalty = as_cycles(field, field_path);
      } else {
        std::string message = "unknown key \"" + key + "\" in TLB entry";
        const std::string hint = closest_match(key, kKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, field.line, message, field_path);
      }
    }
    if (!saw_entries)
      fail(source_, entry.line, "TLB entry is missing \"entries\"",
           path + ".entries");
    if (!saw_ways)
      fail(source_, entry.line, "TLB entry is missing \"ways\"",
           path + ".ways");
    if (!saw_page_bytes)
      fail(source_, entry.line, "TLB entry is missing \"page_bytes\"",
           path + ".page_bytes");
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
    return read_list<Enum>(
        value, key, std::string("an array of ") + what + " names",
        [&](const Json& entry, const std::string& path) {
          return parse_enum(entry, path, table, what);
        });
  }

  void read_mbpta(const Json& value, MbptaOptions& options) {
    expect_type(value, Json::Type::kObject, "an object", "mbpta");
    static const std::vector<std::string> kKeys = {"chips", "block_size",
                                                   "seed"};
    for (const auto& [key, field] : value.object) {
      const std::string path = "mbpta." + key;
      if (key == "chips") {
        options.chips = static_cast<std::size_t>(as_u64(field, path));
      } else if (key == "block_size") {
        options.block_size = static_cast<std::size_t>(as_u64(field, path));
      } else if (key == "seed") {
        options.seed = as_u64(field, path);
      } else {
        std::string message = "unknown key \"" + key + "\" in mbpta options";
        const std::string hint = closest_match(key, kKeys);
        if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
        fail(source_, field.line, message, path);
      }
    }
  }

  /// Fails on the first key of `object` outside `keys`.
  void expect_keys(const Json& object, const std::vector<std::string>& keys,
                   const char* what, const std::string& path) {
    for (const auto& [key, field] : object.object) {
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
      std::string message = "unknown key \"" + key + "\" in " + what;
      const std::string hint = closest_match(key, keys);
      if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
      fail(source_, field.line, message, path + "." + key);
    }
  }

  /// The `view` block, resolved against the spec's axes. Every condition
  /// render_view relies on is checked here: each cell must address
  /// exactly one job.
  SpecView read_view(const Json& value, const CampaignSpec& spec) {
    expect_type(value, Json::Type::kObject, "a view object", "view");
    expect_keys(value, {"rows", "columns"}, "view", "view");
    const Json* rows = value.find("rows");
    const Json* columns = value.find("columns");
    if (rows == nullptr)
      fail(source_, value.line, "view is missing \"rows\"", "view.rows");
    if (columns == nullptr)
      fail(source_, value.line, "view is missing \"columns\"",
           "view.columns");

    SpecView view;
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
      expect_keys(entry, {"label", "value", "where", "divide_by"},
                  "view column", path);
      const Json* label = entry.find("label");
      if (label == nullptr)
        fail(source_, entry.line, "view column is missing \"label\"",
             path + ".label");
      ViewColumn column;
      column.label = as_string(*label, path + ".label");
      column.value = read_view_ref(entry, path, spec, view.rows);
      if (const Json* divisor = entry.find("divide_by")) {
        const std::string divisor_path = path + ".divide_by";
        expect_type(*divisor, Json::Type::kObject,
                    "an object with \"value\" and \"where\"", divisor_path);
        expect_keys(*divisor, {"value", "where"}, "divide_by", divisor_path);
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
                     std::to_string(spec.mbpta.block_size) +
                     ", \"seed\": " + fmt_u64_json(spec.mbpta.seed) + "}");
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
