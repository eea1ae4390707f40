// Single-field mutation sweep over the shipped campaign specs. Every node
// of every specs/*.json (its `view` included) is replaced by each of a
// fixed list of hostile JSON values, and every object key and array entry
// is deleted. Each mutant must end in one of two ways:
//
//  - parse_spec throws a SpecError naming the source, or
//  - the loaded spec passes validate(), expand_campaign yields job_count()
//    jobs, and spec_to_json is a fixed point (serialize, parse, serialize
//    gives the same bytes).
//
// Any other exception fails the test, and an abort or a crash fails the
// process. Nothing runs a campaign, so the sweep takes a few seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/spec_io.hpp"
#include "support/json.hpp"
#include "support/json_doc.hpp"

#ifndef PWCET_SPECS_DIR
#define PWCET_SPECS_DIR "specs"
#endif

namespace pwcet {
namespace {

/// Replacement values, spliced into the document as raw JSON text: counts
/// at and around the size bounds, 2^31 / 2^63 / 2^64, extreme and
/// subnormal doubles, every JSON type, and names that are valid somewhere
/// in a spec (axis keys, axis values, report columns).
const std::vector<std::string> kHostileValues = {
    "0", "-1", "255", "256", "257", "65536", "65537", "2147483648",
    "9223372036854775808", "18446744073709551616", "1e308", "-1e308",
    "1e-320", "\"\"", "\"x\"", "null", "[]", "{}", "true",
    "\"tasks\"", "\"geometries\"", "\"pfails\"", "\"mechanisms\"",
    "\"kinds\"", "\"ccdf_exceedances\"", "\"SRB\"", "\"none\"", "\"mbpta\"",
    "\"sim\"", "\"slack\"", "\"tree\"", "\"write_back\"", "\"pwcet\"",
    "\"wcet_ff\"", "\"observed_max\""};

/// One mutation: `target` replaced by `replacement`, or deleted from its
/// parent when `replacement` is null.
struct Mutation {
  const Json* target = nullptr;
  const std::string* replacement = nullptr;
};

std::string number_text(const Json& value) {
  if (value.integral) return std::to_string(value.integer);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value.number);
  return buf;
}

void write(const Json& node, const Mutation& m, std::string& out) {
  if (&node == m.target && m.replacement != nullptr) {
    out += *m.replacement;
    return;
  }
  const auto deleted = [&m](const Json& child) {
    return &child == m.target && m.replacement == nullptr;
  };
  switch (node.type) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += node.boolean ? "true" : "false"; break;
    case Json::Type::kNumber: out += number_text(node); break;
    case Json::Type::kString: out += json_quote(node.string); break;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& element : node.array) {
        if (deleted(element)) continue;
        if (!first) out += ",\n";
        first = false;
        write(element, m, out);
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : node.object) {
        if (deleted(value)) continue;
        if (!first) out += ",\n";
        first = false;
        out += json_quote(key) + ": ";
        write(value, m, out);
      }
      out += '}';
      break;
    }
  }
}

/// Every node below `node`, with its field path for diagnostics.
void collect(const Json& node, const std::string& path,
             std::vector<std::pair<const Json*, std::string>>& out) {
  if (node.type == Json::Type::kArray)
    for (std::size_t i = 0; i < node.array.size(); ++i) {
      const std::string child = path + "[" + std::to_string(i) + "]";
      out.emplace_back(&node.array[i], child);
      collect(node.array[i], child, out);
    }
  if (node.type == Json::Type::kObject)
    for (const auto& [key, value] : node.object) {
      const std::string child = path.empty() ? key : path + "." + key;
      out.emplace_back(&value, child);
      collect(value, child, out);
    }
}

struct Tally {
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  std::size_t failures = 0;
};

/// Checks the invariant on one mutant; returns false on a violation.
bool check_mutant(const std::string& text, Tally& tally) {
  SpecDocument doc;
  try {
    doc = parse_spec(text, "<mutant>");
  } catch (const SpecError& e) {
    ++tally.rejected;
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("<mutant>:", 0), 0u) << message;
    return message.rfind("<mutant>:", 0) == 0;
  }
  ++tally.accepted;
  const std::optional<SpecViolation> violation = doc.spec.validate();
  EXPECT_FALSE(violation) << violation->path << ": " << violation->message;
  const std::size_t jobs = expand_campaign(doc.spec).size();
  EXPECT_EQ(jobs, doc.spec.job_count());
  const std::string json =
      spec_to_json(doc.spec, doc.name, doc.notes, doc.view);
  const SpecDocument again = parse_spec(json, "<round-trip>");
  const std::string twice =
      spec_to_json(again.spec, again.name, again.notes, again.view);
  EXPECT_EQ(twice, json);
  return !violation && jobs == doc.spec.job_count() && twice == json;
}

std::string load_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::filesystem::path> shipped_specs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(PWCET_SPECS_DIR))
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(SpecMutation, EverySingleFieldMutantLoadsOrFailsWithANamedError) {
  const std::vector<std::filesystem::path> specs = shipped_specs();
  ASSERT_GE(specs.size(), 11u);
  Tally tally;
  for (const std::filesystem::path& spec : specs) {
    const Json root = parse_json(load_text(spec), spec.string());
    std::vector<std::pair<const Json*, std::string>> nodes;
    collect(root, "", nodes);
    for (const auto& [node, path] : nodes) {
      std::vector<Mutation> mutations = {{node, nullptr}};
      for (const std::string& value : kHostileValues)
        mutations.push_back({node, &value});
      for (const Mutation& m : mutations) {
        std::string text;
        write(root, m, text);
        bool ok = false;
        try {
          ok = check_mutant(text, tally);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "unexpected exception: " << e.what();
        }
        if (ok) continue;
        ADD_FAILURE() << spec.filename().string() << ": " << path << " "
                      << (m.replacement ? "= " + *m.replacement
                                        : std::string("deleted"));
        ASSERT_LT(++tally.failures, 10u) << "stopping after 10 failures";
      }
    }
  }
  std::printf("%zu mutants: %zu rejected, %zu accepted\n",
              tally.rejected + tally.accepted, tally.rejected,
              tally.accepted);
  // Both outcomes occur: the sweep reaches the validator and the writer.
  EXPECT_GT(tally.rejected, 10000u);
  EXPECT_GT(tally.accepted, 500u);
}

}  // namespace
}  // namespace pwcet
