/// \file
/// Declarative campaign-spec files: JSON (de)serialization of CampaignSpec.
///
/// A spec file is one JSON object naming the sweep axes and scalar knobs of
/// a CampaignSpec (see docs/campaign-spec.md for the full reference). The
/// loader is strict by design, in two layers. The reader checks what a
/// CampaignSpec value cannot express: JSON types, unknown and missing keys,
/// enum names, integer widths and the `writeback_penalty` / `policy` key
/// pairing. Every rule on a value (ranges, sizes, empty axes, task names,
/// cross-field constraints) is CampaignSpec::validate()'s alone; the reader
/// reports its violation at the line the violated field's path reaches in
/// the document. Either way the SpecError carries the source name, the line
/// and the field path of the offence. A spec file that loads passes
/// validate() by construction, so expand_campaign's abort on an invalid
/// spec can never fire on user input.
///
/// Round-trip contract: for any valid spec S, parsing spec_to_json(S)
/// yields a spec with the same campaign_spec_key — i.e. the file format
/// captures every field that influences campaign results. The shipped
/// specs under specs/ rely on this to be byte-equivalent stand-ins for the
/// programmatic campaigns they replaced (tests/spec_io_test.cpp pins both
/// directions).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "engine/campaign.hpp"
#include "engine/report.hpp"

namespace pwcet {

/// Error raised for any malformed spec file. what() is a ready-to-print,
/// single-line diagnostic of the form
///   `<source>:<line>: <problem> (field "<path>")`.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A parsed spec file: the campaign plus the file's display metadata
/// (`name`, `notes`, `view`), which never influence results or store keys.
struct SpecDocument {
  std::string name;   ///< optional human-readable title ("" if absent)
  std::string notes;  ///< optional free-text description ("" if absent)
  CampaignSpec spec;  ///< validated campaign, ready for run_campaign
  /// Optional paper-style table over the report (`pwcet run --format
  /// table`), resolved against `spec`'s axes.
  std::optional<SpecView> view;
};

/// Parses a spec from JSON text. `source` names the origin in diagnostics
/// (a file path, or something like "<inline>" for tests).
/// \throws SpecError on any syntactic or semantic problem.
SpecDocument parse_spec(const std::string& text, const std::string& source);

/// Reads and parses a spec file.
/// \throws SpecError if the file cannot be read or does not parse.
SpecDocument load_spec(const std::string& path);

/// Serializes a spec to canonical JSON (2-space indent, fixed key order,
/// doubles in their shortest decimal form that still round-trips
/// bit-exactly). `name` and `notes` are emitted only when non-empty,
/// `view` only when set; it must be resolved against `spec`.
std::string spec_to_json(const CampaignSpec& spec, const std::string& name = "",
                         const std::string& notes = "",
                         const std::optional<SpecView>& view = std::nullopt);

}  // namespace pwcet
