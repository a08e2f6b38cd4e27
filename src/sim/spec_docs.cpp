#include "sim/spec_docs.hpp"

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sim/scenarios.hpp"
#include "sim/spec.hpp"

namespace nexit::sim {

namespace {

/// Section headings keyed by the first registry key of each section; keys
/// inherit the most recent heading, so a new key lands in the right place
/// without touching this table.
const char* section_of(const std::string& key, bool sweep_only,
                       const char** current) {
  struct Break {
    const char* key;
    const char* title;
  };
  static constexpr Break kBreaks[] = {
      {"experiment", "Engine & universe"},
      {"oracle-a", "Per-side objectives"},
      {"pref-range", "Negotiation policies (paper §4)"},
      {"traffic", "Workload / capacity / failure models"},
      {"flow-baselines", "Extra series / grouping / execution"},
      {"runtime.sessions", "Runtime scenarios (`runtime.*`)"},
  };
  if (sweep_only) return *current = "Sweep-only variant axes";
  for (const Break& b : kBreaks)
    if (key == b.key) return *current = b.title;
  return *current;
}

std::string pad(const std::string& text, std::size_t width) {
  return text.size() >= width ? text + " "
                              : text + std::string(width - text.size(), ' ');
}

std::string md_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '|') out += '\\';
    out += c;
  }
  return out;
}

std::string applies_to(const SpecKeyInfo& info) {
  if (info.sweep_only) return "scenario " + info.owner_scenario;
  return kinds_label(info.kinds);
}

constexpr const char* kSweepSyntax =
    "Any scalar key (except `experiment`) can be swept: `sweep.<key>="
    "v1,v2,...` declares explicit values, `sweep.<key>=lo:hi:step` an "
    "inclusive numeric range (expanded at parse time). Multiple axes form "
    "a cross product, expanded in canonical order (axes sorted by key, "
    "rightmost varying fastest); each point runs the full scenario "
    "pipeline, gets its own JSON section and digest, and the printed "
    "outcome digest folds the per-point digests in expansion order — "
    "bit-identical for every --threads value. The axis a preset owns (the "
    "paper's own ablation sweeps) is iterated as the rows of its single "
    "table instead.";

void print_one_key(std::ostream& os, const SpecKeyInfo& info) {
  os << "  " << pad(info.sweep_only ? "sweep." + info.key : info.key, 27)
     << pad(info.type, 8) << "default="
     << (info.default_value.empty() ? "(empty)" : info.default_value) << "\n";
  os << "      " << info.doc << "\n";
  if (!info.constraints.empty()) os << "      values: " << info.constraints << "\n";
  os << "      applies to: " << applies_to(info) << "\n";
}

}  // namespace

void print_spec_help(std::ostream& os) {
  os << "spec keys — set as --key=value on any scenario, or as key=value\n"
        "lines in a --spec file; --spec-out=<file> archives the merged\n"
        "spec; --help-spec=<key> details one key; --help-spec=markdown\n"
        "emits docs/SPEC_REFERENCE.md.\n";
  const char* section = "";
  for (const SpecKeyInfo& info : spec_key_registry()) {
    const char* previous = section;
    const char* now = section_of(info.key, info.sweep_only, &section);
    if (now != previous) os << "\n" << now << "\n";
    os << "  " << pad(info.sweep_only ? "sweep." + info.key : info.key, 27)
       << pad(info.type, 8)
       << pad(info.default_value.empty() ? "(empty)" : info.default_value, 13)
       << info.doc << "\n";
  }
  os << "\nSweep axes\n  " << kSweepSyntax << "\n";
}

bool print_spec_key_help(std::ostream& os, const std::string& key) {
  const std::string bare =
      key.rfind("sweep.", 0) == 0 ? key.substr(6) : key;
  const SpecKeyInfo* info = find_spec_key(bare);
  if (info == nullptr) return false;
  print_one_key(os, *info);
  if (!info->sweep_only) {
    os << "      sweepable: "
       << (info->key == "experiment" ? "no (every preset pins its engine)"
                                     : "yes (sweep." + info->key + "=...)")
       << "\n";
  }
  return true;
}

void print_spec_reference_markdown(std::ostream& os) {
  os << "# Spec reference\n\n"
        "<!-- GENERATED FILE — do not edit. Regenerate with\n"
        "     `./build/nexit_run --help-spec=markdown > "
        "docs/SPEC_REFERENCE.md`\n"
        "     (tools/regen_docs.sh does this; CI fails on drift). -->\n\n"
        "Every experiment in this repository is described by a flat,\n"
        "serializable `sim::ExperimentSpec`. Specs layer — struct defaults,\n"
        "then the scenario preset's defaults row, then a `--spec=<file>` of\n"
        "`key=value` lines (`#` comments), then individual `--key=value`\n"
        "flags — and each layer only overrides the keys it mentions.\n"
        "Unknown keys and malformed values exit 2 with the same diagnostics\n"
        "as a typo'd flag; `--spec-out=<file>` writes the fully merged spec\n"
        "back out, and reloading it through `--spec=` reproduces the run's\n"
        "outcome digest. Keys set to a value the chosen `experiment` kind\n"
        "would silently ignore are rejected (the *applies to* column).\n\n"
        "This file is generated from the key metadata attached at\n"
        "registration (`spec_key_registry()` in `src/sim/spec.cpp`); no key\n"
        "description below is hand-written.\n";

  const char* section = "";
  for (const SpecKeyInfo& info : spec_key_registry()) {
    const char* previous = section;
    const char* now = section_of(info.key, info.sweep_only, &section);
    if (now != previous) {
      os << "\n## " << now << "\n\n";
      os << "| key | type | default | applies to | values | description |\n";
      os << "|---|---|---|---|---|---|\n";
    }
    os << "| `" << (info.sweep_only ? "sweep." + info.key : info.key)
       << "` | " << info.type << " | "
       << (info.default_value.empty() ? "*(empty)*"
                                      : "`" + info.default_value + "`")
       << " | " << md_escape(applies_to(info)) << " | "
       << (info.constraints.empty() ? "—" : md_escape(info.constraints))
       << " | " << md_escape(info.doc) << " |\n";
  }

  os << "\n## Sweep axes\n\n" << kSweepSyntax << "\n\n"
        "Scenarios that own an axis (one row of their table per value, so\n"
        "`--sweep.<axis>=...` re-declares the paper's own sweep):\n\n"
        "| scenario | owned axes |\n|---|---|\n";
  for (const ScenarioPreset& preset : scenario_registry()) {
    if (preset.axis == nullptr) continue;
    os << "| `" << preset.name << "` | `" << preset.axis << "` |\n";
  }

  os << "\n## Runtime timelines\n\n"
        "`experiment=runtime` drives the concurrent negotiation runtime\n"
        "(`src/runtime`): the universe's pairs negotiate as live sessions\n"
        "over an event loop, and `runtime.events` declares a replayable\n"
        "timeline. The grammar is the `runtime.events` row above; `fail`\n"
        "events cancel the session, re-route its flows over the surviving\n"
        "interconnections, and spawn a renegotiation of the affected flows\n"
        "with bandwidth oracles (the paper's §5.2 recipe); `churn` events\n"
        "replace the traffic matrix and renegotiate; `restart` events give\n"
        "one peer fresh channels without consuming a retry. Outcomes are\n"
        "bit-identical for every `threads` value; the printed outcome\n"
        "digest makes that checkable from the shell.\n";
}

}  // namespace nexit::sim
