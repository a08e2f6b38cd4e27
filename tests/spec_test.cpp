#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/oracle_registry.hpp"
#include "core/preference.hpp"
#include "geo/city_db.hpp"
#include "sim/scenarios.hpp"
#include "sim/spec.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"

namespace nexit::sim {
namespace {

util::Flags kv_flags(const std::vector<std::string>& assignments) {
  return util::Flags(assignments);
}

std::string write_temp_spec(const std::string& content) {
  const std::string path =
      ::testing::TempDir() + "spec_test_" +
      std::to_string(
          ::testing::UnitTest::GetInstance()->random_seed()) +
      "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".spec";
  std::ofstream out(path);
  out << content;
  return path;
}

// --- OracleSpec / OracleRegistry ----------------------------------------

TEST(OracleSpec, ParsesAndRoundTripsTheCheatPrefix) {
  const core::OracleSpec plain = core::OracleSpec::parse("piecewise");
  EXPECT_EQ(plain.name, "piecewise");
  EXPECT_FALSE(plain.cheat);
  EXPECT_EQ(plain.to_string(), "piecewise");

  const core::OracleSpec cheat = core::OracleSpec::parse("cheat:bandwidth");
  EXPECT_EQ(cheat.name, "bandwidth");
  EXPECT_TRUE(cheat.cheat);
  EXPECT_EQ(cheat.to_string(), "cheat:bandwidth");
}

TEST(OracleRegistry, KnowsTheBuiltInOracleKinds) {
  const auto names = core::OracleRegistry::global().names();
  const std::vector<std::string> expected{"bandwidth", "bandwidth-excluded",
                                          "distance", "piecewise"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : expected) {
    const auto* entry = core::OracleRegistry::global().find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->needs_capacities, name != "distance") << name;
  }
}

TEST(OracleRegistry, BuildsCapacityFreeOraclesWithoutCapacities) {
  const core::BuiltOracle plain = core::OracleRegistry::global().build(
      {"distance", false}, {0, core::PreferenceConfig{}, nullptr});
  EXPECT_FALSE(plain.get().wants_reassignment());
  const core::BuiltOracle cheat = core::OracleRegistry::global().build(
      {"distance", true}, {1, core::PreferenceConfig{}, nullptr});
  // The decorator forwards wants_reassignment to the truthful inner oracle.
  EXPECT_FALSE(cheat.get().wants_reassignment());
}

TEST(OracleRegistry, RejectsUnknownNamesAndMissingCapacities) {
  EXPECT_THROW((void)core::OracleRegistry::global().build(
                   {"no-such-oracle", false},
                   {0, core::PreferenceConfig{}, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)core::OracleRegistry::global().build(
                   {"bandwidth", false}, {0, core::PreferenceConfig{}, nullptr}),
               std::invalid_argument);
}

// --- ExperimentSpec round-trip ------------------------------------------

TEST(ExperimentSpec, DefaultSpecRoundTripsThroughItsSerialization) {
  const ExperimentSpec original;
  ExperimentSpec reparsed;
  std::vector<std::string> lines;
  for (const auto& [key, value] : original.to_key_values())
    lines.push_back(key + "=" + value);
  reparsed.merge_from_flags(kv_flags(lines));
  EXPECT_EQ(original, reparsed);
  EXPECT_EQ(original.to_text(), reparsed.to_text());
}

// --- the key table -------------------------------------------------------

/// The spec `s` serializes to, parsed back through its own to_text().
ExperimentSpec reparse(const ExperimentSpec& s) {
  std::vector<std::string> lines;
  std::istringstream text(s.to_text());
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  ExperimentSpec reparsed;
  reparsed.merge_from_flags(kv_flags(lines));
  return reparsed;
}

/// A value of `info`'s key other than its default, derived from the
/// registry alone, so a key added to the table is covered here unasked.
std::string non_default_value(const SpecKeyInfo& info) {
  const std::string& d = info.default_value;
  if (info.type == "bool") return d == "true" ? "false" : "true";
  if (info.type == "choice") {
    // "one of {a, b, c}"
    std::istringstream names(
        info.constraints.substr(8, info.constraints.size() - 9));
    for (std::string name; std::getline(names, name, ',');) {
      name.erase(0, name.find_first_not_of(' '));
      if (name != d) return name;
    }
  }
  if (info.type == "oracle") return "cheat:piecewise";
  if (info.type == "events") return "kill@3/1,resume@5/1";
  if (info.type == "list") return "1,2";
  if (info.type == "string") return "out/dir";
  if (info.type == "double") return d == "0.5" ? "0.25" : "0.5";
  const std::int64_t v = std::stoll(d);  // count / int: one step inside
  return std::to_string(!info.range || static_cast<double>(v + 1) <=
                                           info.range->hi
                            ? v + 1
                            : v - 1);
}

TEST(SpecKeyTable, EveryKeyParsesIntoItsOwnFieldAndRoundTrips) {
  // For each scalar key, a non-default value set through the parser must
  // read back through value_of, mark the key overridden, move no other key,
  // and survive a to_text() round trip. A row bound to the wrong field, two
  // rows sharing one, or a key nothing parses all fail here. A sweep-only
  // axis has no field; the preset whose table iterates it must own it, and
  // its default, its variant table and the owner's declared axis must list
  // the same variants in the same order.
  const ExperimentSpec defaults;
  std::vector<std::string> every_key;
  for (const SpecKeyInfo& info : spec_key_registry()) {
    if (info.sweep_only) {
      const ScenarioPreset* owner = find_scenario(info.owner_scenario);
      ASSERT_NE(owner, nullptr) << info.key;
      ASSERT_NE(owner->axis, nullptr) << info.key;
      EXPECT_EQ(owner->axis, info.key) << owner->name << " must own it";
      std::vector<std::string> names;
      for (const AxisVariant& variant : info.variants) {
        names.push_back(variant.name);
        EXPECT_FALSE(variant.label.empty()) << variant.name;
      }
      std::string joined;
      for (const std::string& name : names)
        joined += (joined.empty() ? "" : ",") + name;
      EXPECT_EQ(info.default_value, joined) << info.key;
      const ExperimentSpec owned = preset_spec(*owner);
      const SweepAxis* declared = owned.axis(info.key);
      ASSERT_NE(declared, nullptr) << info.key;
      EXPECT_EQ(declared->values, names) << info.key;
      continue;
    }
    const std::string value = non_default_value(info);
    ASSERT_NE(value, info.default_value) << info.key;
    ExperimentSpec s;
    s.merge_from_flags(kv_flags({info.key + "=" + value}));
    EXPECT_EQ(s.value_of(info.key), value) << info.key;
    EXPECT_EQ(s.overridden, std::set<std::string>{info.key});
    for (const auto& [key, v] : s.to_key_values()) {
      if (key == info.key) continue;
      EXPECT_EQ(v, defaults.value_of(key)) << info.key << " moved " << key;
    }
    EXPECT_EQ(reparse(s), s) << info.key;
    every_key.push_back(info.key + "=" + value);
  }

  // All of them at once: the fully non-default spec.
  ExperimentSpec all;
  all.merge_from_flags(kv_flags(every_key));
  for (const std::string& assignment : every_key) {
    const std::size_t eq = assignment.find('=');
    EXPECT_EQ(all.value_of(assignment.substr(0, eq)),
              assignment.substr(eq + 1));
  }
  EXPECT_EQ(all.overridden.size(), every_key.size());
  EXPECT_EQ(reparse(all), all);
  EXPECT_EQ(reparse(all).to_text(), all.to_text());
}

TEST(SpecDeathTest, EveryBoundedKeyRejectsAValueJustAboveItsRange) {
  for (const SpecKeyInfo& info : spec_key_registry()) {
    if (!info.range) continue;
    char above[32];
    if (info.type == "double") {
      std::snprintf(above, sizeof above, "%.17g",
                    std::nextafter(info.range->hi, HUGE_VAL));
    } else {
      std::snprintf(above, sizeof above, "%lld",
                    static_cast<long long>(info.range->hi) + 1);
    }
    ExperimentSpec s;
    EXPECT_EXIT(s.merge_from_flags(kv_flags({info.key + "=" + above})),
                ::testing::ExitedWithCode(2), "--" + info.key + " expects")
        << info.key << "=" << above;
  }
}

constexpr double kJustBelowZero = -std::numeric_limits<double>::denorm_min();

TEST(SpecKeyTable, ValidateHoldsDirectlySetFieldsToTheirLowerBound) {
  // Presets and tests set fields without the parser; validate() reads the
  // same bounds, so a value just below a row's range fails it, naming the
  // key.
  using Setter = void (*)(ExperimentSpec&);
  const std::map<std::string, Setter> just_below = {
      {"isps", [](ExperimentSpec& s) { s.isps = 1; }},
      {"pairs", [](ExperimentSpec& s) { s.pairs = 0; }},
      {"pop-min", [](ExperimentSpec& s) { s.pop_min = 1; }},
      {"pop-max", [](ExperimentSpec& s) { s.pop_max = 1; }},
      {"pref-range", [](ExperimentSpec& s) { s.pref_range = 0; }},
      {"reassign", [](ExperimentSpec& s) { s.reassign = kJustBelowZero; }},
      {"verify-incremental",
       [](ExperimentSpec& s) { s.verify_incremental = -2; }},
      {"groups", [](ExperimentSpec& s) { s.groups = 0; }},
      {"runtime.min-links", [](ExperimentSpec& s) { s.runtime.min_links = 0; }},
      {"runtime.max-attempts",
       [](ExperimentSpec& s) { s.runtime.max_attempts = 0; }},
      {"runtime.drop",
       [](ExperimentSpec& s) { s.runtime.drop = kJustBelowZero; }},
      {"runtime.corrupt",
       [](ExperimentSpec& s) { s.runtime.corrupt = kJustBelowZero; }},
  };
  std::size_t checked = 0;
  for (const SpecKeyInfo& info : spec_key_registry()) {
    if (!info.range) continue;
    const auto it = just_below.find(info.key);
    if (it == just_below.end()) {
      // Only an unsigned count bounded at 0 has no value below its range.
      EXPECT_TRUE(info.type == "count" && info.range->lo == 0)
          << info.key << " needs a just-below setter here";
      continue;
    }
    ExperimentSpec s;
    it->second(s);
    std::string error;
    EXPECT_FALSE(s.validate(&error)) << info.key;
    EXPECT_EQ(error.rfind(info.key + ": ", 0), 0u) << error;
    ++checked;
  }
  EXPECT_EQ(checked, just_below.size()) << "a setter names an unbounded key";
}

TEST(SpecDeathTest, OutOfRangeValuesExitTwoNamingTheKey) {
  // Values no engine can honour: a pop count outside [2, cities] throws in
  // the topology generator, and a fraction outside [0, 1] would run while
  // the record claims a value that never took effect.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"pop-min=0"}, "pop-min"},
      {{"pop-min=1", "pop-max=1"}, "pop-min"},
      {{"pop-max=150"}, "pop-max"},
      {{"reassign=-1"}, "reassign"},
      {{"reassign=7"}, "reassign"},
      {{"runtime.drop=5"}, "runtime.drop"},
      {{"runtime.drop=-0.5"}, "runtime.drop"},
      {{"runtime.corrupt=3"}, "runtime.corrupt"},
  };
  for (const auto& [assignments, key] : cases) {
    ExperimentSpec s;
    EXPECT_EXIT(s.merge_from_flags(kv_flags(assignments)),
                ::testing::ExitedWithCode(2), "--" + key + " expects")
        << assignments.front();
  }

  // The values the shipped specs and sweeps use stay legal...
  ExperimentSpec legal;
  legal.merge_from_flags(kv_flags({"experiment=runtime", "runtime.drop=1.0",
                                   "reassign=0",
                                   "sweep.reassign=0.025,0.05,0.1"}));
  std::string error;
  EXPECT_TRUE(legal.validate(&error)) << error;
  // ...and a swept value outside the bounds fails before any point runs.
  legal.merge_from_flags(kv_flags({"sweep.reassign=0.5,7"}));
  EXPECT_FALSE(legal.validate(&error));
  EXPECT_EQ(error.rfind("sweep.reassign: ", 0), 0u) << error;
}

TEST(ExperimentSpec, PrefRangeEdgesParseValidateAndQuantize) {
  // [1, kMaxPrefRange] keeps 2P, the summed disclosed gains and the
  // position index's closed-key sentinel inside int; beyond it a run used
  // to exit 0 having negotiated nothing.
  for (const int p : {1, core::kMaxPrefRange}) {
    ExperimentSpec s;
    s.merge_from_flags(kv_flags({"pref-range=" + std::to_string(p)}));
    std::string error;
    ASSERT_TRUE(s.validate(&error)) << error;
    const core::PreferenceConfig prefs = s.to_negotiation_config().preferences;
    EXPECT_EQ(prefs.range, p);
    EXPECT_EQ(core::quantize_deltas({{1e9, -1e9, 0.0}}, prefs, 1.0),
              (core::PreferenceList{{p, -p, 0}}));
  }
  const std::string range =
      "\\[1, " + std::to_string(core::kMaxPrefRange) + "\\]";
  for (const std::string& value :
       {std::string("0"), std::to_string(core::kMaxPrefRange + 1),
        std::string("2000000000")}) {
    ExperimentSpec s;
    EXPECT_EXIT(s.merge_from_flags(kv_flags({"pref-range=" + value})),
                ::testing::ExitedWithCode(2), "--pref-range expects.*" + range)
        << value;
  }
  ExperimentSpec direct;
  direct.pref_range = core::kMaxPrefRange + 1;
  std::string error;
  EXPECT_FALSE(direct.validate(&error));
  EXPECT_EQ(error.rfind("pref-range: ", 0), 0u) << error;
}

TEST(ExperimentSpec, PopCountEdgesParseValidateAndBuild) {
  // The generator places each PoP in a distinct city of the built-in
  // database, so [2, cities] is exactly the range it accepts.
  const std::size_t cities = geo::CityDb::builtin().size();
  ExperimentSpec s;
  s.merge_from_flags(
      kv_flags({"pop-min=2", "pop-max=" + std::to_string(cities)}));
  std::string error;
  ASSERT_TRUE(s.validate(&error)) << error;
  EXPECT_NO_THROW(topology::TopologyGenerator(geo::CityDb::builtin(),
                                              s.universe().generator));
  const std::string range = "\\[2, " + std::to_string(cities) + "\\]";
  EXPECT_EXIT(s.merge_from_flags(kv_flags({"pop-min=1"})),
              ::testing::ExitedWithCode(2), "--pop-min expects.*" + range);
  EXPECT_EXIT(s.merge_from_flags(
                  kv_flags({"pop-max=" + std::to_string(cities + 1)})),
              ::testing::ExitedWithCode(2), "--pop-max expects.*" + range);
}

TEST(ExperimentSpec, SpecFileRoundTripsThroughMergeFromFile) {
  ExperimentSpec s;
  s.experiment = ExperimentKind::kBandwidth;
  s.objective[0] = {"piecewise", true};
  s.objective[1] = {"distance", false};
  s.isps = 21;
  const std::string path = write_temp_spec(
      "# comment line\n\n  " + s.to_text());  // leading blanks + comment
  ExperimentSpec loaded;
  loaded.merge_from_file(path);
  EXPECT_EQ(s, loaded);
  std::remove(path.c_str());
}

TEST(ExperimentSpec, FlagsOverrideOnlyTheKeysTheyMention) {
  ExperimentSpec s;
  s.pairs = 60;  // a preset default
  const char* argv[] = {"prog", "--isps=9", "--oracle-b=cheat:distance"};
  util::Flags flags(3, const_cast<char**>(argv));
  s.merge_from_flags(flags);
  EXPECT_EQ(s.isps, 9u);
  EXPECT_EQ(s.pairs, 60u);  // untouched
  EXPECT_EQ(s.objective[1], (core::OracleSpec{"distance", true}));
  EXPECT_EQ(s.objective[0], (core::OracleSpec{"default", false}));
}

// --- validation ----------------------------------------------------------

TEST(ExperimentSpec, ValidateResolvesDefaultObjectivesPerExperiment) {
  ExperimentSpec s;
  std::string error;
  EXPECT_TRUE(s.validate(&error)) << error;
  EXPECT_EQ(s.resolved_objective(0).name, "distance");
  s.experiment = ExperimentKind::kBandwidth;
  EXPECT_TRUE(s.validate(&error)) << error;
  EXPECT_EQ(s.resolved_objective(0).name, "bandwidth");
}

TEST(ExperimentSpec, ValidateRejectsUnknownOracleListingValidNames) {
  ExperimentSpec s;
  s.objective[0] = {"bandwith", false};  // typo
  std::string error;
  EXPECT_FALSE(s.validate(&error));
  EXPECT_NE(error.find("unknown oracle 'bandwith'"), std::string::npos)
      << error;
  for (const std::string& name : core::OracleRegistry::global().names())
    EXPECT_NE(error.find(name), std::string::npos) << error;
}

TEST(ExperimentSpec, ValidateRejectsLoadOraclesInTheDistanceExperiment) {
  ExperimentSpec s;
  s.objective[1] = {"bandwidth", false};
  std::string error;
  EXPECT_FALSE(s.validate(&error));
  EXPECT_NE(error.find("needs link capacities"), std::string::npos) << error;
  // The same objective is fine under the bandwidth experiment.
  s.experiment = ExperimentKind::kBandwidth;
  EXPECT_TRUE(s.validate(&error)) << error;
}

TEST(ExperimentSpec, ValidateRejectsExplicitInertKeys) {
  // --unilateral=true on a distance run would be silently ignored; that
  // must error like any other misconfiguration.
  ExperimentSpec s;
  const char* argv[] = {"prog", "--unilateral=true"};
  util::Flags flags(2, const_cast<char**>(argv));
  s.merge_from_flags(flags);
  std::string error;
  EXPECT_FALSE(s.validate(&error));
  EXPECT_NE(error.find("unilateral"), std::string::npos) << error;
  EXPECT_NE(error.find("experiment=bandwidth"), std::string::npos) << error;

  // The same key is fine when the experiment kind consumes it...
  ExperimentSpec bw;
  const char* bw_argv[] = {"prog", "--experiment=bandwidth",
                           "--unilateral=true"};
  util::Flags bw_flags(3, const_cast<char**>(bw_argv));
  bw.merge_from_flags(bw_flags);
  EXPECT_TRUE(bw.validate(&error)) << error;

  // ...and bandwidth runs reject explicit distance-only keys in turn.
  ExperimentSpec bw_groups;
  const char* g_argv[] = {"prog", "--experiment=bandwidth", "--groups=4"};
  util::Flags g_flags(3, const_cast<char**>(g_argv));
  bw_groups.merge_from_flags(g_flags);
  EXPECT_FALSE(bw_groups.validate(&error));
  EXPECT_NE(error.find("groups"), std::string::npos) << error;
}

TEST(ExperimentSpec, SerializedSpecsReloadDespiteInertDefaultKeys) {
  // A serialized spec spells out every key, including inert ones at their
  // defaults; loading it back (which marks them all overridden) must still
  // validate — otherwise the JSON record's spec section would not be
  // reproducible.
  ExperimentSpec s;  // distance defaults
  const std::string path = write_temp_spec(s.to_text());
  ExperimentSpec loaded;
  loaded.merge_from_file(path);
  std::string error;
  EXPECT_TRUE(loaded.validate(&error)) << error;
  EXPECT_EQ(s, loaded);
  std::remove(path.c_str());
}

TEST(ExperimentSpec, ValidateRejectsDegenerateKnobs) {
  ExperimentSpec zero_groups;
  zero_groups.groups = 0;
  std::string error;
  EXPECT_FALSE(zero_groups.validate(&error));
  EXPECT_NE(error.find("groups"), std::string::npos);

  ExperimentSpec bad_pops;
  bad_pops.pop_min = 9;
  bad_pops.pop_max = 4;
  EXPECT_FALSE(bad_pops.validate(&error));
  EXPECT_NE(error.find("pop-min"), std::string::npos);

  // A universe that cannot yield samples must be rejected up front — a
  // run over it would print NaN percentages and exit 0.
  ExperimentSpec no_pairs;
  no_pairs.pairs = 0;
  EXPECT_FALSE(no_pairs.validate(&error));
  EXPECT_NE(error.find("pairs"), std::string::npos);

  ExperimentSpec one_isp;
  one_isp.isps = 1;
  EXPECT_FALSE(one_isp.validate(&error));
  EXPECT_NE(error.find("isps"), std::string::npos);
}

using SpecDeathTest = ::testing::Test;

TEST(SpecDeathTest, UnknownSpecFileKeyExitsListingValidKeys) {
  const std::string path = write_temp_spec("isps=8\nispz=9\n");
  ExperimentSpec s;
  EXPECT_EXIT(s.merge_from_file(path), ::testing::ExitedWithCode(2),
              "unknown key: ispz");
  std::remove(path.c_str());
}

TEST(SpecDeathTest, MalformedSpecFileValueExitsNamingTheKeyAndTheFile) {
  const std::string path = write_temp_spec("isps=twelve\n");
  ExperimentSpec s;
  // The diagnostic must point at the spec file, not at a command-line flag
  // the user never typed.
  EXPECT_EXIT(s.merge_from_file(path), ::testing::ExitedWithCode(2),
              "--isps expects an integer.*in spec file");
  std::remove(path.c_str());
}

TEST(SpecDeathTest, OutOfSetSpecFileChoiceNamesTheFileToo) {
  const std::string path = write_temp_spec("turn=bogus\n");
  ExperimentSpec s;
  EXPECT_EXIT(s.merge_from_file(path), ::testing::ExitedWithCode(2),
              "--turn expects one of.*in spec file");
  std::remove(path.c_str());
}

TEST(SpecDeathTest, SpecFileLineWithoutAssignmentExits) {
  const std::string path = write_temp_spec("isps\n");
  ExperimentSpec s;
  EXPECT_EXIT(s.merge_from_file(path), ::testing::ExitedWithCode(2),
              "expected key=value");
  std::remove(path.c_str());
}

TEST(SpecDeathTest, OutOfSetChoiceExitsListingTheChoices) {
  ExperimentSpec s;
  const char* argv[] = {"prog", "--experiment=bandwidht"};
  util::Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(s.merge_from_flags(flags), ::testing::ExitedWithCode(2),
              "expects one of \\{distance, bandwidth, runtime\\}");
}

// --- scenario presets ----------------------------------------------------

TEST(ScenarioRegistry, EveryPresetSpecValidatesAndRoundTrips) {
  for (const ScenarioPreset& preset : scenario_registry()) {
    const ExperimentSpec spec = preset_spec(preset);
    std::string error;
    EXPECT_TRUE(spec.validate(&error)) << preset.name << ": " << error;

    ExperimentSpec reparsed;
    std::vector<std::string> lines;
    for (const auto& [key, value] : spec.to_key_values())
      lines.push_back(key + "=" + value);
    reparsed.merge_from_flags(kv_flags(lines));
    EXPECT_EQ(spec, reparsed) << preset.name
                              << ": serialize/parse round trip diverged";
  }
}

TEST(ExperimentSpec, SeedRoundTripsThroughItsSignedSpelling) {
  // get_int parses int64, so a seed with the top bit set must serialize as
  // its two's-complement twin to stay reloadable from a record.
  const auto reload = [](const ExperimentSpec& spec) {
    ExperimentSpec reparsed;
    std::vector<std::string> lines;
    for (const auto& [key, value] : spec.to_key_values())
      lines.push_back(key + "=" + value);
    reparsed.merge_from_flags(kv_flags(lines));
    return reparsed;
  };
  ExperimentSpec s;
  s.seed = 0xffffffffffffffffull;
  EXPECT_EQ(reload(s).seed, s.seed);
  EXPECT_EQ(s, reload(s));
  s.seed = 0x8000000000000000ull;
  EXPECT_EQ(reload(s).seed, s.seed);
}

TEST(ScenarioRegistry, PresetIgnoredKeysAreRejectedNotSwallowed) {
  // table3 only consumes --seed; anything else exits 2 instead of
  // silently running unchanged.
  const ScenarioPreset* table3 = find_scenario("table3");
  ASSERT_NE(table3, nullptr);
  const char* argv[] = {"prog", "--isps=99"};
  util::Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(run_scenario(*table3, flags), 2);

  const ScenarioPreset* pref_range = find_scenario("abl_pref_range");
  ASSERT_NE(pref_range, nullptr);
  const char* sweep_argv[] = {"prog", "--pref-range=5"};
  util::Flags sweep_flags(2, const_cast<char**>(sweep_argv));
  EXPECT_EQ(run_scenario(*pref_range, sweep_flags), 2);

  // Every engine-pinned preset must refuse --experiment: each run function
  // hard-codes its engine, so the override would either assert or silently
  // run the wrong experiment under the figure's name.
  for (const ScenarioPreset& preset : scenario_registry()) {
    if (std::string(preset.name) == "custom") continue;
    const ExperimentSpec tuned = preset_spec(preset);
    const std::string other =
        tuned.experiment == ExperimentKind::kDistance ? "bandwidth"
                                                      : "distance";
    const std::string flag = "--experiment=" + other;
    const char* argv2[] = {"prog", flag.c_str()};
    util::Flags flags2(2, const_cast<char**>(argv2));
    EXPECT_EQ(run_scenario(preset, flags2), 2) << preset.name;
  }

  // fig8's analysis hard-depends on the unilateral series; fig5's on the
  // flow-pair baselines. Turning them off must error, not print nonsense.
  const char* uni_argv[] = {"prog", "--unilateral=false"};
  util::Flags uni_flags(2, const_cast<char**>(uni_argv));
  EXPECT_EQ(run_scenario(*find_scenario("fig8"), uni_flags), 2);
  const char* fb_argv[] = {"prog", "--flow-baselines=false"};
  util::Flags fb_flags(2, const_cast<char**>(fb_argv));
  EXPECT_EQ(run_scenario(*find_scenario("fig5"), fb_flags), 2);
}

TEST(ScenarioRegistry, UnusableSnapshotDirExitsTwoBeforeAnySessionRuns) {
  // A regular file where the journal mirror's parent directory should be:
  // exit 2 like an unwritable --json, not a filesystem exception mid-run.
  const std::string file = write_temp_spec("");
  const ScenarioPreset* runtime = find_scenario("runtime");
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(run_scenario(*runtime,
                         kv_flags({"runtime.sessions=4",
                                   "runtime.events=kill@3/0,resume@5/0",
                                   "runtime.snapshot-dir=" + file + "/sub"})),
            2);
  std::remove(file.c_str());
}

TEST(ScenarioRegistry, CheatingScenariosOwnTheCheatAxis) {
  // fig10/fig11 compare both-truthful against one-cheater, so an explicit
  // cheat: objective cannot mean anything — honouring it would make the
  // "both-truthful" arm cheat, stripping it would swallow the flag. Both
  // presets must reject it outright (either side).
  for (const char* name : {"fig10", "fig11"}) {
    const ScenarioPreset* preset = find_scenario(name);
    ASSERT_NE(preset, nullptr) << name;
    const char* a_argv[] = {"prog", "--isps=12", "--pairs=3",
                            "--oracle-a=cheat:default"};
    util::Flags a_flags(4, const_cast<char**>(a_argv));
    EXPECT_EQ(run_scenario(*preset, a_flags), 2) << name;
    const char* b_argv[] = {"prog", "--isps=12", "--pairs=3",
                            "--oracle-b=cheat:default"};
    util::Flags b_flags(4, const_cast<char**>(b_argv));
    EXPECT_EQ(run_scenario(*preset, b_flags), 2) << name;
  }
  // The base oracle is still a real knob: fig10 with a plain non-default
  // base runs fine (cheat is applied by the scenario itself).
  const ScenarioPreset* fig10 = find_scenario("fig10");
  const char* ok_argv[] = {"prog", "--isps=12", "--pairs=2"};
  util::Flags ok_flags(3, const_cast<char**>(ok_argv));
  EXPECT_EQ(run_scenario(*fig10, ok_flags), 0);
}

TEST(ScenarioRegistry, NamesAreUniqueAndFindable) {
  const auto names = scenario_names();
  for (const std::string& name : names) {
    const ScenarioPreset* preset = find_scenario(name);
    ASSERT_NE(preset, nullptr) << name;
    EXPECT_EQ(preset->name, name);
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  // Every paper figure/ablation is registered.
  for (const char* required :
       {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "table3", "abl_destination_based", "abl_flow_fraction",
        "abl_group_negotiation", "abl_ix_count", "abl_models", "abl_policies",
        "abl_pref_range", "custom",
        // The spec-driven additions: declared-axis figures and the runtime
        // timelines behind the same registry.
        "fig4_sweep", "fig7_sweep", "runtime", "runtime_churn"}) {
    EXPECT_NE(find_scenario(required), nullptr) << required;
  }
}

// --- spec round trips through the engines ---------------------------------
// A serialize/parse round trip must not perturb an engine outcome. The
// outcomes themselves are pinned by tests/golden (fig4, fig7, fig9, fig10,
// abl_models).

ExperimentSpec small(ExperimentSpec spec) {
  spec.isps = 14;
  spec.pairs = 4;
  return spec;
}

ExperimentSpec round_tripped(const ExperimentSpec& spec) {
  ExperimentSpec reparsed;
  std::vector<std::string> lines;
  for (const auto& [key, value] : spec.to_key_values())
    lines.push_back(key + "=" + value);
  reparsed.merge_from_flags(kv_flags(lines));
  return reparsed;
}

template <typename Run>
void expect_round_trip_keeps_digest(const ExperimentSpec& spec, Run run) {
  ASSERT_TRUE(spec.validate(nullptr));
  const auto samples = run(spec);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(digest_samples(samples), digest_samples(run(round_tripped(spec))));
}

TEST(SpecDigest, DistanceSpecRoundTripKeepsDigest) {
  expect_round_trip_keeps_digest(small(ExperimentSpec{}),
                                 run_distance_experiment);
}

TEST(SpecDigest, CheatingSpecRoundTripKeepsDigest) {
  ExperimentSpec spec = small(ExperimentSpec{});
  spec.objective[0] = {"default", true};  // fig10's cheating arm
  expect_round_trip_keeps_digest(spec, run_distance_experiment);
}

TEST(SpecDigest, BandwidthSpecRoundTripKeepsDigest) {
  ExperimentSpec spec = small(ExperimentSpec{});
  spec.experiment = ExperimentKind::kBandwidth;
  expect_round_trip_keeps_digest(spec, run_bandwidth_experiment);
}

TEST(SpecDigest, DiverseAndPiecewiseSpecsRoundTripKeepDigest) {
  // fig9's diverse-criteria arm.
  ExperimentSpec diverse = small(ExperimentSpec{});
  diverse.experiment = ExperimentKind::kBandwidth;
  diverse.objective[1] = {"distance", false};
  expect_round_trip_keeps_digest(diverse, run_bandwidth_experiment);

  // abl_models' piecewise arm, composed with a cheating upstream — the
  // "cheating + piecewise + diverse criteria" composition, driven purely
  // from a (parsed) spec.
  ExperimentSpec composed = diverse;
  composed.objective[0] = {"piecewise", true};
  expect_round_trip_keeps_digest(composed, run_bandwidth_experiment);
}

TEST(SpecDigest, ExperimentEnginesRejectUnknownOracles) {
  // Fields set directly: the engines' own validate() call must throw, with
  // validate()'s message.
  const auto expect_rejected = [](const ExperimentSpec& spec, auto run) {
    std::string error;
    ASSERT_FALSE(spec.validate(&error));
    try {
      (void)run(spec);
      ADD_FAILURE() << "no throw for: " << error;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), error);
    }
  };

  ExperimentSpec distance;
  distance.isps = 10;
  distance.pairs = 1;
  distance.objective[0] = {"bandwidth", false};  // needs capacities
  expect_rejected(distance, run_distance_experiment);

  ExperimentSpec bandwidth = distance;
  bandwidth.experiment = ExperimentKind::kBandwidth;
  bandwidth.objective[1] = {"no-such", false};
  expect_rejected(bandwidth, run_bandwidth_experiment);
}

}  // namespace
}  // namespace nexit::sim
