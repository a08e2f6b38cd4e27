// Tests for the determinism lint: every rule is proven by a fixture it
// flags (tools/lint/fixtures/*_bad.cpp), every allow() annotation fixture
// suppresses cleanly (*_allowed.cpp), and every near-miss stays unflagged
// (*_clean.cpp). Expected findings are written in the fixtures themselves
// as `// HIT: <rule>` (same line) / `// HIT-NEXT: <rule>` (next line)
// markers, so fixture and expectation cannot drift apart.
//
// The cross-TU passes are proven the same way by the multi-file groups
// under fixtures/project/: files named `<group>__<part>.cpp` are linted
// together through lint_project() with every pass on, and the group's
// `_bad` / `_allowed` / `_clean` suffix carries the same contract as
// above. The call-graph indexer is pinned by fixtures/project/
// callgraph_names.cpp, whose `// DEF:` markers must match the indexed
// symbols exactly — in both directions.

#include "lint_core.hpp"
#include "lint_graph.hpp"
#include "lint_sarif.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using nexit::lint::Finding;
using nexit::lint::lint_project;
using nexit::lint::lint_source;
using nexit::lint::ProjectOptions;
using nexit::lint::SourceFile;

namespace {

#ifndef LINT_FIXTURE_DIR
#error "build must define LINT_FIXTURE_DIR"
#endif

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path fixture_dir() { return fs::path(LINT_FIXTURE_DIR); }

using LineRule = std::pair<int, std::string>;

/// Expected findings of a fixture, read from its HIT/HIT-NEXT markers.
std::set<LineRule> expected_hits(const std::string& content) {
  std::set<LineRule> hits;
  std::istringstream in(content);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    for (const auto& [tag, offset] :
         std::vector<std::pair<std::string, int>>{{"HIT-NEXT:", 1},
                                                  {"HIT:", 0}}) {
      const std::size_t at = line.find(tag);
      if (at == std::string::npos) continue;
      std::istringstream rest(line.substr(at + tag.size()));
      std::string rule;
      rest >> rule;
      hits.insert({lineno + offset, rule});
      break;  // HIT-NEXT contains "HIT:" as a substring; match once
    }
  }
  return hits;
}

std::set<LineRule> unsuppressed(const std::vector<Finding>& findings) {
  std::set<LineRule> got;
  for (const Finding& f : findings)
    if (!f.suppressed) got.insert({f.line, f.rule});
  return got;
}

std::vector<fs::path> fixtures_matching(const std::string& suffix) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(fixture_dir())) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  EXPECT_FALSE(out.empty()) << "no fixtures matching *" << suffix;
  return out;
}

// ---------------------------------------------------------------------------
// Project fixtures: multi-file groups under fixtures/project/, linted
// together through lint_project() with every cross-TU pass enabled.
// `<group>__<part>.cpp` files form one group; a single `<group>.cpp` is a
// group of one. The group name's `_bad` / `_allowed` / `_clean` suffix
// selects the contract.
// ---------------------------------------------------------------------------

fs::path project_dir() { return fixture_dir() / "project"; }

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Group name -> sorted file paths. Groups are split on the `__` part
/// separator; the callgraph fixture (no _bad/_allowed/_clean suffix) comes
/// along and is simply never selected by the sweep tests.
std::map<std::string, std::vector<fs::path>> project_groups() {
  std::map<std::string, std::vector<fs::path>> groups;
  for (const auto& e : fs::directory_iterator(project_dir())) {
    if (!e.is_regular_file()) continue;
    std::string stem = e.path().stem().string();
    const std::size_t sep = stem.find("__");
    if (sep != std::string::npos) stem = stem.substr(0, sep);
    groups[stem].push_back(e.path());
  }
  for (auto& [name, paths] : groups) std::sort(paths.begin(), paths.end());
  EXPECT_FALSE(groups.empty()) << "no project fixtures under " << project_dir();
  return groups;
}

std::vector<SourceFile> load_group(const std::vector<fs::path>& paths) {
  std::vector<SourceFile> files;
  for (const fs::path& p : paths)
    files.push_back({p.filename().string(), read_file(p), ""});
  return files;
}

constexpr ProjectOptions kAllPasses{true, true};

using FileLineRule = std::tuple<std::string, int, std::string>;

std::set<FileLineRule> group_expected_hits(const std::vector<SourceFile>& fs) {
  std::set<FileLineRule> want;
  for (const SourceFile& f : fs)
    for (const auto& [line, rule] : expected_hits(f.content))
      want.insert({f.path, line, rule});
  return want;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fixture sweep: *_bad flags exactly its markers, *_allowed suppresses
// everything, *_clean is silent.
// ---------------------------------------------------------------------------

TEST(LintFixtures, BadFixturesFlagExactlyTheirMarkedLines) {
  for (const fs::path& p : fixtures_matching("_bad.cpp")) {
    const std::string content = read_file(p);
    const std::set<LineRule> want = expected_hits(content);
    ASSERT_FALSE(want.empty()) << p << " has no HIT markers";
    const std::set<LineRule> got =
        unsuppressed(lint_source(p.filename().string(), content));
    EXPECT_EQ(got, want) << "in fixture " << p;
  }
}

TEST(LintFixtures, AllowedFixturesAreFullySuppressed) {
  for (const fs::path& p : fixtures_matching("_allowed.cpp")) {
    const std::string content = read_file(p);
    const auto findings = lint_source(p.filename().string(), content);
    std::size_t suppressed = 0;
    for (const Finding& f : findings) {
      EXPECT_TRUE(f.suppressed)
          << p << ":" << f.line << " [" << f.rule << "] " << f.message;
      if (f.suppressed) {
        ++suppressed;
        EXPECT_FALSE(f.allow_reason.empty());
      }
    }
    EXPECT_GT(suppressed, 0u) << p << " suppresses nothing — fixture rotted";
  }
}

TEST(LintFixtures, CleanFixturesProduceNoFindings) {
  for (const fs::path& p : fixtures_matching("_clean.cpp")) {
    const std::string content = read_file(p);
    for (const Finding& f : lint_source(p.filename().string(), content)) {
      ADD_FAILURE() << p << ":" << f.line << " [" << f.rule << "] "
                    << f.message;
    }
  }
}

TEST(LintFixtures, EveryRuleIsProvenByAFixture) {
  std::set<std::string> flagged;
  for (const fs::path& p : fixtures_matching("_bad.cpp"))
    for (const auto& [line, rule] : expected_hits(read_file(p)))
      flagged.insert(rule);
  // The cross-TU pass rules are proven by the multi-file groups.
  for (const auto& [name, paths] : project_groups()) {
    if (!ends_with(name, "_bad")) continue;
    for (const fs::path& p : paths)
      for (const auto& [line, rule] : expected_hits(read_file(p)))
        flagged.insert(rule);
  }
  for (const auto& rule : nexit::lint::rule_table())
    EXPECT_TRUE(flagged.count(rule.name) != 0)
        << "rule " << rule.name << " has no bad-fixture proving it fires";
}

// ---------------------------------------------------------------------------
// Project-fixture sweep: each group runs through lint_project() with every
// cross-TU pass on, under the same bad/allowed/clean contract as the
// single-file sweep. A taint group's HIT marker sits in the SOURCE file
// even when the sink lives in the other TU — that asymmetry is the point.
// ---------------------------------------------------------------------------

TEST(LintProjectFixtures, BadGroupsFlagExactlyTheirMarkedLines) {
  bool any = false;
  for (const auto& [name, paths] : project_groups()) {
    if (!ends_with(name, "_bad")) continue;
    any = true;
    const std::vector<SourceFile> files = load_group(paths);
    const std::set<FileLineRule> want = group_expected_hits(files);
    ASSERT_FALSE(want.empty()) << "group " << name << " has no HIT markers";
    std::set<FileLineRule> got;
    for (const Finding& f : lint_project(files, kAllPasses))
      if (!f.suppressed) got.insert({f.file, f.line, f.rule});
    EXPECT_EQ(got, want) << "in project group " << name;
  }
  EXPECT_TRUE(any) << "no *_bad project groups";
}

TEST(LintProjectFixtures, AllowedGroupsAreFullySuppressed) {
  bool any = false;
  for (const auto& [name, paths] : project_groups()) {
    if (!ends_with(name, "_allowed")) continue;
    any = true;
    const std::vector<SourceFile> files = load_group(paths);
    std::size_t suppressed = 0;
    for (const Finding& f : lint_project(files, kAllPasses)) {
      EXPECT_TRUE(f.suppressed)
          << name << ": " << f.file << ":" << f.line << " [" << f.rule << "] "
          << f.message;
      if (f.suppressed) {
        ++suppressed;
        EXPECT_FALSE(f.allow_reason.empty());
      }
    }
    EXPECT_GT(suppressed, 0u) << name << " suppresses nothing — group rotted";
  }
  EXPECT_TRUE(any) << "no *_allowed project groups";
}

TEST(LintProjectFixtures, CleanGroupsProduceNoFindings) {
  bool any = false;
  for (const auto& [name, paths] : project_groups()) {
    if (!ends_with(name, "_clean")) continue;
    any = true;
    const std::vector<SourceFile> files = load_group(paths);
    for (const Finding& f : lint_project(files, kAllPasses)) {
      ADD_FAILURE() << name << ": " << f.file << ":" << f.line << " ["
                    << f.rule << "] " << f.message;
    }
  }
  EXPECT_TRUE(any) << "no *_clean project groups";
}

// ---------------------------------------------------------------------------
// Call-graph indexer: the DEF markers in callgraph_names.cpp are the
// complete set of symbols the indexer must produce — missing and invented
// definitions both fail.
// ---------------------------------------------------------------------------

TEST(LintCallGraph, IndexesQualifiedAndOverloadedNames) {
  const fs::path p = project_dir() / "callgraph_names.cpp";
  const std::string content = read_file(p);

  std::multiset<std::string> want;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find("// DEF:");
    if (at == std::string::npos) continue;
    std::istringstream rest(line.substr(at + 7));
    std::string sym;
    rest >> sym;
    want.insert(sym);
  }
  ASSERT_FALSE(want.empty()) << p << " has no DEF markers";

  const std::vector<SourceFile> files = {{p.filename().string(), content, ""}};
  const nexit::lint::CallGraph graph = nexit::lint::build_call_graph(files);

  std::multiset<std::string> got;
  for (const auto& fn : graph.functions) got.insert(fn.qualified);
  EXPECT_EQ(got, want) << "indexed symbols drifted from the DEF markers";

  // Overload sets resolve as a set; suffix match crosses qualification.
  EXPECT_EQ(graph.resolve("twice").size(), 2u);
  EXPECT_EQ(graph.resolve("inner::twice").size(), 2u);
  EXPECT_EQ(graph.resolve("outer::inner::twice").size(), 2u);
  EXPECT_EQ(graph.resolve("helper").size(), 1u);
  EXPECT_EQ(graph.resolve("Widget::reset").size(), 1u);
  EXPECT_TRUE(graph.resolve("no_such_function").empty());

  // helper() calls inner::twice(2): an edge to every overload it could
  // reach, attributed to the right caller.
  int helper_idx = -1;
  for (std::size_t i = 0; i < graph.functions.size(); ++i)
    if (graph.functions[i].qualified == "outer::helper")
      helper_idx = static_cast<int>(i);
  ASSERT_GE(helper_idx, 0);
  std::size_t helper_calls_twice = 0;
  for (const auto& e : graph.edges)
    if (e.caller == helper_idx &&
        graph.functions[e.callee].name == "twice")
      ++helper_calls_twice;
  EXPECT_EQ(helper_calls_twice, 2u) << "call edge should reach both overloads";

  // The DOT export mentions every indexed symbol and is byte-stable.
  const std::string dot = nexit::lint::to_dot(graph, files);
  for (const auto& sym : std::set<std::string>(want.begin(), want.end()))
    EXPECT_NE(dot.find(sym), std::string::npos) << sym << " missing from DOT";
  EXPECT_EQ(dot, nexit::lint::to_dot(graph, files));
}

// ---------------------------------------------------------------------------
// SARIF export: 2.1.0 shape, suppressions carry the allow() reason.
// ---------------------------------------------------------------------------

TEST(LintSarif, EmitsValidShapeWithSuppressions) {
  // Lint the flagged and the waived taint group separately (the groups
  // deliberately reuse one helper name), then export one combined run —
  // so the SARIF carries both an error and a suppressed note.
  std::vector<Finding> findings;
  for (const char* group : {"taint_cross_bad", "taint_cross_allowed"}) {
    std::vector<SourceFile> files;
    for (const char* part : {"__timer.cpp", "__report.cpp"}) {
      const std::string name = std::string(group) + part;
      files.push_back({name, read_file(project_dir() / name), ""});
    }
    for (Finding& f : lint_project(files, kAllPasses))
      findings.push_back(std::move(f));
  }
  const std::string sarif = nexit::lint::to_sarif(findings);

  for (const char* needle :
       {"\"version\": \"2.1.0\"",
        "json.schemastore.org/sarif-2.1.0.json",
        "\"name\": \"determinism_lint\"",
        "\"ruleId\": \"taint-flow\"",
        "\"level\": \"error\"",   // the unwaived flow
        "\"level\": \"note\"",    // the waived flow, reported as suppressed
        "\"kind\": \"inSource\"",
        "wall-clock duration feeds a progress line only",
        "taint_cross_bad__timer.cpp",
        "\"startLine\": "})
    EXPECT_NE(sarif.find(needle), std::string::npos)
        << "SARIF output missing: " << needle;

  // Every rule of the table is declared in the driver's rule metadata.
  for (const auto& rule : nexit::lint::rule_table())
    EXPECT_NE(sarif.find("\"id\": \"" + rule.name + "\""), std::string::npos)
        << "rule " << rule.name << " missing from SARIF driver rules";

  EXPECT_EQ(sarif, nexit::lint::to_sarif(findings)) << "SARIF not byte-stable";
}

// ---------------------------------------------------------------------------
// Engine unit tests
// ---------------------------------------------------------------------------

TEST(LintEngine, RuleTableNamesAreUniqueAndKnown) {
  std::set<std::string> seen;
  for (const auto& r : nexit::lint::rule_table()) {
    EXPECT_TRUE(seen.insert(r.name).second) << "duplicate rule " << r.name;
    EXPECT_TRUE(nexit::lint::known_rule(r.name));
    EXPECT_FALSE(r.summary.empty());
    EXPECT_FALSE(r.rationale.empty());
  }
  EXPECT_FALSE(nexit::lint::known_rule("no-such-rule"));
}

TEST(LintEngine, StripPreservesLayoutAndBlanksLiterals) {
  const std::string src =
      "int a = 1; // time(nullptr)\n"
      "const char* s = \"rand()\";\n"
      "/* srand(1); */ int b = 2;\n";
  const std::string out = nexit::lint::strip_comments_and_strings(src);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int a = 1;"), std::string::npos);
  EXPECT_NE(out.find("int b = 2;"), std::string::npos);
}

TEST(LintEngine, LiteralsAndCommentsCannotTriggerRules) {
  const std::string src =
      "#include <string>\n"
      "// std::random_device in a comment\n"
      "std::string s() { return \"system_clock\"; }\n";
  EXPECT_TRUE(lint_source("x.cpp", src).empty());
}

TEST(LintEngine, CanonicalHelperFilesAreExemptByPath) {
  const std::string accum =
      "double sum(const double* xs, int n) {\n"
      "  double total = 0;\n"
      "  for (int i = 0; i < n; ++i) total += xs[i];\n"
      "  return total;\n"
      "}\n";
  EXPECT_FALSE(lint_source("src/sim/foo.cpp", accum).empty());
  EXPECT_TRUE(lint_source("src/util/stats.cpp", accum).empty());
  EXPECT_TRUE(lint_source("src/routing/loads.cpp", accum).empty());
  EXPECT_TRUE(lint_source("src/metrics/metrics.cpp", accum).empty());

  const std::string entropy = "int f() { return rand(); }\n";
  EXPECT_FALSE(lint_source("src/core/foo.cpp", entropy).empty());
  EXPECT_TRUE(lint_source("src/util/rng.cpp", entropy).empty());
  EXPECT_TRUE(lint_source("src/runtime/clock.cpp", entropy).empty());

  // The one sanctioned steady_clock site is obs::WallClock; the identical
  // snippet anywhere else is a raw-entropy finding.
  const std::string stopwatch =
      "#include <chrono>\n"
      "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_source("src/obs/wall_clock.hpp", stopwatch).empty());
  EXPECT_FALSE(lint_source("src/sim/scenarios.cpp", stopwatch).empty());
  EXPECT_FALSE(lint_source("bench/nexit_run.cpp", stopwatch).empty());
}

TEST(LintEngine, SiblingHeaderInformsFloatAccumulate) {
  const std::string header = "class M { double acc_ = 0; void tick(); };\n";
  const std::string source =
      "void M::tick() {\n"
      "  for (int i = 0; i < 3; ++i) {\n"
      "    acc_ += 0.5;\n"
      "  }\n"
      "}\n";
  // Without the header the member's type is unknown — no finding.
  EXPECT_TRUE(lint_source("src/x/m.cpp", source).empty());
  const auto findings = lint_source("src/x/m.cpp", source, header);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "float-accumulate");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintEngine, AllowOnPreviousLineSuppresses) {
  const std::string src =
      "// nexit-lint: allow(raw-entropy): seeding the demo only\n"
      "int f() { return rand(); }\n";
  const auto findings = lint_source("x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(findings[0].allow_reason, "seeding the demo only");
}

TEST(LintEngine, AllowDoesNotLeakToOtherRulesOrFarLines) {
  const std::string src =
      "// nexit-lint: allow(float-accumulate): wrong rule for the finding\n"
      "int f() { return rand(); }\n";
  const auto findings = lint_source("x.cpp", src);
  // The rand() finding stays, and the unused annotation goes stale.
  std::set<std::string> rules;
  for (const Finding& f : findings) {
    EXPECT_FALSE(f.suppressed);
    rules.insert(f.rule);
  }
  EXPECT_EQ(rules, (std::set<std::string>{"raw-entropy", "stale-allow"}));
}

TEST(LintEngine, FindingsAreSortedAndDeterministic) {
  const std::string src =
      "#include <cstdlib>\n"
      "int a() { return rand(); }\n"
      "int b() { return rand(); }\n";
  const auto f1 = lint_source("x.cpp", src);
  const auto f2 = lint_source("x.cpp", src);
  ASSERT_EQ(f1.size(), 2u);
  EXPECT_LT(f1[0].line, f1[1].line);
  ASSERT_EQ(f2.size(), f1.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].line, f2[i].line);
    EXPECT_EQ(f1[i].rule, f2[i].rule);
    EXPECT_EQ(f1[i].message, f2[i].message);
  }
}
