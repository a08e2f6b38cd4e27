// determinism_lint — scans src/, bench/, and examples/ for code patterns
// that break the repo's bit-identity contract (see lint_core.hpp for the
// rules and the allow-annotation grammar). Beyond the line-local rules it
// runs cross-TU passes over a whole-program call graph. Run as a CTest
// test (label `lint`) and as a CI gate:
//
//   determinism_lint [--root=DIR] [--show-allowed] [passes] [files...]
//   determinism_lint --list-rules[=markdown]
//   determinism_lint --list-passes[=markdown]
//
// Passes (line-local rules always run):
//   --taint        cross-TU source->sink determinism-taint propagation
//   --locks        lock-order + unguarded worker-lambda writes
//   --dead-keys    spec_key_registry entries nothing reads
//   --all-passes   all of the above
//
// Outputs:
//   --callgraph=FILE   write the indexed call graph as Graphviz DOT
//   --sarif=FILE       write findings (incl. suppressed) as SARIF 2.1.0
//   --format=sarif     print SARIF to stdout instead of the text report
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core.hpp"
#include "lint_graph.hpp"
#include "lint_sarif.hpp"

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void print_rules_text() {
  std::cout << "determinism_lint rules (suppress with "
               "`// nexit-lint: allow(<rule>): <reason>`):\n\n";
  for (const auto& r : nexit::lint::rule_table()) {
    std::cout << "  " << r.name << "\n    flags: " << r.summary
              << "\n    why:   " << r.rationale << "\n\n";
  }
}

void print_rules_markdown() {
  std::cout << "| Rule | What it flags | Why it is a hazard |\n"
            << "| --- | --- | --- |\n";
  for (const auto& r : nexit::lint::rule_table()) {
    std::cout << "| `" << r.name << "` | " << r.summary << " | " << r.rationale
              << " |\n";
  }
}

struct PassDoc {
  const char* flag;
  const char* name;
  const char* what;
};

/// The multi-pass pipeline, in execution order. Kept here (not in
/// lint_core) because it documents CLI surface: which flag enables what.
const PassDoc kPasses[] = {
    {"(always)", "line rules",
     "the five line-local hazard rules plus the allow()-annotation "
     "meta-rules (bad-allow, stale-allow)"},
    {"(on demand)", "call-graph indexer",
     "heuristic symbol index of every function definition (qualified "
     "names, overload sets) and call site across src/ + bench/ + "
     "examples/; export with --callgraph=FILE.dot, consumed by the passes "
     "below"},
    {"--taint", "determinism taint",
     "propagates nondeterminism sources (obs::WallClock, raw entropy, "
     "pointer-to-int casts, thread ids, unordered iteration order) through "
     "locals and function return values across TUs into digest/metric/"
     "output sinks; findings report the full source -> sink call chain and "
     "are waivable only at the source line (rule: taint-flow)"},
    {"--locks", "lock discipline",
     "per-function mutex-acquisition order, flagging pairs acquired in "
     "opposite orders (rule: lock-order) and writes to shared state in "
     "ThreadPool worker lambdas with no lock/atomic in scope (rule: "
     "unguarded-write)"},
    {"--dead-keys", "dead spec keys",
     "every key in sim::spec_key_registry must be read by some flags/spec "
     "accessor outside bench/ and examples/ (rule: dead-spec-key)"},
};

void print_passes_text() {
  std::cout << "determinism_lint passes (--all-passes enables every "
               "opt-in pass):\n\n";
  for (const auto& p : kPasses) {
    std::cout << "  " << p.name << " [" << p.flag << "]\n    " << p.what
              << "\n\n";
  }
}

void print_passes_markdown() {
  std::cout << "| Pass | Flag | What it does |\n| --- | --- | --- |\n";
  for (const auto& p : kPasses) {
    std::cout << "| " << p.name << " | `" << p.flag << "` | " << p.what
              << " |\n";
  }
}

/// Repo-relative label when the file is under root, else the path as-is.
std::string label_of(const fs::path& file, const fs::path& root) {
  const std::string f = file.lexically_normal().generic_string();
  const std::string r = root.lexically_normal().generic_string();
  if (f.size() > r.size() + 1 && f.compare(0, r.size(), r) == 0 &&
      f[r.size()] == '/')
    return f.substr(r.size() + 1);
  return f;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool show_allowed = false;
  bool sarif_stdout = false;
  std::string callgraph_file;
  std::string sarif_file;
  nexit::lint::ProjectOptions opts;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      print_rules_text();
      return 0;
    }
    if (arg == "--list-rules=markdown") {
      print_rules_markdown();
      return 0;
    }
    if (arg == "--list-passes") {
      print_passes_text();
      return 0;
    }
    if (arg == "--list-passes=markdown") {
      print_passes_markdown();
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--show-allowed") {
      show_allowed = true;
    } else if (arg == "--taint") {
      opts.taint = true;
    } else if (arg == "--locks") {
      opts.locks = true;
    } else if (arg == "--dead-keys") {
      opts.dead_keys = true;
    } else if (arg == "--all-passes") {
      opts.taint = opts.locks = opts.dead_keys = true;
    } else if (arg.rfind("--callgraph=", 0) == 0) {
      callgraph_file = arg.substr(12);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_file = arg.substr(8);
    } else if (arg == "--format=sarif") {
      sarif_stdout = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "determinism_lint: unknown flag " << arg
                << " (flags: --root=DIR --list-rules[=markdown] "
                   "--list-passes[=markdown] --show-allowed --taint --locks "
                   "--dead-keys --all-passes --callgraph=FILE --sarif=FILE "
                   "--format=sarif)\n";
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }

  if (inputs.empty()) {
    for (const char* dir : {"src", "bench", "examples"}) {
      const fs::path d = root / dir;
      if (!fs::exists(d)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(d)) {
        if (entry.is_regular_file() && lintable(entry.path()))
          inputs.push_back(entry.path());
      }
    }
    if (inputs.empty()) {
      std::cerr << "determinism_lint: nothing to scan under "
                << root.generic_string() << " (src/, bench/, examples/)\n";
      return 2;
    }
  }
  // Deterministic scan order, of course.
  std::sort(inputs.begin(), inputs.end(),
            [&](const fs::path& a, const fs::path& b) {
              return label_of(a, root) < label_of(b, root);
            });

  std::vector<nexit::lint::SourceFile> files;
  files.reserve(inputs.size());
  for (const fs::path& file : inputs) {
    if (!fs::exists(file)) {
      std::cerr << "determinism_lint: no such file: " << file.generic_string()
                << "\n";
      return 2;
    }
    nexit::lint::SourceFile sf;
    sf.path = label_of(file, root);
    sf.content = read_file(file);
    if (file.extension() == ".cpp" || file.extension() == ".cc") {
      fs::path hdr = file;
      hdr.replace_extension(".hpp");
      if (fs::exists(hdr)) sf.sibling_header = read_file(hdr);
    }
    files.push_back(std::move(sf));
  }

  if (!callgraph_file.empty()) {
    const auto graph = nexit::lint::build_call_graph(files);
    std::ofstream out(callgraph_file, std::ios::binary);
    if (!out.good()) {
      std::cerr << "determinism_lint: cannot write " << callgraph_file << "\n";
      return 2;
    }
    out << nexit::lint::to_dot(graph, files);
  }

  const std::vector<nexit::lint::Finding> findings =
      nexit::lint::lint_project(files, opts);

  if (!sarif_file.empty()) {
    std::ofstream out(sarif_file, std::ios::binary);
    if (!out.good()) {
      std::cerr << "determinism_lint: cannot write " << sarif_file << "\n";
      return 2;
    }
    out << nexit::lint::to_sarif(findings);
  }

  std::size_t reported = 0, suppressed = 0;
  for (const auto& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      if (show_allowed && !sarif_stdout) {
        std::cout << f.file << ":" << f.line << ": [allowed " << f.rule
                  << "] " << f.allow_reason << "\n";
      }
      continue;
    }
    ++reported;
    if (!sarif_stdout) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }

  if (sarif_stdout) {
    std::cout << nexit::lint::to_sarif(findings);
    std::cerr << "determinism_lint: " << files.size() << " files, "
              << reported << " finding" << (reported == 1 ? "" : "s") << ", "
              << suppressed << " allowed by annotation\n";
  } else {
    std::cout << "determinism_lint: " << files.size() << " files, "
              << reported << " finding" << (reported == 1 ? "" : "s") << ", "
              << suppressed << " allowed by annotation\n";
  }
  return reported == 0 ? 0 : 1;
}
