// dead-spec-key: a registry entry that nothing reads is configuration
// theater — it serializes, documents, and digests, but changing it cannot
// change a run. The pass collects every key registered in the KeyDoc
// table and via sweep_only() (string literals read from the RAW text — the
// sanitized view blanks them — at positions located via the sanitized
// structure), then looks for a *read*: an occurrence of the quoted key
// whose preceding context contains a flags/spec accessor
// (get_* / merge_* / axis_values / has). Programs under bench/ and
// examples/ spell flag names too, so reads only count outside those trees.

#include <map>
#include <set>

#include "lint_passes.hpp"
#include "lint_text.hpp"

namespace nexit::lint {
namespace {

const char* const kDeadSpecKey = "dead-spec-key";

/// Reader calls that consume a key's value. to_key_values()/emplace_back
/// (serialization) and find_spec_key (doc lookup) are deliberately absent:
/// spelling a key while writing it out is not a read.
const char* const kReaders[] = {
    "get_string",  "get_int",    "get_bool",    "get_double",
    "get_choice",  "get_count",  "merge_choice", "merge_count",
    "merge_targets", "merge_events", "axis_values", "has"};

bool reader_context(const std::string& raw, std::size_t quote_pos) {
  // The accessor call the literal is an argument of starts at most a few
  // lines earlier (wrapped call); 200 chars of context covers it.
  const std::size_t from = quote_pos > 200 ? quote_pos - 200 : 0;
  const std::string ctx = raw.substr(from, quote_pos - from);
  for (const char* r : kReaders) {
    std::size_t at = ctx.find(r);
    while (at != std::string::npos) {
      const std::size_t after = at + std::string(r).size();
      const bool word_start = at == 0 || !ident_char(ctx[at - 1]);
      const std::size_t p = skip_ws(ctx, after);
      if (word_start && (after >= ctx.size() || !ident_char(ctx[after])) &&
          p < ctx.size() && ctx[p] == '(')
        return true;
      at = ctx.find(r, at + 1);
    }
  }
  return false;
}

/// Reads the string literal starting at `raw[pos] == '"'`.
std::string read_string_at(const std::string& raw, std::size_t pos) {
  std::string out;
  for (std::size_t i = pos + 1; i < raw.size(); ++i) {
    if (raw[i] == '\\') {
      ++i;
      continue;  // keys never need escapes; skip conservatively
    }
    if (raw[i] == '"') break;
    out += raw[i];
  }
  return out;
}

struct RegistryEntry {
  std::string key;
  int file = -1;
  int line = 0;
};

/// Keys registered in `files[fi]`: elements of a KeyDoc array (the first
/// string literal of each `{...}` aggregate at nesting depth 1) and
/// sweep_only("<key>", ...) calls.
void collect_entries(const std::vector<SourceFile>& files, std::size_t fi,
                     const std::string& sanitized,
                     std::vector<RegistryEntry>& entries) {
  const std::string& raw = files[fi].content;
  const LineIndex lines(raw);
  for (const Token& t : tokenize(sanitized)) {
    if (t.text == "KeyDoc") {
      // `KeyDoc docs[] = { {"key", ...}, ... }` — find the aggregate. The
      // `=` must be near the token, else this KeyDoc mention is a return
      // type or parameter, not the table.
      const std::size_t eq = sanitized.find('=', t.end);
      if (eq == std::string::npos || eq > t.end + 40) continue;
      const std::size_t open = skip_ws(sanitized, eq + 1);
      if (open >= sanitized.size() || sanitized[open] != '{') continue;
      const std::size_t close = find_matching(sanitized, open, '{', '}');
      if (close == std::string::npos) continue;
      int depth = 0;
      for (std::size_t i = open; i <= close; ++i) {
        const char c = sanitized[i];
        if (c == '{') {
          ++depth;
          if (depth == 2) {
            // First string literal of this element, from the RAW text.
            const std::size_t q = skip_ws(raw, i + 1);
            if (q < raw.size() && raw[q] == '"') {
              const std::string key = read_string_at(raw, q);
              if (!key.empty())
                entries.push_back(
                    {key, static_cast<int>(fi), lines.line_of(q)});
            }
          }
        } else if (c == '}') {
          --depth;
        }
      }
    } else if (t.text == "sweep_only") {
      const std::size_t open = skip_ws(sanitized, t.end);
      if (open >= sanitized.size() || sanitized[open] != '(') continue;
      const std::size_t q = skip_ws(raw, open + 1);
      if (q >= raw.size() || raw[q] != '"') continue;
      const std::string key = read_string_at(raw, q);
      if (!key.empty())
        entries.push_back({key, static_cast<int>(fi), lines.line_of(q)});
    }
  }
}

bool program_path(const std::string& path) {
  return path.find("bench/") != std::string::npos ||
         path.find("examples/") != std::string::npos;
}

}  // namespace

void run_dead_key_pass(const std::vector<SourceFile>& files,
                       std::vector<Finding>& findings) {
  std::vector<RegistryEntry> entries;
  std::vector<std::string> sanitized(files.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    sanitized[fi] = strip_comments_and_strings(files[fi].content);
    collect_entries(files, fi, sanitized[fi], entries);
  }
  if (entries.empty()) return;

  std::set<std::string> read_keys;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    if (program_path(files[fi].path)) continue;
    const std::string& raw = files[fi].content;
    for (const RegistryEntry& e : entries) {
      if (read_keys.count(e.key) != 0) continue;
      const std::string quoted = "\"" + e.key + "\"";
      std::size_t at = raw.find(quoted);
      while (at != std::string::npos) {
        if (reader_context(raw, at)) {
          read_keys.insert(e.key);
          break;
        }
        at = raw.find(quoted, at + 1);
      }
    }
  }

  std::set<std::string> flagged;
  for (const RegistryEntry& e : entries) {
    if (read_keys.count(e.key) != 0) continue;
    if (!flagged.insert(e.key).second) continue;
    findings.push_back(
        {files[e.file].path, e.line, kDeadSpecKey,
         "spec key `" + e.key +
             "` is registered but never read by any flags/spec accessor — "
             "it serializes and digests yet cannot affect a run; wire it "
             "up or delete the registry entry",
         false, ""});
  }
}

}  // namespace nexit::lint
