#include "sim/spec.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "dist/tcp_channel.hpp"
#include "geo/city_db.hpp"

namespace nexit::sim {

namespace {

using runtime::EventKind;

// --- enum <-> string tables ---------------------------------------------
// One table per enum; a choice key's row feeds the names to
// Flags::get_choice, so an out-of-set value dies listing exactly these —
// and the key registry lists the same names as the key's valid choices.

template <typename E>
struct Choice {
  E value;
  const char* name;
};

constexpr Choice<ExperimentKind> kExperiments[] = {
    {ExperimentKind::kDistance, "distance"},
    {ExperimentKind::kBandwidth, "bandwidth"},
    {ExperimentKind::kRuntime, "runtime"},
};
constexpr Choice<core::TurnPolicy> kTurns[] = {
    {core::TurnPolicy::kAlternate, "alternate"},
    {core::TurnPolicy::kLowerGain, "lower-gain"},
    {core::TurnPolicy::kCoinToss, "coin-toss"},
};
constexpr Choice<core::ProposalPolicy> kProposals[] = {
    {core::ProposalPolicy::kMaxCombinedGain, "max-combined"},
    {core::ProposalPolicy::kBestLocalMinImpact, "best-local"},
};
constexpr Choice<core::AcceptancePolicy> kAcceptances[] = {
    {core::AcceptancePolicy::kProtective, "protective"},
    {core::AcceptancePolicy::kAlwaysAccept, "always-accept"},
    {core::AcceptancePolicy::kVetoOwnLoss, "veto-own-loss"},
};
constexpr Choice<core::TerminationPolicy> kTerminations[] = {
    {core::TerminationPolicy::kEarly, "early"},
    {core::TerminationPolicy::kFull, "full"},
    {core::TerminationPolicy::kNegotiateAll, "negotiate-all"},
};
constexpr Choice<core::TieBreak> kTieBreaks[] = {
    {core::TieBreak::kRandom, "random"},
    {core::TieBreak::kDeterministic, "deterministic"},
};
constexpr Choice<traffic::WorkloadModel> kWorkloads[] = {
    {traffic::WorkloadModel::kGravity, "gravity"},
    {traffic::WorkloadModel::kIdentical, "identical"},
    {traffic::WorkloadModel::kUniformRandom, "uniform"},
};
constexpr Choice<capacity::UnusedLinkRule> kUnusedRules[] = {
    {capacity::UnusedLinkRule::kMedian, "median"},
    {capacity::UnusedLinkRule::kMean, "mean"},
    {capacity::UnusedLinkRule::kMax, "max"},
};
constexpr Choice<runtime::Transport> kTransports[] = {
    {runtime::Transport::kInMemory, "memory"},
    {runtime::Transport::kSocketPair, "socket"},
    {runtime::Transport::kTcpPair, "tcp"},
};
constexpr Choice<EventKind> kEventKinds[] = {
    {EventKind::kStart, "start"},
    {EventKind::kFlowChurn, "churn"},
    {EventKind::kLinkFailure, "fail"},
    {EventKind::kPeerRestart, "restart"},
    {EventKind::kKill, "kill"},
    {EventKind::kResume, "resume"},
};

template <typename E, std::size_t N>
std::string name_of(const Choice<E> (&table)[N], E value) {
  for (const auto& c : table)
    if (c.value == value) return c.name;
  assert(false && "enum value missing from its choice table");
  return table[0].name;
}

/// "one of {a, b, c}", the "values:" text of a closed set.
std::string one_of(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names)
    out += (out.empty() ? "one of {" : ", ") + name;
  return out + "}";
}

// --- split / numeric helpers --------------------------------------------

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t pos = text.find(sep, begin);
    out.push_back(
        text.substr(begin, pos == std::string::npos ? pos : pos - begin));
    if (pos == std::string::npos) break;
    begin = pos + 1;
  }
  return out;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || text[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_finite_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- runtime.events grammar ---------------------------------------------
// token := <kind>@<tick>/<session>[/<param>], comma-separated. `churn`
// requires a reseed param, `fail` takes an index or `busiest` (default
// busiest), `start`/`restart` take none.

constexpr const char* kEventsGrammar =
    "a comma-separated timeline: start@<tick>/<session>, "
    "churn@<tick>/<session>/<seed>, fail@<tick>/<session>[/<ix>|/busiest], "
    "restart@<tick>/<session>, kill@<tick>/<session>, "
    "resume@<tick>/<session>";

bool parse_event(const std::string& token, runtime::ScenarioEvent* out) {
  const std::size_t at = token.find('@');
  if (at == std::string::npos) return false;
  const std::string kind_name = token.substr(0, at);
  bool known = false;
  for (const auto& c : kEventKinds) {
    if (kind_name == c.name) {
      out->kind = c.value;
      known = true;
    }
  }
  if (!known) return false;
  const std::vector<std::string> fields = split(token.substr(at + 1), '/');
  if (fields.size() < 2) return false;
  std::uint64_t session = 0;
  if (!parse_u64(fields[0], &out->at) || !parse_u64(fields[1], &session) ||
      session > 0xffffffffull) {
    return false;
  }
  out->session = static_cast<std::uint32_t>(session);
  out->param = 0;
  switch (out->kind) {
    case EventKind::kStart:
    case EventKind::kPeerRestart:
    case EventKind::kKill:
    case EventKind::kResume:
      return fields.size() == 2;
    case EventKind::kFlowChurn:
      return fields.size() == 3 && parse_u64(fields[2], &out->param);
    case EventKind::kLinkFailure:
      if (fields.size() == 2 || (fields.size() == 3 && fields[2] == "busiest")) {
        out->param = runtime::kBusiestIx;
        return true;
      }
      return fields.size() == 3 && parse_u64(fields[2], &out->param);
  }
  return false;
}

std::string event_text(const runtime::ScenarioEvent& ev) {
  std::string out = name_of(kEventKinds, ev.kind) + "@" +
                    std::to_string(ev.at) + "/" + std::to_string(ev.session);
  switch (ev.kind) {
    case EventKind::kStart:
    case EventKind::kPeerRestart:
    case EventKind::kKill:
    case EventKind::kResume:
      break;
    case EventKind::kFlowChurn:
      out += "/" + std::to_string(ev.param);
      break;
    case EventKind::kLinkFailure:
      out += ev.param == runtime::kBusiestIx
                 ? "/busiest"
                 : "/" + std::to_string(ev.param);
      break;
  }
  return out;
}

bool parse_session_id(const std::string& token, std::uint32_t* out) {
  std::uint64_t id = 0;
  if (!parse_u64(token, &id) || id > 0xffffffffull) return false;
  *out = static_cast<std::uint32_t>(id);
  return true;
}

// --- sweep axes ----------------------------------------------------------

constexpr const char* kAxisGrammar =
    "a value list `v1,v2,...` or a range `lo:hi:step` (step > 0, lo <= hi)";

/// Expands one axis value string into explicit values; exits 2 (naming the
/// `sweep.<key>` flag) on malformed syntax, empty lists, or runaway ranges.
std::vector<std::string> parse_axis_values(const util::Flags& flags,
                                           const std::string& flag_name,
                                           const std::string& raw) {
  const auto die = [&](const std::string& extra) -> std::vector<std::string> {
    if (flags.help_requested()) return {};
    util::die_flag_value(flag_name, raw,
                         std::string(kAxisGrammar) +
                             (extra.empty() ? "" : " (" + extra + ")"));
  };
  if (raw.empty()) return die("empty value list");
  // ':'-separated numerics are a range; anything else (e.g. an oracle axis
  // value like `cheat:piecewise`) falls through to the comma-list form.
  const std::vector<std::string> fields = split(raw, ':');
  bool numeric_range = fields.size() > 1;
  for (const std::string& f : fields) {
    double ignored = 0;
    numeric_range = numeric_range && parse_finite_double(f, &ignored);
  }
  if (numeric_range) {
    double lo = 0, hi = 0, step = 0;
    if (fields.size() != 3 || !parse_finite_double(fields[0], &lo) ||
        !parse_finite_double(fields[1], &hi) ||
        !parse_finite_double(fields[2], &step)) {
      return die("expected exactly lo:hi:step");
    }
    if (step <= 0.0) return die("step must be > 0");
    if (lo > hi) return die("lo must be <= hi");
    const double count_f = std::floor((hi - lo) / step + 1e-9) + 1.0;
    if (count_f > 10000.0) return die("range expands to > 10000 values");
    const auto count = static_cast<std::size_t>(count_f);
    const bool integral =
        lo == std::floor(lo) && step == std::floor(step) &&
        raw.find('.') == std::string::npos &&
        raw.find('e') == std::string::npos && raw.find('E') == std::string::npos;
    std::vector<std::string> values;
    values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double v = lo + static_cast<double>(i) * step;
      values.push_back(integral
                           ? std::to_string(static_cast<std::int64_t>(v))
                           : fmt_double(v));
    }
    return values;
  }
  std::vector<std::string> values = split(raw, ',');
  for (const std::string& v : values)
    if (v.empty()) return die("empty value in list");
  return values;
}

std::string axis_values_text(const SweepAxis& axis) {
  std::string out;
  for (std::size_t i = 0; i < axis.values.size(); ++i)
    out += (i == 0 ? "" : ",") + axis.values[i];
  return out;
}

// --- the key table -------------------------------------------------------
// One row per spec key, in canonical (serialized) order, then the sweep-only
// axes. A row names the key, the experiment kinds it applies to and its doc
// line, and binds the key to its ExperimentSpec field through one codec,
// with the field's bounds. merge_from_flags, the `overridden` bookkeeping,
// to_key_values, value_of, spec_key_registry (its "values:" text included)
// and validate()'s single-key range checks all read the row.

using Range = SpecKeyInfo::Range;

struct KeyRow {
  SpecKeyInfo info;  // default_value is filled in by spec_key_registry()
  /// Overlays the key from `flags`, the field's current value being the
  /// fallback; exits 2 naming the key on a malformed or out-of-range value.
  /// Empty for sweep-only axes, which have no field.
  std::function<void(ExperimentSpec&, const util::Flags&)> merge;
  /// The field's serialized value (empty for sweep-only axes).
  std::function<std::string(const ExperimentSpec&)> text;
};

/// A field binding is a generic lambda `[](auto& s) -> auto& { return
/// s.<field>; }`, so one binding reads a const spec and writes a mutable one.
template <typename F>
using FieldOf = std::remove_cvref_t<
    decltype(std::declval<F>()(std::declval<ExperimentSpec&>()))>;

KeyRow make_row(const char* key, unsigned kinds, const char* type,
                std::string constraints, const char* doc) {
  KeyRow row;
  row.info.key = key;
  row.info.kinds = kinds;
  row.info.type = type;
  row.info.constraints = std::move(constraints);
  row.info.doc = doc;
  return row;
}

/// The one codec shape: `read(flags, key, current)` parses the key (exiting
/// 2 on a bad value) and `print(value)` serializes it.
template <typename F, typename Read, typename Print>
KeyRow bound_row(const char* key, unsigned kinds, const char* type,
                 std::string constraints, const char* doc, F field, Read read,
                 Print print) {
  KeyRow row = make_row(key, kinds, type, std::move(constraints), doc);
  row.merge = [=](ExperimentSpec& s, const util::Flags& flags) {
    field(s) = read(flags, key, field(s));
  };
  row.text = [=](const ExperimentSpec& s) -> std::string {
    return print(field(s));
  };
  return row;
}

bool in_range(const std::optional<Range>& range, double v) {
  return !range || (v >= range->lo && v <= range->hi);
}

/// count / int / double keys; a bounded unsigned field documents itself as
/// a "count". Integers parse as int64 and serialize through their signed
/// spelling, so a seed with the top bit set round-trips as its
/// two's-complement twin ("-1"); doubles print with %.17g, which
/// round-trips exactly. `note` (a unit, or what a special value means)
/// follows the bounds in the "values:" text.
template <typename F>
KeyRow number_row(const char* key, unsigned kinds, F field,
                  std::optional<Range> range, const char* note,
                  const char* doc) {
  using T = FieldOf<F>;
  constexpr bool kIntegral = std::is_integral_v<T>;
  const char* type = !kIntegral                       ? "double"
                     : std::is_unsigned_v<T> && range ? "count"
                                                      : "int";
  std::string text =
      range ? std::string(kIntegral ? "integer" : "number") + " in [" +
                  fmt_double(range->lo) + ", " + fmt_double(range->hi) + "]"
            : "";
  if (note[0] != '\0')
    text += text.empty() ? note : std::string(" (") + note + ")";
  const std::string expected = (kIntegral ? "an " : "a ") + text;
  const auto read = [range, expected](const util::Flags& flags,
                                      const char* k, T current) {
    if constexpr (kIntegral) {
      const std::int64_t v =
          flags.get_int(k, static_cast<std::int64_t>(current));
      if (in_range(range, static_cast<double>(v))) return static_cast<T>(v);
    } else {
      const double v = flags.get_double(k, current);
      if (in_range(range, v)) return v;
    }
    if (!flags.help_requested())
      util::die_flag_value(k, flags.get_string(k, ""), expected);
    return current;
  };
  const auto print = [](T v) {
    if constexpr (kIntegral)
      return std::to_string(static_cast<std::int64_t>(v));
    else
      return fmt_double(v);
  };
  KeyRow row = bound_row(key, kinds, type, text, doc, field, read, print);
  row.info.range = range;
  return row;
}

template <typename F>
KeyRow bool_row(const char* key, unsigned kinds, F field, const char* doc) {
  return bound_row(
      key, kinds, "bool", "", doc, field,
      [](const util::Flags& flags, const char* k, bool current) {
        return flags.get_bool(k, current);
      },
      [](bool v) -> std::string { return v ? "true" : "false"; });
}

template <typename E, std::size_t N, typename F>
KeyRow choice_row(const char* key, unsigned kinds, F field,
                  const Choice<E> (&table)[N], const char* doc) {
  std::vector<std::string> names;
  for (const auto& c : table) names.emplace_back(c.name);
  return bound_row(
      key, kinds, "choice", one_of(names), doc, field,
      [&table, names](const util::Flags& flags, const char* k, E current) {
        // get_choice exits 2 on an out-of-set value, except in a --help
        // run, which gets the fallback back.
        const std::string picked =
            flags.get_choice(k, names, name_of(table, current));
        for (const auto& c : table)
          if (picked == c.name) return c.value;
        return current;
      },
      [&table](E v) { return name_of(table, v); });
}

/// An objective: an OracleRegistry name or `default`, optionally behind
/// `cheat:`. Names are checked by validate(), which knows the experiment.
template <typename F>
KeyRow oracle_row(const char* key, unsigned kinds, F field, const char* doc) {
  std::string names;
  for (const std::string& n : core::OracleRegistry::global().names())
    names += (names.empty() ? "a registry oracle (" : ", ") + n;
  names += ") or `default`, optionally behind `cheat:`";
  return bound_row(
      key, kinds, "oracle", names, doc, field,
      [](const util::Flags& flags, const char* k,
         const core::OracleSpec& current) {
        return core::OracleSpec::parse(
            flags.get_string(k, current.to_string()));
      },
      [](const core::OracleSpec& v) { return v.to_string(); });
}

/// A free-form string; `type` is its documented shape ("string", "list").
template <typename F>
KeyRow string_row(const char* key, unsigned kinds, const char* type, F field,
                  const char* note, const char* doc) {
  return bound_row(
      key, kinds, type, note, doc, field,
      [](const util::Flags& flags, const char* k, const std::string& current) {
        return flags.get_string(k, current);
      },
      [](const std::string& v) { return v; });
}

/// A comma-separated list key: `parse_one(token, &item)` reads one item
/// and `print_one(item)` writes it; a bad item exits 2 naming the key and
/// the item.
template <typename F, typename Parse, typename Print>
KeyRow list_row(const char* key, unsigned kinds, const char* type,
                const char* grammar, const char* item, F field,
                Parse parse_one, Print print_one, const char* doc) {
  using T = typename FieldOf<F>::value_type;
  const auto print = [print_one](const std::vector<T>& items) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i)
      out += (i == 0 ? "" : ",") + print_one(items[i]);
    return out;
  };
  const auto read = [=](const util::Flags& flags, const char* k,
                        const std::vector<T>& current) {
    const std::string raw = flags.get_string(k, print(current));
    std::vector<T> items;
    if (raw.empty()) return items;
    for (const std::string& token : split(raw, ',')) {
      T value{};
      if (!parse_one(token, &value)) {
        if (flags.help_requested()) return current;
        util::die_flag_value(k, raw,
                             std::string(grammar) + " (bad " + item + " \"" +
                                 token + "\")");
      }
      items.push_back(value);
    }
    return items;
  };
  return bound_row(key, kinds, type, grammar, doc, field, read, print);
}

/// A sweep-only axis: a virtual key whose values are `variants`;
/// `sweep.<key>=...` is its only spelling and every variant its default.
KeyRow axis_row(const char* key, const char* owner,
                std::vector<AxisVariant> variants, const char* doc) {
  std::vector<std::string> names;
  std::string values;
  for (const AxisVariant& v : variants) {
    names.push_back(v.name);
    values += (values.empty() ? "" : ",") + v.name;
  }
  KeyRow row = make_row(key, kForDistance | kForBandwidth, "choice",
                        one_of(names), doc);
  row.info.default_value = values;
  row.info.sweep_only = true;
  row.info.owner_scenario = owner;
  row.info.variants = std::move(variants);
  return row;
}

/// The keys validate() and the sweep parser name outside the table.
constexpr const char* kExperimentKey = "experiment";  // never sweepable
constexpr const char* kOracleKeys[2] = {"oracle-a", "oracle-b"};

std::vector<KeyRow> build_key_rows() {
  constexpr double kMaxItems = 1u << 20;  // ISPs, pairs, sessions, ...
  constexpr double kMaxTicks = 1u << 30;
  const double cities = static_cast<double>(geo::CityDb::builtin().size());
  const Range fraction{0, 1};
  return {
      choice_row(kExperimentKey, kForAllKinds,
                 [](auto& s) -> auto& { return s.experiment; }, kExperiments,
                 "Which engine runs: the paper's distance or bandwidth "
                 "experiment, or the concurrent negotiation runtime with a "
                 "declared timeline."),
      number_row("isps", kForAllKinds, [](auto& s) -> auto& { return s.isps; },
                 Range{2, kMaxItems}, "",
                 "Synthetic ISPs in the universe (the paper used 65)."),
      number_row("seed", kForAllKinds, [](auto& s) -> auto& { return s.seed; },
                 std::nullopt, "",
                 "Root RNG seed; every per-pair/per-session stream forks from "
                 "it deterministically."),
      number_row("pairs", kForAllKinds,
                 [](auto& s) -> auto& { return s.pairs; }, Range{1, kMaxItems},
                 "", "Upper bound on ISP pairs drawn from the universe."),
      // The generator places PoPs in distinct cities of the built-in
      // database, so its size bounds both counts.
      number_row("pop-min", kForAllKinds,
                 [](auto& s) -> auto& { return s.pop_min; }, Range{2, cities},
                 "", "Minimum PoPs per generated ISP."),
      number_row("pop-max", kForAllKinds,
                 [](auto& s) -> auto& { return s.pop_max; }, Range{2, cities},
                 "", "Maximum PoPs per generated ISP."),
      oracle_row(kOracleKeys[0], kForDistance | kForBandwidth,
                 [](auto& s) -> auto& { return s.objective[0]; },
                 "Side A's objective; `default` resolves per experiment "
                 "kind."),
      oracle_row(kOracleKeys[1], kForDistance | kForBandwidth,
                 [](auto& s) -> auto& { return s.objective[1]; },
                 "Side B's objective; `default` resolves per experiment "
                 "kind."),
      number_row("pref-range", kForAllKinds,
                 [](auto& s) -> auto& { return s.pref_range; },
                 Range{1, core::kMaxPrefRange}, "",
                 "Preference-class range P (paper §4.1)."),
      choice_row("turn", kForAllKinds, [](auto& s) -> auto& { return s.turn; },
                 kTurns, "Whose turn it is to propose (paper §4.2)."),
      choice_row("proposal", kForAllKinds,
                 [](auto& s) -> auto& { return s.proposal; }, kProposals,
                 "Which candidate move the proposer picks (paper §4.2)."),
      choice_row("acceptance", kForAllKinds,
                 [](auto& s) -> auto& { return s.acceptance; }, kAcceptances,
                 "When the responder accepts a proposal (paper §4.2)."),
      choice_row("termination", kForAllKinds,
                 [](auto& s) -> auto& { return s.termination; },
                 kTerminations, "When the negotiation stops (paper §4.2)."),
      choice_row("tie-break", kForDistance | kForBandwidth,
                 [](auto& s) -> auto& { return s.tie_break; }, kTieBreaks,
                 "Tie-break among equally good proposals; the runtime always "
                 "forces `deterministic` (the wire-agent contract)."),
      number_row("reassign", kForAllKinds,
                 [](auto& s) -> auto& { return s.reassign; }, fraction,
                 "fraction of traffic",
                 "Reassignment quantum (paper: 0.05); only load-dependent "
                 "oracles honour it."),
      bool_row("rollback", kForAllKinds,
               [](auto& s) -> auto& { return s.rollback; },
               "Settlement rollback of tentative moves the final agreement "
               "dropped."),
      bool_row("incremental", kForAllKinds,
               [](auto& s) -> auto& { return s.incremental; },
               "Delta-driven oracle re-evaluation (bit-identical to full "
               "recompute; see docs/ARCHITECTURE.md)."),
      number_row("verify-incremental", kForAllKinds,
                 [](auto& s) -> auto& { return s.verify_incremental; },
                 Range{-1, std::numeric_limits<int>::max()},
                 "0 = build default, -1 = off",
                 "Cross-check incremental evaluations against full recomputes "
                 "every Nth refresh."),
      choice_row("traffic", kForBandwidth | kForRuntime,
                 [](auto& s) -> auto& { return s.traffic_model; }, kWorkloads,
                 "Workload model for PoP weights (bandwidth experiment) / "
                 "session traffic shape (runtime)."),
      bool_row("capacity-pow2", kForBandwidth,
               [](auto& s) -> auto& { return s.capacity_pow2; },
               "Round link capacities up to powers of two (§5.2 alternate "
               "model)."),
      choice_row("capacity-unused", kForBandwidth,
                 [](auto& s) -> auto& { return s.capacity_unused; },
                 kUnusedRules,
                 "Capacity rule for links unused by the baseline routing."),
      number_row("max-failures", kForBandwidth,
                 [](auto& s) -> auto& { return s.max_failures; },
                 Range{0, 10000}, "",
                 "Interconnection failures sampled per pair."),
      bool_row("flow-baselines", kForDistance,
               [](auto& s) -> auto& { return s.flow_baselines; },
               "Also run the Fig. 5 flow-pair strawman strategies."),
      bool_row("unilateral", kForBandwidth,
               [](auto& s) -> auto& { return s.unilateral; },
               "Also run the Fig. 8 upstream-only LP series."),
      number_row("groups", kForDistance,
                 [](auto& s) -> auto& { return s.groups; },
                 Range{1, kMaxItems}, "",
                 "Split the flow set into k independently negotiated groups "
                 "(§5.1)."),
      number_row("threads", kForAllKinds,
                 [](auto& s) -> auto& { return s.threads; }, Range{0, 1024}, "",
                 "Worker threads; 0 = auto-detect. Results are bit-identical "
                 "for every value."),
      number_row("runtime.sessions", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.sessions; },
                 Range{0, kMaxItems}, "",
                 "Initial sessions; 0 = one per universe pair, larger counts "
                 "cycle the pairs with per-session traffic."),
      choice_row("runtime.transport", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.transport; },
                 kTransports,
                 "Channel kind: in-memory, fd-backed AF_UNIX socket pairs, or "
                 "TCP loopback pairs (src/dist)."),
      number_row("runtime.stagger", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.stagger; },
                 Range{0, kMaxItems}, "virtual ticks",
                 "Session i starts at tick i * stagger (start@ events "
                 "override)."),
      number_row("runtime.min-links", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.min_links; },
                 Range{1, 1000}, "",
                 "Universe pairs need at least this many interconnections "
                 "(failures need survivors)."),
      number_row("runtime.burst", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.burst; },
                 Range{0, kMaxTicks}, "0 = run to stall",
                 "Pump steps before a session yields its worker; small bursts "
                 "let timeline events land genuinely mid-negotiation."),
      number_row("runtime.handshake-deadline", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.handshake_deadline; },
                 Range{0, kMaxTicks}, "virtual ticks",
                 "Attempts still in the handshake after this are torn down "
                 "(and retried)."),
      number_row("runtime.round-timeout", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.round_timeout; },
                 Range{0, kMaxTicks}, "virtual ticks",
                 "Mid-session ticks without progress before teardown."),
      number_row("runtime.max-attempts", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.max_attempts; },
                 Range{1, 1000}, "",
                 "Total attempts per session (first try plus retries, fresh "
                 "channels each)."),
      number_row("runtime.max-ticks", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.max_ticks; },
                 Range{0, kMaxTicks}, "virtual ticks",
                 "Virtual-clock horizon; still-live sessions are cancelled "
                 "past it."),
      number_row("runtime.drop", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.drop; }, fraction,
                 "probability",
                 "Whole-frame drop probability per send on faulted "
                 "transports."),
      number_row("runtime.corrupt", kForRuntime,
                 [](auto& s) -> auto& { return s.runtime.corrupt; }, fraction,
                 "probability",
                 "Single-byte corruption probability per send on faulted "
                 "transports."),
      list_row("runtime.fault-targets", kForRuntime, "list",
               "comma-separated session ids", "session id",
               [](auto& s) -> auto& { return s.runtime.fault_targets; },
               parse_session_id,
               [](std::uint32_t id) { return std::to_string(id); },
               "Sessions whose transport gets the fault injection (empty = "
               "all)."),
      list_row("runtime.events", kForRuntime, "events", kEventsGrammar,
               "event", [](auto& s) -> auto& { return s.runtime.events; },
               parse_event, event_text,
               "The declared timeline: staggered starts, flow churn, "
               "mid-session link failure, peer restarts, and crash-recovery "
               "(kill wipes a session's in-memory state, resume restores it "
               "from the durable snapshot+WAL; requires transport=memory, "
               "and the resumed run's record is byte-identical to an "
               "uninterrupted one)."),
      string_row("runtime.snapshot-dir", kForRuntime, "string",
                 [](auto& s) -> auto& { return s.runtime.snapshot_dir; },
                 "output directory path",
                 "Mirror session journals (snapshot + WAL frames) here for "
                 "post-mortems and CI artifacts. Empty = in-memory journaling "
                 "only; journaling itself is implied by any kill/resume "
                 "event."),
      string_row("obs.trace", kForAllKinds, "string",
                 [](auto& s) -> auto& { return s.obs.trace; },
                 "output file path",
                 "Write a Chrome trace_event JSON (Perfetto-loadable) "
                 "negotiation timeline here; logical clocks only, "
                 "byte-identical across --threads=N. Empty = no trace."),
      bool_row("obs.timing", kForAllKinds,
               [](auto& s) -> auto& { return s.obs.timing; },
               "Wall-clock phase profile (digest-excluded `timing` JSON "
               "section); off = disarmed timers, provably zero overhead."),
      number_row("dist.workers", kForAllKinds,
                 [](auto& s) -> auto& { return s.dist.workers; }, Range{0, 256},
                 "",
                 "Spawn-local worker processes to shard sweep points (or a "
                 "runtime timeline) across; 0 = in-process. The JSON record "
                 "and sweep digest are byte-identical for every value."),
      string_row("dist.connect", kForAllKinds, "list",
                 [](auto& s) -> auto& { return s.dist.connect; },
                 "comma-separated host:port endpoints",
                 "Connect to running `nexit_workerd --listen` daemons "
                 "instead of spawning local workers (mutually exclusive with "
                 "dist.workers)."),
      number_row("dist.timeout-ms", kForAllKinds,
                 [](auto& s) -> auto& { return s.dist.timeout_ms; },
                 Range{0, kMaxTicks}, "milliseconds, >= 1 when distributing",
                 "Per-job deadline; a worker silent past it is declared dead "
                 "and its job reassigned (bounded by dist.retries)."),
      number_row("dist.retries", kForAllKinds,
                 [](auto& s) -> auto& { return s.dist.retries; }, Range{0, 100},
                 "",
                 "Reassignments allowed per job after worker death/timeout "
                 "before the run fails."),
      string_row("dist.log-dir", kForAllKinds, "string",
                 [](auto& s) -> auto& { return s.dist.log_dir; },
                 "directory path",
                 "Directory for spawn-local worker logs (worker<i>.log); "
                 "empty = /dev/null."),
      axis_row("model", "abl_models",
               {{"paper", "gravity + median-capacity (paper)", {}},
                {"identical", "identical PoP weights",
                 {{"traffic", "identical"}}},
                {"uniform", "uniform-random PoP weights",
                 {{"traffic", "uniform"}}},
                {"pow2", "power-of-two capacities",
                 {{"capacity-pow2", "true"}}},
                {"unused-max", "unused links get max load",
                 {{"capacity-unused", "max"}}},
                {"piecewise", "piecewise-linear cost metric",
                 {{"oracle-a", "piecewise"}, {"oracle-b", "piecewise"}}}},
               "abl_models variant axis: §5.2 alternate workload / capacity / "
               "metric models, one deviation from the paper model per "
               "value."),
      axis_row("policy", "abl_policies",
               {{"paper", "alternate+early+max-combined (paper)", {}},
                {"lower-gain", "lower-gain turns (max-min-fair)",
                 {{"turn", "lower-gain"}}},
                {"coin-toss", "coin-toss turns", {{"turn", "coin-toss"}}},
                {"full", "full termination", {{"termination", "full"}}},
                {"negotiate-all", "negotiate-all (social)",
                 {{"termination", "negotiate-all"}}},
                {"best-local", "best-local-min-impact proposals",
                 {{"proposal", "best-local"}}}},
               "abl_policies variant axis: §4 turn / termination / proposal "
               "policy combinations, one deviation from the paper protocol "
               "per value."),
  };
}

const std::vector<KeyRow>& key_rows() {
  static const std::vector<KeyRow> rows = build_key_rows();
  return rows;
}

void merge_sweeps(ExperimentSpec& spec, const util::Flags& flags) {
  for (const std::string& name : flags.names_with_prefix("sweep.")) {
    const std::string key = name.substr(6);
    const SpecKeyInfo* info = find_spec_key(key);
    if (info == nullptr || key == kExperimentKey) {
      if (flags.help_requested()) continue;
      // `experiment` is registered but never sweepable: every preset pins
      // its engine, and `custom` would print mixed figures under one digest.
      std::cerr << "error: flag --" << name
                << (info == nullptr ? ": unknown sweep axis \"" + key + "\""
                                    : ": the experiment kind cannot be swept")
                << "; sweepable keys are:";
      for (const SpecKeyInfo& k : spec_key_registry())
        if (k.key != kExperimentKey) std::cerr << " " << k.key;
      std::cerr << "\n";
      std::exit(2);
    }
    const std::string raw = flags.get_string(name, "");
    std::vector<std::string> values = parse_axis_values(flags, name, raw);
    if (values.empty()) continue;  // --help run with a malformed axis
    spec.overridden.insert(name);
    bool replaced = false;
    for (SweepAxis& axis : spec.sweeps) {
      if (axis.key == key) {
        axis.values = std::move(values);
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      SweepAxis axis{key, std::move(values)};
      const auto pos = std::find_if(
          spec.sweeps.begin(), spec.sweeps.end(),
          [&](const SweepAxis& a) { return a.key > axis.key; });
      spec.sweeps.insert(pos, std::move(axis));
    }
  }
}

}  // namespace

unsigned kind_bit(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kDistance: return kForDistance;
    case ExperimentKind::kBandwidth: return kForBandwidth;
    case ExperimentKind::kRuntime: return kForRuntime;
  }
  return kForAllKinds;
}

std::string kinds_label(unsigned kinds) {
  if ((kinds & kForAllKinds) == kForAllKinds) return "any";
  std::string out;
  for (const auto& c : kExperiments) {
    if ((kinds & kind_bit(c.value)) != 0)
      out += std::string(out.empty() ? "" : ", ") + c.name;
  }
  return out;
}

const std::vector<SpecKeyInfo>& spec_key_registry() {
  static const std::vector<SpecKeyInfo> registry = [] {
    const ExperimentSpec defaults;
    std::vector<SpecKeyInfo> out;
    for (const KeyRow& row : key_rows()) {
      out.push_back(row.info);
      if (row.text) out.back().default_value = row.text(defaults);
    }
    return out;
  }();
  return registry;
}

const SpecKeyInfo* find_spec_key(const std::string& key) {
  for (const SpecKeyInfo& info : spec_key_registry())
    if (info.key == key) return &info;
  return nullptr;
}

void ExperimentSpec::merge_from_flags(const util::Flags& flags) {
  // Declared axes first, then every key in canonical order. A key this
  // source sets is remembered: validate() rejects one the chosen
  // experiment kind would silently ignore.
  merge_sweeps(*this, flags);
  for (const KeyRow& row : key_rows()) {
    if (!row.merge) continue;
    if (flags.has(row.info.key)) overridden.insert(row.info.key);
    row.merge(*this, flags);
  }
}

void ExperimentSpec::merge_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: --spec: cannot read " << path << "\n";
    std::exit(2);
  }
  std::vector<std::string> assignments;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);
    if (line.find('=') == std::string::npos) {
      std::cerr << "error: spec file " << path << " line " << line_no
                << ": expected key=value, got \"" << line << "\"\n";
      std::exit(2);
    }
    assignments.push_back(line);
  }

  // The file reuses the whole Flags machinery: malformed values die through
  // the same get_* diagnostics as the command line — the error context makes
  // them name this file — and after the merge has queried every key the
  // spec understands, the leftovers are exactly the unknown keys, rejected
  // the way util::reject_unknown rejects flags.
  const util::FlagErrorContext context("spec file " + path);
  const util::Flags file_flags(assignments);
  merge_from_flags(file_flags);
  const std::vector<std::string> unknown = file_flags.unknown();
  if (!unknown.empty()) {
    std::cerr << "error: spec file " << path << ": unknown key"
              << (unknown.size() > 1 ? "s" : "") << ":";
    for (const std::string& key : unknown) std::cerr << " " << key;
    std::cerr << "\nvalid keys are:";
    for (const std::string& key : file_flags.queried())
      std::cerr << " " << key;
    std::cerr << " sweep.<key>";
    std::cerr << "\n";
    std::exit(2);
  }
}

std::vector<std::pair<std::string, std::string>> ExperimentSpec::to_key_values()
    const {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const KeyRow& row : key_rows())
    if (row.text) kv.emplace_back(row.info.key, row.text(*this));
  for (const SweepAxis& axis : sweeps)
    kv.emplace_back("sweep." + axis.key, axis_values_text(axis));
  return kv;
}

std::string ExperimentSpec::value_of(const std::string& key) const {
  for (const KeyRow& row : key_rows())
    if (row.text && row.info.key == key) return row.text(*this);
  if (key.rfind("sweep.", 0) == 0) {
    if (const SweepAxis* a = axis(key.substr(6))) return axis_values_text(*a);
  }
  return {};
}

const SweepAxis* ExperimentSpec::axis(const std::string& key) const {
  for (const SweepAxis& a : sweeps)
    if (a.key == key) return &a;
  return nullptr;
}

std::string ExperimentSpec::to_text() const {
  std::ostringstream os;
  for (const auto& [key, value] : to_key_values())
    os << key << "=" << value << "\n";
  return os.str();
}

core::OracleSpec ExperimentSpec::resolved_objective(int side) const {
  core::OracleSpec resolved = objective[side];
  if (resolved.name == "default") {
    resolved.name =
        experiment == ExperimentKind::kBandwidth ? "bandwidth" : "distance";
  }
  return resolved;
}

bool ExperimentSpec::validate(std::string* error) const {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  // Single-key bounds, read from the same rows the parser checks, so a
  // field set directly (a test, a library caller) is held to them too.
  for (const KeyRow& row : key_rows()) {
    if (!row.info.range) continue;
    const std::string value = row.text(*this);
    if (!in_range(row.info.range, std::strtod(value.c_str(), nullptr)))
      return fail(row.info.key + ": expects " + row.info.constraints +
                  ", got " + value);
  }
  if (experiment != ExperimentKind::kRuntime) {
    // The runtime builds its own oracles per session kind (distance for
    // initial/churn sessions, bandwidth for failure renegotiations); the
    // objective keys are inert for it and checked below like any other.
    const core::OracleRegistry& registry = core::OracleRegistry::global();
    for (int side = 0; side < 2; ++side) {
      const core::OracleSpec resolved = resolved_objective(side);
      const core::OracleRegistry::Entry* entry = registry.find(resolved.name);
      const std::string key = kOracleKeys[side];
      if (entry == nullptr) {
        std::string msg = key + ": unknown oracle '" + resolved.name +
                          "'; valid names (optionally behind \"cheat:\"):";
        for (const std::string& name : registry.names()) msg += " " + name;
        msg += " default";
        return fail(msg);
      }
      if (experiment == ExperimentKind::kDistance && entry->needs_capacities) {
        return fail(key + ": oracle '" + resolved.name +
                    "' needs link capacities, which only experiment=bandwidth "
                    "computes");
      }
    }
  }
  if (pop_min > pop_max) return fail("pop-min: must be <= pop-max");

  if (experiment == ExperimentKind::kRuntime) {
    // The runtime::Scenario keeps the same rules, but a spec should fail fast
    // with the friendly exit-2 message.
    const std::string broken =
        runtime::timeline_error(runtime.events, runtime.fault_targets,
                                runtime.transport, runtime.sessions);
    if (!broken.empty()) return fail(broken);
  }

  // Distributed execution shards sweep points (or offloads a whole runtime
  // timeline); a single distance/bandwidth point has nothing to shard, so
  // an explicit dist.* key there is the same silent-misconfiguration mode
  // as a locked sweep axis and gets the same exit-2 discipline. Explicit
  // defaults stay legal (serialized specs spell out every key).
  const ExperimentSpec defaults;
  const auto explicit_non_default = [&](const KeyRow& row) {
    return overridden.count(row.info.key) > 0 &&
           row.text(*this) != row.text(defaults);
  };
  if (experiment != ExperimentKind::kRuntime && sweeps.empty()) {
    for (const KeyRow& row : key_rows()) {
      if (row.info.key.rfind("dist.", 0) == 0 && explicit_non_default(row)) {
        return fail(row.info.key +
                    ": distributed execution needs declared sweep axes or "
                    "experiment=runtime — a single-point run has nothing "
                    "to shard");
      }
    }
  }
  if (dist.workers > 0 && !dist.connect.empty()) {
    return fail("dist.connect: mutually exclusive with dist.workers — spawn "
                "local workers or connect to remote daemons, not both");
  }
  if (dist.enabled()) {
    if (!obs.trace.empty()) {
      return fail("obs.trace: the trace is a per-process artifact; it cannot "
                  "represent a run sharded across workers — drop dist.* or "
                  "the trace");
    }
    if (obs.timing) {
      return fail("obs.timing: the wall-clock phase profile is per-process; "
                  "it cannot represent a run sharded across workers — drop "
                  "dist.* or the profile");
    }
    if (dist.timeout_ms == 0) return fail("dist.timeout-ms: must be >= 1");
  }
  if (!dist.connect.empty()) {
    // Endpoint grammar checked up front by the coordinator's own parser: a
    // typo'd endpoint must die before any engine work, like every other
    // malformed value.
    for (const std::string& endpoint : split(dist.connect, ',')) {
      if (!dist::parse_endpoint(endpoint, nullptr, nullptr)) {
        return fail("dist.connect: malformed endpoint \"" + endpoint +
                    "\" — expected host:port");
      }
    }
  }

  // Keys only some experiment kinds consume: accepting an explicit non-
  // default value the run would ignore is the same silent-misconfiguration
  // failure mode util::reject_unknown exists to prevent. Explicit *default*
  // values stay legal so a fully serialized spec (which spells out every
  // key) remains loadable as a --spec file — a validated spec never carries
  // non-default inert keys, so the round trip is safe. The applicability
  // mask lives in the key registry, the same metadata --help-spec prints.
  const unsigned kind = kind_bit(experiment);
  for (const KeyRow& row : key_rows()) {
    if (!row.text || (row.info.kinds & kind) != 0) continue;
    if (explicit_non_default(row)) {
      return fail(row.info.key + ": only meaningful for experiment=" +
                  kinds_label(row.info.kinds) +
                  " — this run would silently ignore it");
    }
  }

  // Swept keys must be meaningful for the kind too: every point of a
  // `sweep.groups` axis on a bandwidth run would silently ignore its value.
  for (const SweepAxis& a : sweeps) {
    const SpecKeyInfo* info = find_spec_key(a.key);
    if (info == nullptr) return fail("sweep." + a.key + ": unknown axis");
    if (a.values.empty()) return fail("sweep." + a.key + ": empty axis");
    if (!info->sweep_only && (info->kinds & kind) == 0) {
      return fail("sweep." + a.key + ": key is only meaningful for experiment=" +
                  kinds_label(info->kinds) +
                  " — every point of this sweep would silently ignore it");
    }
    // Swept numbers are held to the key's bounds and variant values to the
    // axis's variants before the first point runs, so a bad value at the
    // end of an axis cannot fail a sweep halfway. (A malformed number dies
    // when its point parses it.)
    for (const std::string& value : a.values) {
      if (info->sweep_only &&
          std::none_of(info->variants.begin(), info->variants.end(),
                       [&](const AxisVariant& v) { return v.name == value; })) {
        std::string msg = "sweep." + a.key + ": unknown variant \"" + value +
                          "\"; valid values:";
        for (const AxisVariant& v : info->variants) msg += " " + v.name;
        return fail(msg);
      }
      double v = 0;
      if (parse_finite_double(value, &v) && !in_range(info->range, v)) {
        return fail("sweep." + a.key + ": expects " + info->constraints +
                    ", got " + value);
      }
    }
  }
  return true;
}

UniverseConfig ExperimentSpec::universe() const {
  UniverseConfig u;
  u.isp_count = isps;
  u.seed = seed;
  u.max_pairs = pairs;
  u.generator.min_pops = pop_min;
  u.generator.max_pops = pop_max;
  return u;
}

std::string ExperimentSpec::universe_summary() const {
  std::ostringstream os;
  os << isps << " synthetic ISPs, seed " << seed << ", <= " << pairs
     << " pairs, PoPs " << pop_min << "-" << pop_max;
  return os.str();
}

core::NegotiationConfig ExperimentSpec::to_negotiation_config() const {
  core::NegotiationConfig c;
  c.preferences.range = pref_range;
  c.turn = turn;
  c.proposal = proposal;
  c.acceptance = acceptance;
  c.termination = termination;
  c.tie_break = tie_break;
  c.reassign_traffic_fraction = reassign;
  c.settlement_rollback = rollback;
  c.incremental_evaluation = incremental;
  c.verify_incremental_every = verify_incremental;
  // The trace writer replays the engine's per-round history, so requesting
  // a trace turns on round recording everywhere the spec reaches (both
  // experiment engines and the runtime sessions).
  c.record_trace = !obs.trace.empty();
  return c;
}

runtime::ScenarioConfig ExperimentSpec::to_runtime_config() const {
  assert(experiment == ExperimentKind::kRuntime);
  runtime::ScenarioConfig c;
  c.universe = universe();
  c.min_links = runtime.min_links;
  c.session_count = runtime.sessions;
  switch (traffic_model) {
    case traffic::WorkloadModel::kGravity:
      c.traffic = runtime::ScenarioTraffic::kGravityAtoB;
      break;
    case traffic::WorkloadModel::kIdentical:
      c.traffic = runtime::ScenarioTraffic::kBidirectionalIdentical;
      break;
    case traffic::WorkloadModel::kUniformRandom:
      c.traffic = runtime::ScenarioTraffic::kBidirectionalUniformRandom;
      break;
  }
  c.negotiation = to_negotiation_config();
  c.limits.handshake_deadline = runtime.handshake_deadline;
  c.limits.round_timeout = runtime.round_timeout;
  c.limits.max_attempts = static_cast<int>(runtime.max_attempts);
  c.limits.max_steps_per_pump = runtime.burst;
  c.runtime.threads = threads;
  c.runtime.max_ticks = runtime.max_ticks;
  c.transport = runtime.transport;
  c.faults.drop = runtime.drop;
  c.faults.corrupt = runtime.corrupt;
  c.fault_targets = runtime.fault_targets;
  c.start_stagger = runtime.stagger;
  c.durability.dir = runtime.snapshot_dir;
  c.seed = seed;
  c.events = runtime.events;
  return c;
}

std::vector<std::vector<std::pair<std::string, std::string>>> expand_sweep(
    const std::vector<SweepAxis>& axes) {
  std::vector<std::vector<std::pair<std::string, std::string>>> points;
  if (axes.empty()) return points;
  std::size_t total = 1;
  for (const SweepAxis& a : axes) total *= a.values.empty() ? 1 : a.values.size();
  points.reserve(total);
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    std::vector<std::pair<std::string, std::string>> point;
    point.reserve(axes.size());
    for (std::size_t i = 0; i < axes.size(); ++i)
      point.emplace_back(axes[i].key, axes[i].values[odometer[i]]);
    points.push_back(std::move(point));
    // Rightmost axis fastest: the innermost loop of the nested-for order.
    for (std::size_t i = axes.size(); i-- > 0;) {
      if (++odometer[i] < axes[i].values.size()) break;
      odometer[i] = 0;
    }
  }
  return points;
}

}  // namespace nexit::sim
