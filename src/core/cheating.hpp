#pragma once

#include <span>

#include "core/oracle.hpp"

namespace nexit::core {

/// The §5.4 cheating strategy, as a decorator over a truthful oracle.
///
/// The cheater is assumed to know the other ISP's preferences perfectly. For
/// each flow it inflates the preference of its own best alternative just
/// enough that this alternative attains the maximum combined sum (so the
/// max-combined-gain selection rule picks it), preserving the relative
/// ordering of its original preferences as far as possible. When inflation
/// alone cannot reach the maximum sum (the class cap P is in the way), it
/// instead deflates the other alternatives' preferences accordingly.
///
/// True valuations (evaluate()) are untouched — the lie only affects what is
/// disclosed, so the engine's private decisions (stop votes, reported gains)
/// still use the cheater's real interests.
class CheatingOracle : public PreferenceOracle {
 public:
  /// `inner` is the cheater's honest self-evaluation; must outlive this.
  /// `range` is the negotiated preference class bound P.
  CheatingOracle(PreferenceOracle& inner, int range);

  Evaluation evaluate(const OracleContext& ctx) override;
  Evaluation evaluate_incremental(const OracleContext& ctx,
                                  const EvaluationDelta& delta) override;
  PreferenceList disclose(const OracleContext& ctx,
                          const PreferenceList& own_truth,
                          const PreferenceList& remote_truth) override;
  [[nodiscard]] bool wants_reassignment() const override;

  /// The lie itself, exposed for tests: writes into `disclosed` what the
  /// cheater advertises for one flow, given its own true classes and the
  /// remote's for the same flow. Throws std::invalid_argument unless the
  /// three rows have the same length.
  static void transform_flow(std::span<const PrefClass> own,
                             std::span<const PrefClass> remote, int range,
                             std::span<PrefClass> disclosed);

 private:
  PreferenceOracle* inner_;
  int range_;
};

}  // namespace nexit::core
