#include "core/cheating.hpp"

#include <algorithm>
#include <stdexcept>

namespace nexit::core {

CheatingOracle::CheatingOracle(PreferenceOracle& inner, int range)
    : inner_(&inner), range_(range) {
  if (range < 1) throw std::invalid_argument("CheatingOracle: range < 1");
}

Evaluation CheatingOracle::evaluate(const OracleContext& ctx) {
  return inner_->evaluate(ctx);
}

Evaluation CheatingOracle::evaluate_incremental(const OracleContext& ctx,
                                                const EvaluationDelta& delta) {
  return inner_->evaluate_incremental(ctx, delta);
}

bool CheatingOracle::wants_reassignment() const {
  return inner_->wants_reassignment();
}

void CheatingOracle::transform_flow(std::span<const PrefClass> own,
                                   std::span<const PrefClass> remote,
                                   int range, std::span<PrefClass> disclosed) {
  if (own.size() != remote.size() || own.size() != disclosed.size())
    throw std::invalid_argument("CheatingOracle: size mismatch");
  std::copy(own.begin(), own.end(), disclosed.begin());
  if (own.empty()) return;

  // The cheater's favourite alternative (ties toward the lowest index).
  std::size_t best = 0;
  for (std::size_t c = 1; c < own.size(); ++c)
    if (own[c] > own[best]) best = c;

  // Combined sum the selection rule would currently maximise.
  int max_sum = disclosed[0] + remote[0];
  for (std::size_t c = 1; c < own.size(); ++c)
    max_sum = std::max(max_sum, disclosed[c] + remote[c]);

  // Inflate the favourite just enough to reach the maximum sum.
  const int needed = max_sum - remote[best];
  disclosed[best] = std::clamp(std::max(disclosed[best], needed), -range, range);

  // If the cap prevented the favourite from reaching the top, deflate the
  // competitors so the favourite's sum still wins.
  const int best_sum = disclosed[best] + remote[best];
  for (std::size_t c = 0; c < own.size(); ++c) {
    if (c == best) continue;
    const int cap = best_sum - remote[c];  // keep sum(c) <= sum(best)
    disclosed[c] = std::clamp(std::min(disclosed[c], cap), -range, range);
  }
}

PreferenceList CheatingOracle::disclose(const OracleContext& ctx,
                                        const PreferenceList& own_truth,
                                        const PreferenceList& remote_truth) {
  (void)ctx;
  if (own_truth.rows() != remote_truth.rows() ||
      own_truth.cols() != remote_truth.cols())
    throw std::invalid_argument("CheatingOracle: list shape mismatch");
  PreferenceList lie(own_truth.rows(), own_truth.cols());
  for (std::size_t pos = 0; pos < own_truth.rows(); ++pos)
    transform_flow(own_truth[pos], remote_truth[pos], range_, lie[pos]);
  return lie;
}

}  // namespace nexit::core
