// Composability algebra (Section 4.2: Equations 6-9).
//
// Two actors a, b are composed into a pseudo-actor "ab" with
//   P_ab         = P_a (+) P_b = P_a + P_b - P_a*P_b                 (Eq. 6)
//   mu_ab P_ab   = muP_a (x) muP_b
//                = mu_a P_a (1 + P_b/2) + mu_b P_b (1 + P_a/2)       (Eq. 7)
// (+) is exactly associative and commutative; (x) is commutative and
// associative to second order. The inverses (Eq. 8, 9) remove a component
// from a composite in O(1): the waiting time an actor sees is the composite
// of its node with its own load removed. The inverse requires P_b != 1 -
// the paper's own caveat; callers must check via can_invert().
#pragma once

#include <span>

#include "prob/load.h"

namespace procon::prob {

/// A composite pseudo-actor: combined blocking probability and combined
/// weighted waiting time mu*P. The expected waiting a newly arriving actor
/// suffers from the composite is exactly `weighted_blocking`.
struct Composite {
  double probability = 0.0;        ///< P of the composite, in [0, 1]
  double weighted_blocking = 0.0;  ///< mu * P of the composite

  /// The identity element (empty node).
  static constexpr Composite identity() noexcept { return {}; }
};

/// Lifts a single actor load into a composite.
[[nodiscard]] Composite to_composite(const ActorLoad& load) noexcept;

/// P_a (+) P_b (Eq. 6).
[[nodiscard]] double compose_probability(double pa, double pb) noexcept;

/// Full composition of two composites (Eq. 6 + Eq. 7).
[[nodiscard]] Composite compose(const Composite& a, const Composite& b) noexcept;

/// Left fold of `loads` with compose(), starting from identity. The fold
/// order is the span order. (x) is associative only to second order, so
/// another order - or peeling a load back out with decompose() - moves the
/// weighted blocking, and the periods predicted from it, by whole percents
/// on loaded nodes. State that must depend only on a set of loads fixes one
/// order: admission::AdmissionController folds its nodes in handle order.
[[nodiscard]] Composite compose_all(std::span<const ActorLoad> loads) noexcept;

/// True if `b` can be removed from a composite (P_b sufficiently far
/// from 1 for Eq. 8 to be well conditioned).
[[nodiscard]] bool can_invert(const Composite& b, double eps = 1e-9) noexcept;

/// Inverse operations: given total = rest (+)/(x) b, recover rest.
/// Throws std::domain_error if !can_invert(b).
[[nodiscard]] double decompose_probability(double p_total, double pb);
[[nodiscard]] Composite decompose(const Composite& total, const Composite& b);

}  // namespace procon::prob
