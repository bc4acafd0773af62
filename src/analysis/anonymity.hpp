// Initiator-anonymity analysis (paper §5, Eq. 4).
//
// With N nodes, fraction f of colluding attackers and constant path length
// L, an attacker occupying path positions guesses the initiator correctly
// when the first relay is malicious (Case 1); otherwise every honest node
// is equally likely (Case 2). The probability the immediate predecessor x
// of the first malicious relay is the initiator:
//
//   P(x = I) = (1/L) * S + (1 / (N(1 - f))) * (1 - 1/L) * S,
//   S = sum_{i=1}^{L} i f^i (1 - f)^{L - i}
//
// We implement the closed form plus a Monte-Carlo estimator of the
// first-relay-compromise probability for cross-validation, and degree of
// anonymity metrics derived from it.
#pragma once

#include <cstddef>

namespace p2panon::analysis {

/// P(Case 1): the first relay of an L-relay path is malicious, conditioned
/// the paper's way: sum_i (i/L) f^i (1-f)^{L-i}.
double first_relay_compromised_weight(double f, std::size_t L);

/// Eq. 4: probability the attacker's guess (immediate predecessor) is the
/// initiator.
double initiator_identification_probability(std::size_t N, double f,
                                            std::size_t L);

/// With k node-disjoint paths, the initiator is exposed if ANY path's first
/// relay is malicious: 1 - (1 - f)^k (first relays are k distinct nodes).
/// Quantifies the multipath anonymity cost the paper's §5 argues is
/// acceptable.
double multipath_first_relay_exposure(double f, std::size_t k);

/// Size of the honest pool an attacker is left guessing over in Case 2:
/// round(N * (1 - f)), floored at 1 when any honest node exists (N >= 1,
/// f < 1) and 0 for the fully-degenerate inputs (N = 0 or f = 1).
std::size_t honest_anonymity_set(std::size_t N, double f);

/// Entropy (bits) of a uniform posterior over `set_size` candidates — the
/// closed-form comparator for empirical posterior entropy. 0 for
/// set_size <= 1.
double uniform_entropy_bits(std::size_t set_size);

// All helpers accept the degenerate corners of a sweep grid — f = 0,
// f = 1, L = 0, k = 0, N = 0 — and return the limit value (a probability
// in [0, 1] or a size) instead of NaN/throwing; only f outside [0, 1]
// is rejected.

}  // namespace p2panon::analysis
