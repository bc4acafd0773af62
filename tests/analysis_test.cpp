// Tests for the analytic models: P(k), the three observations, the Eq. 4
// anonymity bound, and the bandwidth model.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/anonymity.hpp"
#include "analysis/bandwidth_model.hpp"
#include "analysis/observations.hpp"
#include "analysis/path_model.hpp"

namespace p2panon::analysis {
namespace {

TEST(PathModelTest, PathSuccessIsAvailabilityPowerL) {
  EXPECT_NEAR(path_success_probability(0.7, 3), 0.343, 1e-12);
  EXPECT_DOUBLE_EQ(path_success_probability(1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(path_success_probability(0.0, 2), 0.0);
  EXPECT_THROW(path_success_probability(1.5, 3), std::invalid_argument);
}

TEST(PathModelTest, BinomialTailEdgeCases) {
  EXPECT_DOUBLE_EQ(at_least_successes(0, 5, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(at_least_successes(6, 5, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(at_least_successes(3, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(at_least_successes(3, 5, 1.0), 1.0);
  // P(at least 1) = 1 - (1-p)^k.
  EXPECT_NEAR(at_least_successes(1, 4, 0.3), 1.0 - std::pow(0.7, 4), 1e-12);
  // Exhaustive check against direct summation for k = 6, p = 0.37.
  const double p = 0.37;
  for (std::size_t need = 0; need <= 6; ++need) {
    double direct = 0.0;
    for (std::size_t i = need; i <= 6; ++i) {
      double binom = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        binom *= static_cast<double>(6 - j) / static_cast<double>(j + 1);
      }
      direct += binom * std::pow(p, static_cast<double>(i)) *
                std::pow(1 - p, static_cast<double>(6 - i));
    }
    EXPECT_NEAR(at_least_successes(need, 6, p), direct, 1e-10) << need;
  }
}

TEST(PathModelTest, MonteCarloMatchesClosedForm) {
  Rng rng(42);
  for (const double pa : {0.70, 0.86, 0.95}) {
    const double p = path_success_probability(pa, 3);
    for (std::size_t k : {2u, 4u, 8u, 16u}) {
      const double closed = simera_success_probability(k, 2.0, p);
      const double mc = simera_success_monte_carlo(k, 2.0, p, 200000, rng);
      EXPECT_NEAR(mc, closed, 0.01) << "pa=" << pa << " k=" << k;
    }
  }
}

TEST(PathModelTest, SimEraNeedsCeilKOverR) {
  // k = 4, r = 4 -> need 1 path; k = 4, r = 2 -> need 2.
  const double p = 0.5;
  EXPECT_NEAR(simera_success_probability(4, 4.0, p),
              at_least_successes(1, 4, p), 1e-12);
  EXPECT_NEAR(simera_success_probability(4, 2.0, p),
              at_least_successes(2, 4, p), 1e-12);
  EXPECT_THROW(simera_success_probability(0, 2.0, p), std::invalid_argument);
}

// --- the three observations -----------------------------------------------------------

TEST(ObservationsTest, RegimeThresholds) {
  EXPECT_EQ(classify_regime(0.70, 2.0),   // pr = 1.4 > 4/3
            ObservationRegime::kAlwaysSplit);
  EXPECT_EQ(classify_regime(0.60, 2.0),   // pr = 1.2 in (1, 4/3]
            ObservationRegime::kSplitIfLarge);
  EXPECT_EQ(classify_regime(0.40, 2.0),   // pr = 0.8 <= 1
            ObservationRegime::kNeverSplit);
}

TEST(ObservationsTest, ClosedFormBehaviorMatchesClassification) {
  // The paper's Figure 2 settings: L = 3, r = 2,
  // pa = 0.95 -> p = 0.857, pr = 1.71 -> Obs 1;
  // pa = 0.86 -> p = 0.636, pr = 1.27 -> Obs 2;
  // pa = 0.70 -> p = 0.343, pr = 0.69 -> Obs 3.
  struct Case {
    double pa;
    ObservationRegime expected;
  };
  for (const auto& c :
       {Case{0.95, ObservationRegime::kAlwaysSplit},
        Case{0.86, ObservationRegime::kSplitIfLarge},
        Case{0.70, ObservationRegime::kNeverSplit}}) {
    const double p = path_success_probability(c.pa, 3);
    EXPECT_EQ(classify_regime(p, 2.0), c.expected) << c.pa;
    EXPECT_EQ(observe_regime(p, 2, 40), c.expected) << c.pa;
  }
}

TEST(ObservationsTest, Observation2HasCrossover) {
  const double p = path_success_probability(0.86, 3);
  const std::size_t k0 = crossover_k(p, 2, 60);
  EXPECT_GT(k0, 2u);   // there is an initial dip
  EXPECT_LT(k0, 20u);  // and it recovers within the plotted range
  // Obs 1 never dips.
  EXPECT_EQ(crossover_k(path_success_probability(0.95, 3), 2, 60), 0u);
}

TEST(ObservationsTest, AdvisorMeetsTarget) {
  const auto choices = advise_parameters(0.86, 3, 0.99, 4, 64);
  ASSERT_FALSE(choices.empty());
  for (const auto& choice : choices) {
    EXPECT_GE(choice.success, 0.99);
    EXPECT_EQ(choice.k % choice.r, 0u);
  }
}

// --- anonymity (Eq. 4) -------------------------------------------------------------------

TEST(AnonymityTest, NoAttackersMeansNoIdentification) {
  EXPECT_DOUBLE_EQ(initiator_identification_probability(1000, 0.0, 3), 0.0);
}

TEST(AnonymityTest, IncreasesWithAttackerFraction) {
  double prev = 0.0;
  for (double f : {0.05, 0.1, 0.2, 0.4}) {
    const double current = initiator_identification_probability(1000, f, 3);
    EXPECT_GT(current, prev);
    prev = current;
  }
}

TEST(AnonymityTest, LongerPathsReduceWeightPerPosition) {
  // With more relays the first-relay weight shrinks for small f.
  EXPECT_GT(first_relay_compromised_weight(0.1, 2),
            first_relay_compromised_weight(0.1, 8));
}

TEST(AnonymityTest, WeightBelowRawCompromiseRate) {
  // Monte-Carlo reference: how often a first relay that is malicious with
  // probability f is drawn malicious.
  Rng rng(7);
  const double f = 0.2;
  constexpr std::size_t kTrials = 100000;
  std::size_t hits = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    if (rng.bernoulli(f)) ++hits;
  }
  const double raw =
      static_cast<double>(hits) / static_cast<double>(kTrials);
  EXPECT_LT(first_relay_compromised_weight(f, 3), raw + 0.01);
}

TEST(AnonymityTest, MultipathExposureGrowsWithK) {
  EXPECT_NEAR(multipath_first_relay_exposure(0.1, 1), 0.1, 1e-12);
  EXPECT_NEAR(multipath_first_relay_exposure(0.1, 4),
              1.0 - std::pow(0.9, 4), 1e-12);
  EXPECT_GT(multipath_first_relay_exposure(0.1, 8),
            multipath_first_relay_exposure(0.1, 2));
}

TEST(AnonymityTest, RejectsBadFraction) {
  // Only fractions outside [0, 1] are invalid; the closed interval itself
  // is well-defined (f = 1 means certain identification, f = 0 means none).
  EXPECT_THROW(initiator_identification_probability(100, 1.5, 3),
               std::invalid_argument);
  EXPECT_THROW(initiator_identification_probability(100, -0.1, 3),
               std::invalid_argument);
  EXPECT_THROW(first_relay_compromised_weight(-0.01, 3),
               std::invalid_argument);
  EXPECT_THROW(multipath_first_relay_exposure(1.01, 4),
               std::invalid_argument);
}

TEST(AnonymityTest, DegenerateCornersAreWellDefined) {
  // f = 1: every relay is compromised — identification is certain, the
  // honest pool is empty, exposure is total.
  EXPECT_DOUBLE_EQ(initiator_identification_probability(100, 1.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(multipath_first_relay_exposure(1.0, 4), 1.0);
  EXPECT_EQ(honest_anonymity_set(100, 1.0), 0u);
  // f = 0: no attacker anywhere.
  EXPECT_DOUBLE_EQ(initiator_identification_probability(100, 0.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(multipath_first_relay_exposure(0.0, 4), 0.0);
  EXPECT_EQ(honest_anonymity_set(100, 0.0), 100u);
  // Empty network / zero-length path / zero paths: no identification
  // event can occur, and nothing throws.
  EXPECT_DOUBLE_EQ(initiator_identification_probability(0, 0.1, 3), 0.0);
  EXPECT_DOUBLE_EQ(initiator_identification_probability(100, 0.1, 0), 0.0);
  EXPECT_DOUBLE_EQ(first_relay_compromised_weight(0.1, 0), 0.0);
  EXPECT_DOUBLE_EQ(multipath_first_relay_exposure(0.1, 0), 0.0);
  EXPECT_EQ(honest_anonymity_set(0, 0.1), 0u);
  // The probability stays clamped even when L exceeds any realistic bound.
  const double huge_l = initiator_identification_probability(10, 0.9, 64);
  EXPECT_GE(huge_l, 0.0);
  EXPECT_LE(huge_l, 1.0);
}

TEST(AnonymityTest, UniformEntropyMatchesLog2) {
  EXPECT_DOUBLE_EQ(uniform_entropy_bits(0), 0.0);
  EXPECT_DOUBLE_EQ(uniform_entropy_bits(1), 0.0);
  EXPECT_DOUBLE_EQ(uniform_entropy_bits(2), 1.0);
  EXPECT_NEAR(uniform_entropy_bits(90), std::log2(90.0), 1e-12);
  // The honest pool of a 96-node network at f = 0.1 rounds to 86.
  EXPECT_EQ(honest_anonymity_set(96, 0.1), 86u);
}

// --- bandwidth model -----------------------------------------------------------------------

TEST(BandwidthModelTest, FullDeliveryMatchesPaperFormula) {
  BandwidthModel model;
  model.message_size = 1024;
  model.path_length = 3;
  // CurMix: 1 KB x 4 hops = 4 KB.
  EXPECT_NEAR(model.full_delivery_cost(1, 1.0) / 1024.0, 4.0, 1e-9);
  // SimEra(k, r): |M| * r * (L + 1) regardless of k.
  EXPECT_NEAR(model.full_delivery_cost(4, 2.0) / 1024.0, 8.0, 1e-9);
  EXPECT_NEAR(model.full_delivery_cost(8, 2.0) / 1024.0, 8.0, 1e-9);
  EXPECT_NEAR(model.full_delivery_cost(4, 4.0) / 1024.0, 16.0, 1e-9);
  EXPECT_THROW(model.full_delivery_cost(0, 1.0), std::invalid_argument);
}

TEST(BandwidthModelTest, ExpectedCostBetweenHalfAndFull) {
  BandwidthModel model;
  const double full = model.full_delivery_cost(4, 2.0);
  const double expected = model.expected_cost(4, 2.0, 0.5);
  EXPECT_LT(expected, full);
  EXPECT_GT(expected, full / 2.0 - 1e-9);
  // p = 1 recovers the full cost.
  EXPECT_NEAR(model.expected_cost(4, 2.0, 1.0), full, 1e-9);
}

}  // namespace
}  // namespace p2panon::analysis
