// Deterministic random-number utilities.
//
// All stochastic models take an Rng& explicitly (no global state) so that
// every simulation, test, and benchmark is reproducible from its seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace dh {

namespace detail {

/// splitmix64 finalizer: full-avalanche 64-bit mix (Steele et al.). Every
/// input bit affects every output bit, so nearby inputs (consecutive
/// stream indices) map to statistically independent seeds.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The splitmix64 sequence increment (golden-ratio constant).
inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

}  // namespace detail

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>{lo, hi}(engine_);
  }

  /// Standard normal deviate scaled to (mean, sigma), sigma >= 0. Sigma 0
  /// returns `mean` and still advances the engine as any other sigma does.
  [[nodiscard]] double normal(double mean, double sigma) {
    // Scaled here, not by the distribution: std::normal_distribution
    // requires stddev > 0, and callers pass 0 to switch noise off. The
    // distribution computes the same z * stddev + mean, so the bits match.
    return std::normal_distribution<double>{}(engine_) * sigma + mean;
  }

  /// Lognormal deviate with the given log-domain parameters.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Bernoulli trial with probability p of true.
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Seed of child stream `index` of `root_seed` — the index-th output of
  /// the splitmix64 sequence started at root_seed. Order-independent:
  /// stream i is the same no matter which streams were derived before it,
  /// which is what makes parallel Monte-Carlo populations bit-identical
  /// at any thread count.
  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t root_seed,
                                                std::uint64_t index) {
    return detail::mix64(root_seed + (index + 1) * detail::kGolden);
  }

  /// Child stream `index` of `root_seed` (see stream_seed).
  [[nodiscard]] static Rng stream(std::uint64_t root_seed,
                                  std::uint64_t index) {
    return Rng{stream_seed(root_seed, index)};
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }
  [[nodiscard]] const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dh
