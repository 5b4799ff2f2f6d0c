/**
 * @file
 * Deterministic random-number generation for workloads and benchmarks.
 *
 * All randomness in this project flows through Rng (xoshiro256**) so that
 * every experiment is reproducible from a seed. ZipfianGenerator provides
 * the skewed key distribution used by the YCSB workload generator.
 */

#ifndef PMDB_COMMON_RNG_HH
#define PMDB_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmdb
{

/**
 * xoshiro256** PRNG. Small, fast, and deterministic across platforms,
 * unlike std::default_random_engine.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p);

  private:
    std::uint64_t state_[4];
};

/**
 * Zipfian-distributed integer generator over [0, itemCount), using the
 * Gray/Jim-Gray rejection-free method popularised by the YCSB core
 * workload generator. theta defaults to YCSB's 0.99.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t item_count, double theta = 0.99,
                     std::uint64_t seed = 12345);

    std::uint64_t next();

  private:
    double zeta(std::uint64_t n, double theta) const;

    std::uint64_t items_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;
    Rng rng_;
};

/**
 * Scrambled-zipfian: zipfian popularity spread over the whole key space
 * via hashing, as YCSB does, so hot keys are not clustered.
 */
class ScrambledZipfianGenerator
{
  public:
    ScrambledZipfianGenerator(std::uint64_t item_count,
                              std::uint64_t seed = 12345);

    std::uint64_t next();

  private:
    ZipfianGenerator zipf_;
    std::uint64_t items_;
};

/** 64-bit finalizer hash (splitmix64 mix step), used for key scrambling. */
std::uint64_t mix64(std::uint64_t x);

/** Byte-wise 64-bit FNV-1a; chain calls through @p hash. */
inline std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace pmdb

#endif // PMDB_COMMON_RNG_HH
