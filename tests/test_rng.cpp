#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "parallel/collaboration.hpp"

namespace tsmo {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsProduceDistinctStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelowBound) {
  Rng rng(13);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound) << "bound=" << bound;
    }
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(17);
  std::array<int, 10> buckets{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.below(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 10, n / 10 * 0.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(19);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(5, 4), 5);  // inverted clamps to lo
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sumsq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ChanceEdgesAreSure) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, JumpCreatesNonOverlappingStream) {
  Rng base(37);
  Rng jumped = base;
  jumped.jump();
  // The next 1000 outputs of the two streams should not collide.
  std::set<std::uint64_t> from_base;
  for (int i = 0; i < 1000; ++i) from_base.insert(base.next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(from_base.contains(jumped.next()));
  }
}

TEST(Rng, SplitYieldsIndependentChildren) {
  Rng parent(41);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (c1.next() == c2.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
}

// Stream independence at P = 128, for each derivation the parallel
// engines use.  The paper's P is at most 12.
constexpr int kStreams = 128;
constexpr int kDraws = 4096;
constexpr std::uint64_t kStreamSeeds[] = {1, 7, 101, 7919};

/// No 64-bit output repeats across all streams' first kDraws draws, and
/// no two streams' uniforms correlate beyond 6/sqrt(kDraws): six standard
/// errors of the correlation of independent streams.
void expect_independent(std::vector<Rng> streams, const std::string& what) {
  ASSERT_EQ(streams.size(), static_cast<std::size_t>(kStreams));
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(kStreams) * kDraws);
  // Each stream's uniforms, centred and scaled to unit norm, so a dot
  // product is a Pearson correlation.
  std::vector<std::vector<double>> z(kStreams, std::vector<double>(kDraws));
  for (int s = 0; s < kStreams; ++s) {
    double mean = 0.0;
    for (double& u : z[static_cast<std::size_t>(s)]) {
      const std::uint64_t x = streams[static_cast<std::size_t>(s)].next();
      EXPECT_TRUE(seen.insert(x).second) << what << ": output repeats";
      u = static_cast<double>(x >> 11) * 0x1.0p-53;
      mean += u;
    }
    mean /= kDraws;
    double norm = 0.0;
    for (double& u : z[static_cast<std::size_t>(s)]) {
      u -= mean;
      norm += u * u;
    }
    for (double& u : z[static_cast<std::size_t>(s)]) u /= std::sqrt(norm);
  }
  const double bound = 6.0 / std::sqrt(static_cast<double>(kDraws));
  double worst = 0.0;
  for (int a = 0; a < kStreams; ++a) {
    for (int b = a + 1; b < kStreams; ++b) {
      double r = 0.0;
      for (int i = 0; i < kDraws; ++i) {
        r += z[static_cast<std::size_t>(a)][static_cast<std::size_t>(i)] *
             z[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)];
      }
      worst = std::max(worst, std::abs(r));
    }
  }
  EXPECT_LT(worst, bound) << what;
}

TEST(RngStreams, SplitWorkerStreamsIndependentAt128) {
  // WorkerTeam's and SimTeam's workers: split() from seed ^ 0x5eedF00d.
  for (std::uint64_t seed : kStreamSeeds) {
    Rng master(seed ^ 0x5eedF00dULL);
    std::vector<Rng> streams;
    for (int i = 0; i < kStreams; ++i) streams.push_back(master.split());
    expect_independent(streams, "split, seed " + std::to_string(seed));
  }
}

TEST(RngStreams, CollaboratorStreamsIndependentAt128) {
  // Collaborator's searcher streams: seed + id * salt, an offset rather
  // than a jump, for coll's and the hybrid's salts.
  for (std::uint64_t salt : {CollExchange::salt, HybridExchange::salt}) {
    for (std::uint64_t seed : kStreamSeeds) {
      std::vector<Rng> streams;
      for (std::uint64_t id = 0; id < kStreams; ++id) {
        streams.emplace_back(seed + id * salt);
      }
      expect_independent(streams, "salt " + std::to_string(salt) +
                                      ", seed " + std::to_string(seed));
    }
  }
}

TEST(RngStreams, ChunkStreamsIndependentAt128) {
  // Deterministic mode's chunks: Rng(schedule.next()) per chunk.
  for (std::uint64_t seed : kStreamSeeds) {
    Rng schedule(seed);
    std::vector<Rng> streams;
    for (int i = 0; i < kStreams; ++i) streams.emplace_back(schedule.next());
    expect_independent(streams, "chunks, seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace tsmo
