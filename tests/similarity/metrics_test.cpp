#include "similarity/metrics.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "similarity/minhash.h"

namespace bohr::similarity {
namespace {

TEST(JaccardTest, IdenticalSetsAreOne) {
  const std::vector<std::uint64_t> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(jaccard(xs, xs), 1.0);
}

TEST(JaccardTest, DisjointSetsAreZero) {
  const std::vector<std::uint64_t> xs{1, 2};
  const std::vector<std::uint64_t> ys{3, 4};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
  const std::vector<std::uint64_t> xs{1, 2, 3};
  const std::vector<std::uint64_t> ys{2, 3, 4};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), 0.5);  // |{2,3}| / |{1,2,3,4}|
}

TEST(JaccardTest, DuplicatesTreatedAsSet) {
  const std::vector<std::uint64_t> xs{1, 1, 1, 2};
  const std::vector<std::uint64_t> ys{1, 2, 2};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), 1.0);
}

TEST(JaccardTest, BothEmptyIsZero) {
  EXPECT_DOUBLE_EQ(jaccard({}, {}), 0.0);
}

TEST(JaccardTest, IsSymmetric) {
  const std::vector<std::uint64_t> xs{1, 5, 9, 12};
  const std::vector<std::uint64_t> ys{5, 12, 40};
  EXPECT_DOUBLE_EQ(jaccard(xs, ys), jaccard(ys, xs));
}

TEST(WeightedJaccardTest, MultisetOverlap) {
  const std::unordered_map<std::uint64_t, std::uint64_t> xs{{1, 3}, {2, 1}};
  const std::unordered_map<std::uint64_t, std::uint64_t> ys{{1, 1}, {3, 2}};
  // min: 1 on key 1; max: 3 + 1 + 2 = 6.
  EXPECT_DOUBLE_EQ(weighted_jaccard(xs, ys), 1.0 / 6.0);
}

TEST(WeightedJaccardTest, IdenticalHistogramsAreOne) {
  const std::unordered_map<std::uint64_t, std::uint64_t> xs{{1, 3}, {2, 5}};
  EXPECT_DOUBLE_EQ(weighted_jaccard(xs, xs), 1.0);
}

TEST(CosineTest, ParallelVectorsAreOne) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{2, 4, 6};
  EXPECT_NEAR(cosine(a, b), 1.0, 1e-12);
}

TEST(CosineTest, OrthogonalVectorsAreZero) {
  EXPECT_DOUBLE_EQ(cosine(std::vector<double>{1, 0},
                          std::vector<double>{0, 1}),
                   0.0);
}

TEST(CosineTest, OppositeVectorsAreMinusOne) {
  EXPECT_NEAR(cosine(std::vector<double>{1, 1}, std::vector<double>{-1, -1}),
              -1.0, 1e-12);
}

TEST(CosineTest, ZeroVectorGivesZero) {
  EXPECT_DOUBLE_EQ(
      cosine(std::vector<double>{0, 0}, std::vector<double>{1, 2}), 0.0);
}

TEST(CosineTest, SizeMismatchThrows) {
  EXPECT_THROW(cosine(std::vector<double>{1}, std::vector<double>{1, 2}),
               bohr::ContractViolation);
}

TEST(OverlapCoefficientTest, SubsetIsOne) {
  const std::vector<std::uint64_t> xs{1, 2};
  const std::vector<std::uint64_t> ys{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(overlap_coefficient(xs, ys), 1.0);
}

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  const std::vector<std::uint64_t> keys{10, 20, 30, 40};
  const auto a = MinHashSignature::of(keys, 64);
  const auto b = MinHashSignature::of(keys, 64);
  EXPECT_DOUBLE_EQ(a.estimate_jaccard(b), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  std::vector<std::uint64_t> xs;
  std::vector<std::uint64_t> ys;
  for (std::uint64_t i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(1000 + i);
  }
  const auto a = MinHashSignature::of(xs, 128);
  const auto b = MinHashSignature::of(ys, 128);
  EXPECT_LT(a.estimate_jaccard(b), 0.05);
}

TEST(MinHashTest, EstimateTracksTrueJaccard) {
  // 50% overlap: J = 50 / 150 = 1/3.
  std::vector<std::uint64_t> xs;
  std::vector<std::uint64_t> ys;
  for (std::uint64_t i = 0; i < 100; ++i) xs.push_back(i);
  for (std::uint64_t i = 50; i < 150; ++i) ys.push_back(i);
  const double truth = jaccard(xs, ys);
  const auto a = MinHashSignature::of(xs, 256);
  const auto b = MinHashSignature::of(ys, 256);
  EXPECT_NEAR(a.estimate_jaccard(b), truth, 0.08);
}

TEST(MinHashTest, StreamingEqualsBatch) {
  const std::vector<std::uint64_t> keys{5, 6, 7};
  MinHashSignature streaming(32);
  for (const auto k : keys) streaming.add(k);
  const auto batch = MinHashSignature::of(keys, 32);
  EXPECT_DOUBLE_EQ(streaming.estimate_jaccard(batch), 1.0);
}

TEST(MinHashTest, EmptySignatureEstimatesZero) {
  const MinHashSignature empty(16);
  const auto full = MinHashSignature::of(std::vector<std::uint64_t>{1}, 16);
  EXPECT_DOUBLE_EQ(empty.estimate_jaccard(full), 0.0);
}

TEST(MinHashTest, LengthMismatchThrows) {
  const MinHashSignature a(16);
  const MinHashSignature b(32);
  EXPECT_THROW(a.estimate_jaccard(b), bohr::ContractViolation);
}

TEST(SimHashTest, IdenticalVectorsShareSignature) {
  const std::vector<double> v{0.5, -1.0, 2.0, 0.1};
  EXPECT_EQ(simhash(v, 32, 7), simhash(v, 32, 7));
}

TEST(SimHashTest, CosineEstimateForSimilarVectors) {
  std::vector<double> a(64);
  std::vector<double> b(64);
  Rng rng(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = a[i] + 0.05 * rng.normal();  // small perturbation
  }
  const auto sa = simhash(a, 64, 11);
  const auto sb = simhash(b, 64, 11);
  EXPECT_GT(simhash_cosine_estimate(sa, sb, 64), 0.8);
}

TEST(JaccardSortedTest, MatchesHashedJaccardOnRandomSets) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint64_t> xs;
    std::vector<std::uint64_t> ys;
    for (std::uint64_t k = 0; k < 200; ++k) {
      if (rng.bernoulli(0.3)) xs.push_back(k);
      if (rng.bernoulli(0.3)) ys.push_back(k);
    }
    // Inputs are sorted and unique by construction.
    EXPECT_DOUBLE_EQ(jaccard_sorted(xs, ys), jaccard(xs, ys));
  }
  EXPECT_DOUBLE_EQ(jaccard_sorted({}, {}), 0.0);
  const std::vector<std::uint64_t> only{1, 2, 3};
  EXPECT_DOUBLE_EQ(jaccard_sorted(only, {}), 0.0);
}

TEST(SimHashTest, OppositeVectorsEstimateNegative) {
  std::vector<double> a(32);
  Rng rng(5);
  for (auto& x : a) x = rng.normal();
  std::vector<double> b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) b[i] = -a[i];
  const auto sa = simhash(a, 64, 2);
  const auto sb = simhash(b, 64, 2);
  EXPECT_LT(simhash_cosine_estimate(sa, sb, 64), -0.9);
}

TEST(BbitMinhashTest, CompressionPreservesEstimate) {
  std::vector<std::uint64_t> xs;
  std::vector<std::uint64_t> ys;
  for (std::uint64_t i = 0; i < 300; ++i) xs.push_back(i);
  for (std::uint64_t i = 150; i < 450; ++i) ys.push_back(i);
  const auto full_x = MinHashSignature::of(xs, 512);
  const auto full_y = MinHashSignature::of(ys, 512);
  const double full_estimate = full_x.estimate_jaccard(full_y);

  for (const std::size_t bits : {1u, 2u, 4u, 8u}) {
    const auto bx = BbitSignature::of(full_x, bits);
    const auto by = BbitSignature::of(full_y, bits);
    EXPECT_NEAR(bx.estimate_jaccard(by), full_estimate, 0.12)
        << bits << " bits";
  }
}

TEST(BbitMinhashTest, IdenticalSetsEstimateOne) {
  std::vector<std::uint64_t> keys{1, 2, 3, 4, 5};
  const auto sig = MinHashSignature::of(keys, 128);
  const auto b = BbitSignature::of(sig, 2);
  EXPECT_DOUBLE_EQ(b.estimate_jaccard(b), 1.0);
}

TEST(BbitMinhashTest, WireBytesShrink) {
  const auto sig =
      MinHashSignature::of(std::vector<std::uint64_t>{1, 2, 3}, 128);
  const auto b1 = BbitSignature::of(sig, 1);
  const auto b8 = BbitSignature::of(sig, 8);
  EXPECT_EQ(b1.wire_bytes(), 16u);   // 128 bits / 8
  EXPECT_EQ(b8.wire_bytes(), 128u);  // 128 bytes
  EXPECT_LT(b1.wire_bytes(), 128 * 8u);  // vs 1KiB for the full signature
}

TEST(BbitMinhashTest, MismatchedWidthsThrow) {
  const auto sig =
      MinHashSignature::of(std::vector<std::uint64_t>{1}, 16);
  const auto b2 = BbitSignature::of(sig, 2);
  const auto b4 = BbitSignature::of(sig, 4);
  EXPECT_THROW(b2.estimate_jaccard(b4), bohr::ContractViolation);
  EXPECT_THROW(BbitSignature::of(sig, 0), bohr::ContractViolation);
  EXPECT_THROW(BbitSignature::of(sig, 17), bohr::ContractViolation);
}

}  // namespace
}  // namespace bohr::similarity
