// Pins every SIMD kernel of support/simd.hpp bit-identical to its scalar
// reference on randomized shapes, including the vector remainders (counts
// around the 4- and 8-lane widths of the AVX2 path) and the extreme values
// the unsigned max of edge_times_u32 must order correctly. Also pins the
// 64-byte alignment contract of support/aligned.hpp and the bit-scan edge
// cases of for_each_set_bit.
//
// On hosts without a vector ISA (or with AVGLOCAL_SIMD=OFF) the dispatch
// returns the scalar kernels and these tests compare them to themselves -
// trivially green, by design: the contract is "dispatch == scalar"
// wherever the suite runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "support/aligned.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace {

using namespace avglocal;
namespace simd = support::simd;

std::vector<std::uint64_t> random_words(std::size_t count, support::Xoshiro256& rng) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = rng.next();
  return words;
}

TEST(Simd, ActiveIsaIsKnown) {
  const std::string isa = simd::active_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "scalar") << isa;
#ifdef AVGLOCAL_SIMD_DISABLE
  EXPECT_EQ(isa, "scalar") << "forced-scalar builds must report scalar";
#endif
}

TEST(Aligned, VectorDataIsCacheLineAligned) {
  // Every capacity, including after growth: the allocator fixes alignment,
  // not luck.
  for (const std::size_t count : {1u, 7u, 64u, 1000u}) {
    support::AlignedVector<std::uint64_t> v(count);
    EXPECT_TRUE(support::is_aligned(v.data())) << "count " << count;
    v.resize(count * 3 + 1);
    EXPECT_TRUE(support::is_aligned(v.data())) << "after growth from " << count;
  }
  support::AlignedVector<std::uint32_t> u(13);
  EXPECT_TRUE(support::is_aligned(u.data()));
}

TEST(Simd, CopyWordsMatchesScalar) {
  support::Xoshiro256 rng(11);
  for (const std::size_t count : {0u, 1u, 3u, 8u, 65u, 1024u}) {
    const auto src = random_words(count, rng);
    std::vector<std::uint64_t> got(count + 1, 0xAAu), want(count + 1, 0xAAu);
    simd::copy_words(got.data(), src.data(), count);
    simd::scalar::copy_words(want.data(), src.data(), count);
    EXPECT_EQ(got, want) << "count " << count;
  }
}

TEST(Simd, GatherU64MatchesScalar) {
  support::Xoshiro256 rng(12);
  const auto src = random_words(512, rng);
  for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 63u, 200u}) {
    std::vector<std::uint32_t> idx(count);
    for (auto& i : idx) i = static_cast<std::uint32_t>(rng.below(src.size()));
    std::vector<std::uint64_t> got(count, 0), want(count, 1);
    simd::gather_u64(got.data(), src.data(), idx.data(), count);
    simd::scalar::gather_u64(want.data(), src.data(), idx.data(), count);
    EXPECT_EQ(got, want) << "count " << count;
  }
}

TEST(Simd, EdgeTimesU32MatchesScalar) {
  support::Xoshiro256 rng(13);
  // Radii include 0 and UINT32_MAX: the AVX2 path takes an *unsigned* max
  // (_mm256_max_epu32), which a signed compare would get wrong above 2^31.
  constexpr std::size_t kVertices = 64;
  std::vector<std::uint32_t> radii(kVertices);
  for (auto& r : radii) r = static_cast<std::uint32_t>(rng.next());
  radii[0] = 0;
  radii[1] = UINT32_MAX;
  radii[2] = 0x80000000u;
  radii[3] = 1;
  std::vector<std::size_t> counts(18);
  std::iota(counts.begin(), counts.end(), std::size_t{0});
  counts.push_back(1000);
  for (const std::size_t count : counts) {
    std::vector<std::uint32_t> us(count), vs(count);
    for (std::size_t k = 0; k < count; ++k) {
      // Every fourth edge pairs two of the extreme radii with each other.
      us[k] = static_cast<std::uint32_t>(k % 4 == 0 ? rng.below(4) : rng.below(kVertices));
      vs[k] = static_cast<std::uint32_t>(k % 4 == 0 ? rng.below(4) : rng.below(kVertices));
    }
    std::vector<std::uint32_t> got(count, 0xDDu), want(count, 0xEEu);
    simd::edge_times_u32(got.data(), radii.data(), us.data(), vs.data(), count);
    simd::scalar::edge_times_u32(want.data(), radii.data(), us.data(), vs.data(), count);
    EXPECT_EQ(got, want) << "count " << count;
  }
}

std::vector<std::size_t> collect_bits(const std::vector<std::uint64_t>& words, std::size_t begin,
                                      std::size_t end) {
  std::vector<std::size_t> got;
  simd::for_each_set_bit(words.data(), begin, end, [&](std::size_t bit) { got.push_back(bit); });
  return got;
}

TEST(Simd, ForEachSetBitMatchesPerBitScan) {
  support::Xoshiro256 rng(15);
  const auto words = random_words(5, rng);
  const std::size_t total = words.size() * 64;
  const std::size_t ranges[][2] = {{0, 0},     {0, 1},   {0, 64},   {0, 128},  {1, 64},
                                   {63, 64},   {63, 65}, {64, 128}, {10, 250}, {100, 101},
                                   {128, 192}, {0, total}};
  for (const auto& [begin, end] : ranges) {
    std::vector<std::size_t> want;
    for (std::size_t i = begin; i < end; ++i) {
      if ((words[i >> 6] >> (i & 63)) & 1u) want.push_back(i);
    }
    EXPECT_EQ(collect_bits(words, begin, end), want) << "[" << begin << ", " << end << ")";
  }
}

TEST(Simd, ForEachSetBitOnSolidAndEmptyMasks) {
  const std::vector<std::uint64_t> solid(3, ~std::uint64_t{0});
  EXPECT_EQ(collect_bits(solid, 0, 192).size(), 192u);
  EXPECT_EQ(collect_bits(solid, 5, 67).size(), 62u);
  const std::vector<std::uint64_t> empty(3, 0);
  EXPECT_TRUE(collect_bits(empty, 0, 192).empty());
  EXPECT_TRUE(collect_bits(empty, 63, 129).empty());
}

}  // namespace
