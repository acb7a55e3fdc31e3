#include "text/string_similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace weber {
namespace text {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  // The canonical MARTHA / MARHTA example: Jaro = 0.944444.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  // DWAYNE / DUANE: Jaro = 0.822222.
  EXPECT_NEAR(JaroSimilarity("dwayne", "duane"), 0.822222, 1e-5);
}

/// The Jaro similarity as first written, with std::vector<bool> match
/// flags: the oracle for the stack-flag implementation.
double ReferenceJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);
  std::vector<bool> matched_a(la, false), matched_b(lb, false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (matched_b[j] || a[i] != b[j]) continue;
      matched_a[i] = matched_b[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

TEST(JaroTest, MatchesVectorBoolReferenceAcrossTheStackLimit) {
  // Lengths 0..100 straddle the 64-character stack buffer; a 3-letter
  // alphabet makes matches and transpositions common.
  Rng rng(0x7A60);
  for (int round = 0; round < 20000; ++round) {
    std::string a(rng.UniformInt(0, 100), 'a');
    std::string b(rng.UniformInt(0, 100), 'a');
    for (char& c : a) c = static_cast<char>('a' + rng.UniformInt(0, 2));
    for (char& c : b) c = static_cast<char>('a' + rng.UniformInt(0, 2));
    ASSERT_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b)) << a << " | " << b;
  }
}

TEST(JaroWinklerTest, KnownValues) {
  // MARTHA / MARHTA with 3-char common prefix: 0.961111.
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111, 1e-5);
  // DIXON / DICKSONX: Jaro 0.766667, prefix 2 -> 0.813333.
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.813333, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoostCapsAtFourChars) {
  double jw4 = JaroWinklerSimilarity("abcdx", "abcdy");
  double jw5 = JaroWinklerSimilarity("abcdex", "abcdey");
  // Both get the max 4-char prefix boost relative to their Jaro base;
  // neither exceeds 1.
  EXPECT_LE(jw4, 1.0);
  EXPECT_LE(jw5, 1.0);
  EXPECT_GT(jw4, JaroSimilarity("abcdx", "abcdy"));
}

TEST(JaroWinklerTest, NamesWithSharedSurname) {
  // The F7 regime: same last name, different first name -> clearly below
  // identical names.
  double same = JaroWinklerSimilarity("adam cohen", "adam cohen");
  double diff = JaroWinklerSimilarity("adam cohen", "brian cohen");
  EXPECT_DOUBLE_EQ(same, 1.0);
  EXPECT_LT(diff, 0.9);
  EXPECT_GT(diff, 0.4);
}

TEST(NgramTest, BigramKnownValue) {
  // "night" vs "nacht": bigrams {ni,ig,gh,ht} vs {na,ac,ch,ht} -> 1 shared.
  EXPECT_NEAR(NgramSimilarity("night", "nacht"), 2.0 * 1 / 8, 1e-12);
  EXPECT_DOUBLE_EQ(NgramSimilarity("abc", "abc"), 1.0);
}

TEST(NgramTest, ShortStringsFallBackToExactMatch) {
  EXPECT_DOUBLE_EQ(NgramSimilarity("a", "a"), 1.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("a", "b"), 0.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("", ""), 1.0);
}

TEST(NgramTest, RepeatedGramsAreMultisetMatched) {
  // "aaaa" vs "aa": grams {aa,aa,aa} vs {aa} -> 1 shared, 2*1/(3+1)=0.5.
  EXPECT_NEAR(NgramSimilarity("aaaa", "aa"), 0.5, 1e-12);
}

TEST(LcsTest, KnownValues) {
  EXPECT_DOUBLE_EQ(LongestCommonSubstringRatio("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LongestCommonSubstringRatio("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(LongestCommonSubstringRatio("abc", "abc"), 1.0);
  // Longest common substring of "ababc" (5) and "abcba" (5) is "abc".
  EXPECT_NEAR(LongestCommonSubstringRatio("ababc", "abcba"), 3.0 / 5.0, 1e-12);
  // Ratio uses the shorter string: "xabcx" vs "abc" -> 3/3.
  EXPECT_DOUBLE_EQ(LongestCommonSubstringRatio("xabcx", "abc"), 1.0);
}

// Properties over random strings.
class StringSimilarityProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string RandomWord(Rng* rng, int max_len) {
    int len = rng->UniformInt(0, max_len);
    std::string s;
    for (int i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng->UniformInt(0, 5));  // small alphabet
    }
    return s;
  }
};

TEST_P(StringSimilarityProperty, AllMeasuresBoundedSymmetricReflexive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 80; ++trial) {
    std::string a = RandomWord(&rng, 12);
    std::string b = RandomWord(&rng, 12);
    for (auto measure : {LevenshteinSimilarity, JaroSimilarity,
                         JaroWinklerSimilarity,
                         LongestCommonSubstringRatio}) {
      double ab = measure(a, b);
      EXPECT_GE(ab, 0.0) << a << " / " << b;
      EXPECT_LE(ab, 1.0) << a << " / " << b;
      EXPECT_DOUBLE_EQ(ab, measure(b, a)) << a << " / " << b;
      EXPECT_DOUBLE_EQ(measure(a, a), 1.0) << a;
    }
    double ng = NgramSimilarity(a, b);
    EXPECT_GE(ng, 0.0);
    EXPECT_LE(ng, 1.0);
  }
}

TEST_P(StringSimilarityProperty, LevenshteinTriangleInequality) {
  Rng rng(GetParam() ^ 0x77);
  for (int trial = 0; trial < 40; ++trial) {
    std::string a = RandomWord(&rng, 10);
    std::string b = RandomWord(&rng, 10);
    std::string c = RandomWord(&rng, 10);
    EXPECT_LE(LevenshteinDistance(a, c),
              LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
  }
}

TEST_P(StringSimilarityProperty, LevenshteinMatchesNaiveRecursionOnTiny) {
  Rng rng(GetParam() ^ 0x99);
  // Reference implementation: full DP matrix.
  auto reference = [](const std::string& a, const std::string& b) {
    std::vector<std::vector<int>> d(a.size() + 1,
                                    std::vector<int>(b.size() + 1));
    for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<int>(i);
    for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<int>(j);
    for (size_t i = 1; i <= a.size(); ++i) {
      for (size_t j = 1; j <= b.size(); ++j) {
        int cost = a[i - 1] == b[j - 1] ? 0 : 1;
        d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                            d[i - 1][j - 1] + cost});
      }
    }
    return d[a.size()][b.size()];
  };
  for (int trial = 0; trial < 60; ++trial) {
    std::string a = RandomWord(&rng, 8);
    std::string b = RandomWord(&rng, 8);
    EXPECT_EQ(LevenshteinDistance(a, b), reference(a, b)) << a << "/" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringSimilarityProperty,
                         ::testing::Values(11, 29, 404, 8191));

}  // namespace
}  // namespace text
}  // namespace weber
