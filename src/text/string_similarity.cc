#include "text/string_similarity.h"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <vector>

namespace weber {
namespace text {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  std::vector<int> row(n + 1);
  for (size_t i = 0; i <= n; ++i) row[i] = static_cast<int>(i);
  for (size_t j = 1; j <= m; ++j) {
    int prev_diag = row[0];  // D[j-1][0]
    row[0] = static_cast<int>(j);
    for (size_t i = 1; i <= n; ++i) {
      int prev_row = row[i];  // D[j-1][i]
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[i] = std::min({row[i - 1] + 1, prev_row + 1, prev_diag + cost});
      prev_diag = prev_row;
    }
  }
  return row[n];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);

  // Match flags, on the stack for the short strings (names, hosts) that
  // make up nearly every call.
  constexpr int kStackChars = 64;
  std::array<char, kStackChars> stack_a{}, stack_b{};
  std::vector<char> heap_a, heap_b;
  char* matched_a = stack_a.data();
  char* matched_b = stack_b.data();
  if (la > kStackChars) {
    heap_a.assign(la, 0);
    matched_a = heap_a.data();
  }
  if (lb > kStackChars) {
    heap_b.assign(lb, 0);
    matched_b = heap_b.data();
  }
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (matched_b[j] || a[i] != b[j]) continue;
      matched_a[i] = matched_b[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions among matched characters.
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

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  int prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  constexpr double kScaling = 0.1;
  return jaro + prefix * kScaling * (1.0 - jaro);
}

double NgramSimilarity(std::string_view a, std::string_view b, int n) {
  if (n < 1) n = 1;
  if (static_cast<int>(a.size()) < n || static_cast<int>(b.size()) < n) {
    return a == b ? 1.0 : 0.0;
  }
  std::unordered_map<std::string, int> grams;
  const int count_a = static_cast<int>(a.size()) - n + 1;
  const int count_b = static_cast<int>(b.size()) - n + 1;
  for (int i = 0; i < count_a; ++i) {
    grams[std::string(a.substr(i, n))] += 1;
  }
  int shared = 0;
  for (int i = 0; i < count_b; ++i) {
    auto it = grams.find(std::string(b.substr(i, n)));
    if (it != grams.end() && it->second > 0) {
      --it->second;
      ++shared;
    }
  }
  return 2.0 * shared / static_cast<double>(count_a + count_b);
}

double LongestCommonSubstringRatio(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<int> prev(n + 1, 0), cur(n + 1, 0);
  int best = 0;
  for (size_t j = 1; j <= m; ++j) {
    for (size_t i = 1; i <= n; ++i) {
      if (a[i - 1] == b[j - 1]) {
        cur[i] = prev[i - 1] + 1;
        best = std::max(best, cur[i]);
      } else {
        cur[i] = 0;
      }
    }
    std::swap(prev, cur);
  }
  return static_cast<double>(best) / static_cast<double>(n);
}

}  // namespace text
}  // namespace weber
