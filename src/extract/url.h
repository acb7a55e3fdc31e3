// URL parsing and URL similarity (feature for F2).

#ifndef WEBER_EXTRACT_URL_H_
#define WEBER_EXTRACT_URL_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace weber {
namespace extract {

/// Decomposed URL. Only the pieces the similarity functions need.
struct ParsedUrl {
  std::string scheme;             ///< "http", "https", ... (lowercased)
  std::string host;               ///< "people.epfl.ch" (lowercased)
  std::string registrable_domain; ///< "epfl.ch" — host minus subdomains
  std::string path;               ///< "/~yerva/index.html" (never empty: "/")
  int port = 0;                   ///< 0 when absent

  bool operator==(const ParsedUrl&) const = default;
};

/// Parses an absolute URL. Accepts scheme-less inputs ("www.epfl.ch/x") by
/// assuming http. Returns InvalidArgument for empty or host-less inputs.
Result<ParsedUrl> ParseUrl(std::string_view url);

/// Approximates the registrable domain of a host: the last two labels, or
/// the last three when the second-to-last is a well-known second-level
/// public suffix ("co.uk", "ac.jp", ...).
std::string RegistrableDomain(std::string_view host);

/// The parts of one URL that UrlSimilarity compares, extracted once so a
/// block can compare many pairs without re-parsing. An unparseable URL has
/// an empty host (ParseUrl rejects host-less URLs), so `host.empty()` marks
/// it.
struct UrlKey {
  std::string host;                ///< lowercased; empty when unparseable
  std::string path;                ///< without query/fragment; "/" at least
  std::string first_dir;           ///< first path directory; "" when none
  std::string registrable_domain;  ///< may be empty (host "." or "..")
};

/// Parses `url` into its UrlKey; an unparseable URL gives an all-empty key.
UrlKey MakeUrlKey(std::string_view url);

/// True when a key field holds a value: a non-empty string, or an interned
/// id >= 0 (the interned form maps empty strings to -1).
inline bool UrlKeyPresent(const std::string& field) { return !field.empty(); }
inline bool UrlKeyPresent(int id) { return id >= 0; }

/// The rungs of UrlSimilarity over two keys of the same shape: UrlKey
/// itself, or a key whose fields are per-block interned ids with -1 for
/// empty. Fields compare with ==, so equal ids mean equal strings.
/// `host_jw()` must return JaroWinklerSimilarity(a.host, b.host); it runs
/// only on the bottom rung.
template <typename Key, typename HostJw>
double UrlSimilarityLadder(const Key& a, const Key& b, HostJw&& host_jw) {
  if (!UrlKeyPresent(a.host) || !UrlKeyPresent(b.host)) return 0.0;
  if (a.host == b.host) {
    if (a.path == b.path) return 1.0;
    // Shared leading directory (beyond the root slash)?
    if (UrlKeyPresent(a.first_dir) && a.first_dir == b.first_dir) return 0.9;
    return 0.8;
  }
  if (UrlKeyPresent(a.registrable_domain) &&
      a.registrable_domain == b.registrable_domain) {
    return 0.6;
  }
  return 0.4 * host_jw();
}

/// URL similarity in [0, 1] (the measure behind F2):
///   1.0              same host, same path
///   0.9              same host, paths share a directory prefix
///   0.8              same host
///   0.6              same registrable domain, different host
///   otherwise        character-level similarity of the hosts, scaled to
///                    [0, 0.4] so cross-domain pages never look like strong
///                    matches.
/// Unparseable URLs compare at 0. Equal to UrlSimilarityLadder over the
/// two URLs' keys.
double UrlSimilarity(std::string_view url_a, std::string_view url_b);

}  // namespace extract
}  // namespace weber

#endif  // WEBER_EXTRACT_URL_H_
