#include "extract/url.h"

#include <algorithm>
#include <array>

#include "common/string_util.h"
#include "text/string_similarity.h"

namespace weber {
namespace extract {

namespace {

// Common second-level public suffixes under which registrable domains sit
// one label deeper ("example.co.uk"). Approximation of the public suffix
// list, sufficient for similarity purposes.
constexpr std::array<std::string_view, 12> kSecondLevelSuffixes = {
    "co.uk", "ac.uk", "org.uk", "gov.uk", "co.jp", "ac.jp",
    "com.au", "net.au", "org.au", "co.in", "ac.in", "com.br",
};

}  // namespace

Result<ParsedUrl> ParseUrl(std::string_view url) {
  std::string_view rest = TrimWhitespace(url);
  if (rest.empty()) return Status::InvalidArgument("empty URL");

  ParsedUrl out;
  size_t scheme_end = rest.find("://");
  if (scheme_end != std::string_view::npos) {
    out.scheme = ToLowerAscii(rest.substr(0, scheme_end));
    rest = rest.substr(scheme_end + 3);
  } else {
    out.scheme = "http";
  }

  size_t path_start = rest.find_first_of("/?#");
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  std::string_view path_etc =
      path_start == std::string_view::npos ? "" : rest.substr(path_start);

  // Strip userinfo.
  size_t at = authority.rfind('@');
  if (at != std::string_view::npos) authority = authority.substr(at + 1);

  // Split host:port.
  size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    int port = 0;
    if (ParseInt(authority.substr(colon + 1), &port)) {
      out.port = port;
      authority = authority.substr(0, colon);
    }
  }
  if (authority.empty()) return Status::InvalidArgument("URL has no host: ", std::string(url));
  out.host = ToLowerAscii(authority);
  out.registrable_domain = RegistrableDomain(out.host);

  // Path: drop query/fragment.
  size_t qf = path_etc.find_first_of("?#");
  std::string_view path = qf == std::string_view::npos ? path_etc : path_etc.substr(0, qf);
  out.path = path.empty() ? "/" : std::string(path);
  return out;
}

std::string RegistrableDomain(std::string_view host) {
  std::string lower = ToLowerAscii(host);
  std::vector<std::string> labels = Split(lower, '.');
  // Drop empty labels from leading/trailing dots.
  labels.erase(std::remove_if(labels.begin(), labels.end(),
                              [](const std::string& l) { return l.empty(); }),
               labels.end());
  if (labels.size() <= 2) return Join(labels, ".");
  std::string last_two = labels[labels.size() - 2] + "." + labels.back();
  for (std::string_view suffix : kSecondLevelSuffixes) {
    if (last_two == suffix) {
      return labels[labels.size() - 3] + "." + last_two;
    }
  }
  return last_two;
}

UrlKey MakeUrlKey(std::string_view url) {
  Result<ParsedUrl> parsed = ParseUrl(url);
  if (!parsed.ok()) return UrlKey{};
  UrlKey key;
  key.host = std::move(parsed->host);
  key.path = std::move(parsed->path);
  key.registrable_domain = std::move(parsed->registrable_domain);
  // Split("/x/y", '/') -> {"", "x", "y"}; index 1 is the first directory.
  std::vector<std::string> dirs = Split(key.path, '/');
  if (dirs.size() > 1) key.first_dir = std::move(dirs[1]);
  return key;
}

double UrlSimilarity(std::string_view url_a, std::string_view url_b) {
  const UrlKey a = MakeUrlKey(url_a);
  const UrlKey b = MakeUrlKey(url_b);
  return UrlSimilarityLadder(a, b, [&] {
    return text::JaroWinklerSimilarity(a.host, b.host);
  });
}

}  // namespace extract
}  // namespace weber
