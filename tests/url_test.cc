#include "extract/url.h"

#include <gtest/gtest.h>

namespace weber {
namespace extract {
namespace {

TEST(ParseUrlTest, FullUrl) {
  auto r = ParseUrl("https://people.epfl.ch/~yerva/index.html?x=1#top");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scheme, "https");
  EXPECT_EQ(r->host, "people.epfl.ch");
  EXPECT_EQ(r->registrable_domain, "epfl.ch");
  EXPECT_EQ(r->path, "/~yerva/index.html");
  EXPECT_EQ(r->port, 0);
}

TEST(ParseUrlTest, SchemelessDefaultsToHttp) {
  auto r = ParseUrl("www.example.com/page");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scheme, "http");
  EXPECT_EQ(r->host, "www.example.com");
}

TEST(ParseUrlTest, HostOnlyGetsRootPath) {
  auto r = ParseUrl("http://example.com");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->path, "/");
}

TEST(ParseUrlTest, PortAndUserinfo) {
  auto r = ParseUrl("http://user@host.org:8080/a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->host, "host.org");
  EXPECT_EQ(r->port, 8080);
  EXPECT_EQ(r->path, "/a");
}

TEST(ParseUrlTest, HostIsLowercased) {
  auto r = ParseUrl("HTTP://WWW.EPFL.CH/X");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->host, "www.epfl.ch");
  EXPECT_EQ(r->path, "/X");  // path case is preserved
}

TEST(ParseUrlTest, RejectsEmptyAndHostless) {
  EXPECT_FALSE(ParseUrl("").ok());
  EXPECT_FALSE(ParseUrl("   ").ok());
  EXPECT_FALSE(ParseUrl("http:///path-only").ok());
}

TEST(RegistrableDomainTest, StandardTlds) {
  EXPECT_EQ(RegistrableDomain("people.epfl.ch"), "epfl.ch");
  EXPECT_EQ(RegistrableDomain("epfl.ch"), "epfl.ch");
  EXPECT_EQ(RegistrableDomain("a.b.c.example.com"), "example.com");
  EXPECT_EQ(RegistrableDomain("localhost"), "localhost");
}

TEST(RegistrableDomainTest, SecondLevelPublicSuffixes) {
  EXPECT_EQ(RegistrableDomain("www.bbc.co.uk"), "bbc.co.uk");
  EXPECT_EQ(RegistrableDomain("lab.u-tokyo.ac.jp"), "u-tokyo.ac.jp");
  EXPECT_EQ(RegistrableDomain("shop.example.com.au"), "example.com.au");
}

TEST(UrlKeyTest, HoldsTheComparedParts) {
  const UrlKey key = MakeUrlKey("http://bob@WWW.BBC.CO.UK:80/news/a.html?x#y");
  EXPECT_EQ(key.host, "www.bbc.co.uk");
  EXPECT_EQ(key.path, "/news/a.html");
  EXPECT_EQ(key.first_dir, "news");
  EXPECT_EQ(key.registrable_domain, "bbc.co.uk");
  EXPECT_EQ(MakeUrlKey("http://h.org").first_dir, "");
  EXPECT_EQ(MakeUrlKey("http://h.org//x").first_dir, "");
  EXPECT_EQ(MakeUrlKey("http://h.org/x").first_dir, "x");
  // Unparseable: every field empty.
  const UrlKey bad = MakeUrlKey("http:///path-only");
  EXPECT_TRUE(bad.host.empty() && bad.path.empty() && bad.first_dir.empty() &&
              bad.registrable_domain.empty());
}

TEST(UrlSimilarityTest, TierValues) {
  // Same host, same path.
  EXPECT_DOUBLE_EQ(
      UrlSimilarity("http://a.com/x/y.html", "http://a.com/x/y.html"), 1.0);
  // Same host, shared first directory.
  EXPECT_DOUBLE_EQ(
      UrlSimilarity("http://a.com/x/one.html", "http://a.com/x/two.html"),
      0.9);
  // Same host, different directories.
  EXPECT_DOUBLE_EQ(
      UrlSimilarity("http://a.com/x/one.html", "http://a.com/z/two.html"),
      0.8);
  // Same registrable domain, different hosts.
  EXPECT_DOUBLE_EQ(
      UrlSimilarity("http://www.epfl.ch/a", "http://people.epfl.ch/b"), 0.6);
}

TEST(UrlSimilarityTest, CrossDomainIsWeak) {
  double sim = UrlSimilarity("http://abc.com/x", "http://xyz.org/y");
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 0.4);
}

TEST(UrlSimilarityTest, UnparseableScoresZero) {
  EXPECT_DOUBLE_EQ(UrlSimilarity("", "http://a.com"), 0.0);
  EXPECT_DOUBLE_EQ(UrlSimilarity("http://a.com", ""), 0.0);
  // Two unparseable URLs do not match each other either.
  EXPECT_DOUBLE_EQ(UrlSimilarity("", ""), 0.0);
  EXPECT_DOUBLE_EQ(UrlSimilarity("http:///a", "http:///a"), 0.0);
}

TEST(UrlSimilarityTest, NonMonotoneTiersSupportRegionCriteria) {
  // The structural fact the F2 region criterion exploits: same-host pages
  // on a hosting provider (different directories, 0.8) score *above*
  // same-domain-different-host personal pages (0.6), even though the
  // latter are more likely the same person. A threshold cannot accept 0.6
  // while rejecting 0.8; regions can.
  double hosting_pair =
      UrlSimilarity("http://hostral.com/u1/p.html", "http://hostral.com/u2/q.html");
  double home_pair =
      UrlSimilarity("http://www.velonar.edu/cohen/a.html",
                    "http://people.velonar.edu/cohen/b.html");
  EXPECT_GT(hosting_pair, home_pair);
}

}  // namespace
}  // namespace extract
}  // namespace weber
