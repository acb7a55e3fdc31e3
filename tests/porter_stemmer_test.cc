#include "text/porter_stemmer.h"

#include <gtest/gtest.h>

#include <ostream>

namespace weber {
namespace text {
namespace {

struct StemCase {
  const char* word;
  const char* stem;
};

// Names each case by its word (ctest puts this GetParam() text into the
// test name); gtest would otherwise print the two pointers' bytes.
void PrintTo(const StemCase& c, std::ostream* os) { *os << c.word; }

// Classic cases from Porter's paper and the reference implementation's
// vocabulary.
class PorterKnownStems : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterKnownStems, MatchesReference) {
  const StemCase& c = GetParam();
  EXPECT_EQ(PorterStemmer::Stem(c.word), c.stem) << "word=" << c.word;
}

INSTANTIATE_TEST_SUITE_P(
    Step1, PorterKnownStems,
    ::testing::Values(StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
                      StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
                      StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
                      StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
                      StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
                      StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
                      StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
                      StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
                      StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
                      StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
                      StemCase{"filing", "file"}, StemCase{"happy", "happi"},
                      StemCase{"sky", "sky"}));

INSTANTIATE_TEST_SUITE_P(
    Steps2to5, PorterKnownStems,
    ::testing::Values(StemCase{"relational", "relat"},
                      StemCase{"conditional", "condit"},
                      StemCase{"rational", "ration"},
                      StemCase{"valenci", "valenc"},
                      StemCase{"hesitanci", "hesit"},
                      StemCase{"digitizer", "digit"},
                      StemCase{"conformabli", "conform"},
                      StemCase{"radicalli", "radic"},
                      StemCase{"differentli", "differ"},
                      StemCase{"vileli", "vile"},
                      StemCase{"analogousli", "analog"},
                      StemCase{"vietnamization", "vietnam"},
                      StemCase{"predication", "predic"},
                      StemCase{"operator", "oper"},
                      StemCase{"feudalism", "feudal"},
                      StemCase{"decisiveness", "decis"},
                      StemCase{"hopefulness", "hope"},
                      StemCase{"callousness", "callous"},
                      StemCase{"formaliti", "formal"},
                      StemCase{"sensitiviti", "sensit"},
                      StemCase{"sensibiliti", "sensibl"},
                      StemCase{"triplicate", "triplic"},
                      StemCase{"formative", "form"},
                      StemCase{"formalize", "formal"},
                      StemCase{"electriciti", "electr"},
                      StemCase{"electrical", "electr"},
                      StemCase{"hopeful", "hope"},
                      StemCase{"goodness", "good"},
                      StemCase{"revival", "reviv"},
                      StemCase{"allowance", "allow"},
                      StemCase{"inference", "infer"},
                      StemCase{"airliner", "airlin"},
                      StemCase{"gyroscopic", "gyroscop"},
                      StemCase{"adjustable", "adjust"},
                      StemCase{"defensible", "defens"},
                      StemCase{"irritant", "irrit"},
                      StemCase{"replacement", "replac"},
                      StemCase{"adjustment", "adjust"},
                      StemCase{"dependent", "depend"},
                      StemCase{"adoption", "adopt"},
                      StemCase{"homologou", "homolog"},
                      StemCase{"communism", "commun"},
                      StemCase{"activate", "activ"},
                      StemCase{"angulariti", "angular"},
                      StemCase{"homologous", "homolog"},
                      StemCase{"effective", "effect"},
                      StemCase{"bowdlerize", "bowdler"},
                      StemCase{"probate", "probat"},
                      StemCase{"rate", "rate"},
                      StemCase{"cease", "ceas"},
                      StemCase{"controll", "control"},
                      StemCase{"roll", "roll"}));

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStemmer::Stem("a"), "a");
  EXPECT_EQ(PorterStemmer::Stem("is"), "is");
  EXPECT_EQ(PorterStemmer::Stem(""), "");
}

TEST(PorterStemmerTest, StemmingUnifiesInflections) {
  // The property the TF-IDF pipeline relies on: inflected forms of one
  // lemma map to one stem.
  EXPECT_EQ(PorterStemmer::Stem("connect"), PorterStemmer::Stem("connected"));
  EXPECT_EQ(PorterStemmer::Stem("connect"), PorterStemmer::Stem("connecting"));
  EXPECT_EQ(PorterStemmer::Stem("connect"), PorterStemmer::Stem("connection"));
  EXPECT_EQ(PorterStemmer::Stem("connect"), PorterStemmer::Stem("connections"));
}

TEST(PorterStemmerTest, StemIsStableUnderRestemmingForCommonWords) {
  // Not a theorem for Porter in general — e.g. "databases" -> "databas"
  // restems to "databa", because the plural rule strips the trailing s
  // again — but it holds for stems that do not end in s/e, and guards
  // against gross regressions.
  for (const char* w : {"running", "entities", "resolution", "clustering",
                        "similarity", "documents"}) {
    std::string once = PorterStemmer::Stem(w);
    EXPECT_EQ(PorterStemmer::Stem(once), once) << w;
  }
}

TEST(PorterStemmerTest, DocumentedNonIdempotenceExample) {
  EXPECT_EQ(PorterStemmer::Stem("databases"), "databas");
  EXPECT_EQ(PorterStemmer::Stem("databas"), "databa");  // Porter behaviour
}

}  // namespace
}  // namespace text
}  // namespace weber
