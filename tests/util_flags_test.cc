#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/flags.h"

namespace p2p::util {
namespace {

FlagParser Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

// The message of the UsageError `f.Parse()` throws ("" if it parses).
std::string ParseError(FlagParser& f) {
  try {
    f.Parse();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, EqualsForm) {
  auto f = Make({"--name=val", "--n=42", "--x=2.5"});
  std::string name;
  std::size_t n = 0;
  double x = 0.0;
  f.Add("name", &name, "");
  f.Add("n", &n, "");
  f.Add("x", &x, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_EQ(name, "val");
  EXPECT_EQ(n, 42u);
  EXPECT_DOUBLE_EQ(x, 2.5);
}

TEST(Flags, SpaceForm) {
  auto f = Make({"--name", "val", "--n", "7"});
  std::string name;
  std::uint64_t n = 0;
  f.Add("name", &name, "");
  f.Add("n", &n, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_EQ(name, "val");
  EXPECT_EQ(n, 7u);
}

TEST(Flags, DefaultsWhenAbsent) {
  auto f = Make({});
  std::string s = "fallback";
  std::size_t i = 3;
  double d = 1.5;
  bool b = true;
  f.Add("s", &s, "");
  f.Add("i", &i, "");
  f.Add("d", &d, "");
  f.Add("b", &b, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_EQ(s, "fallback");
  EXPECT_EQ(i, 3u);
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_TRUE(b);
}

TEST(Flags, BooleanForms) {
  auto f = Make({"--on", "--yes=true", "--no=false", "--off", "0"});
  bool on = false, yes = false, no = true, off = true;
  f.Add("on", &on, "");
  f.Add("yes", &yes, "");
  f.Add("no", &no, "");
  f.Add("off", &off, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_TRUE(on);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_FALSE(off);  // "--off 0"
}

TEST(Flags, PositionalArguments) {
  auto f = Make({"cmd", "--k=1", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "cmd");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, BadIntThrows) {
  auto f = Make({"--n=abc"});
  std::size_t n = 0;
  f.Add("n", &n, "");
  EXPECT_THROW(f.Parse(), UsageError);
}

TEST(Flags, BadDoubleThrows) {
  auto f = Make({"--x=zzz"});
  double x = 0.0;
  f.Add("x", &x, "");
  EXPECT_THROW(f.Parse(), UsageError);
}

TEST(Flags, BadBoolThrows) {
  auto f = Make({"--b=maybe"});
  bool b = false;
  f.Add("b", &b, "");
  EXPECT_THROW(f.Parse(), UsageError);
}

TEST(Flags, UnknownFlagDetection) {
  auto f = Make({"--known=1", "--mystery=2"});
  std::size_t known = 0;
  f.Add("known", &known, "");
  EXPECT_EQ(ParseError(f), "unknown flag --mystery");
}

TEST(Flags, HelpListsRegistrations) {
  auto f = Make({});
  std::size_t alpha = 5;
  std::string beta = "x";
  f.Add("alpha", &alpha, "the alpha knob");
  f.Add("beta", &beta, "");
  const std::string help = f.Help();
  EXPECT_NE(help.find("--alpha (default: 5)  the alpha knob"),
            std::string::npos);
  EXPECT_NE(help.find("--beta (default: x)"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Flags, NegativeNumbersAsValues) {
  auto f = Make({"--d=-2.5", "--e", "-1e3"});
  double d = 0.0, e = 0.0;
  f.Add("d", &d, "");
  f.Add("e", &e, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_DOUBLE_EQ(d, -2.5);
  EXPECT_DOUBLE_EQ(e, -1000.0);
}

TEST(Flags, ProgramName) {
  auto f = Make({});
  EXPECT_EQ(f.program(), "prog");
}

// A number parses whole or not at all: "20x" is not 20, and "0.1x" is
// not 0.1. The error names the flag and the value.
TEST(Flags, NumbersParseWhole) {
  for (const char* arg : {"--group=20x", "--group=2 0", "--group=", "--group",
                          "--group=-1", "--group=2.5", "--group=0x14"}) {
    auto f = Make({arg});
    std::size_t group = 20;
    f.Add("group", &group, "");
    const std::string error = ParseError(f);
    EXPECT_NE(error.find("flag --group:"), std::string::npos) << arg;
    EXPECT_EQ(group, 20u) << arg;
  }
  for (const char* arg : {"--loss=0.1x", "--loss=", "--loss=inf",
                          "--loss=nan", "--loss= 0.1"}) {
    auto f = Make({arg});
    double loss = 0.2;
    f.Add("loss", &loss, "");
    EXPECT_NE(ParseError(f).find("flag --loss:"), std::string::npos) << arg;
    EXPECT_DOUBLE_EQ(loss, 0.2) << arg;
  }
  auto f = Make({"--seed=18446744073709551615", "--loss=.5"});
  std::uint64_t seed = 0;
  double loss = 0.0;
  f.Add("seed", &seed, "");
  f.Add("loss", &loss, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_DOUBLE_EQ(loss, 0.5);
}

// List items go through the same whole-token parser; a bad item is a usage
// error, not an uncaught std::invalid_argument.
TEST(Flags, ListItemsParseWhole) {
  for (const char* arg : {"--jitter=0,abc", "--jitter=0,500x", "--jitter=,",
                          "--jitter="}) {
    auto f = Make({arg});
    std::vector<double> jitter = {0, 500};
    f.Add("jitter", &jitter, "");
    EXPECT_NE(ParseError(f).find("flag --jitter:"), std::string::npos) << arg;
    EXPECT_EQ(jitter, (std::vector<double>{0, 500})) << arg;
  }
  auto f = Make({"--jitter", "0,,1e3,2.5,"});
  std::vector<double> jitter;
  f.Add("jitter", &jitter, "");
  ASSERT_TRUE(f.Parse());
  EXPECT_EQ(jitter, (std::vector<double>{0, 1000, 2.5}));
}

TEST(Flags, HelpParsesNothing) {
  auto f = Make({"--help", "--group=20x", "--bogus"});
  std::size_t group = 20;
  f.Add("group", &group, "");
  EXPECT_FALSE(f.Parse());
  EXPECT_EQ(group, 20u);
}

TEST(Flags, DefaultsPrintAsTheyParse) {
  auto f = Make({});
  std::vector<double> loss = {0, 0.05, 0.1};
  double interval = 5000.0;
  bool sync = false;
  f.Add("loss", &loss, "");
  f.Add("interval-ms", &interval, "");
  f.Add("sync", &sync, "");
  const std::string help = f.Help();
  EXPECT_NE(help.find("--loss (default: 0,0.05,0.1)"), std::string::npos);
  EXPECT_NE(help.find("--interval-ms (default: 5000)"), std::string::npos);
  EXPECT_NE(help.find("--sync (default: false)"), std::string::npos);
}

TEST(Flags, SplitListDropsEmptyItems) {
  EXPECT_EQ(SplitList("tree,,mesh,"),
            (std::vector<std::string>{"tree", "mesh"}));
  EXPECT_EQ(SplitList("none"), (std::vector<std::string>{"none"}));
  EXPECT_THROW(SplitList(",,"), UsageError);
  EXPECT_THROW(SplitList(""), UsageError);
}

}  // namespace
}  // namespace p2p::util
