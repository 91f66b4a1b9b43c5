// FlagParser tests, and the range checks BuildExperimentConfig applies to the
// shared experiment flags.

#include <string>

#include <gtest/gtest.h>

#include "src/common/flags.h"
#include "src/core/config_flags.h"

namespace threesigma {
namespace {

struct TestFlags {
  std::string name = "default";
  int64_t count = 7;
  double ratio = 0.5;
  bool verbose = false;
  bool feature = true;
};

FlagParser MakeParser(TestFlags* f) {
  FlagParser parser("test program");
  parser.AddString("name", &f->name, "a name")
      .AddInt("count", &f->count, "a count")
      .AddDouble("ratio", &f->ratio, "a ratio")
      .AddBool("verbose", &f->verbose, "verbosity")
      .AddBool("feature", &f->feature, "a feature");
  return parser;
}

bool ParseArgs(FlagParser& parser, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parser.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--name=alice", "--count=42", "--ratio=1.25"}));
  EXPECT_EQ(f.name, "alice");
  EXPECT_EQ(f.count, 42);
  EXPECT_DOUBLE_EQ(f.ratio, 1.25);
}

TEST(FlagParserTest, SpaceSyntax) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--name", "bob", "--count", "-3"}));
  EXPECT_EQ(f.name, "bob");
  EXPECT_EQ(f.count, -3);
}

TEST(FlagParserTest, BoolForms) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--verbose", "--no-feature"}));
  EXPECT_TRUE(f.verbose);
  EXPECT_FALSE(f.feature);
}

TEST(FlagParserTest, BoolExplicitValue) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--verbose=true", "--feature=false"}));
  EXPECT_TRUE(f.verbose);
  EXPECT_FALSE(f.feature);
}

TEST(FlagParserTest, UnknownFlagFails) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  EXPECT_FALSE(ParseArgs(p, {"--nonsense=1"}));
  EXPECT_EQ(p.exit_code(), 1);
}

TEST(FlagParserTest, BadIntFails) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  EXPECT_FALSE(ParseArgs(p, {"--count=abc"}));
  EXPECT_EQ(p.exit_code(), 1);
}

TEST(FlagParserTest, MissingValueFails) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  EXPECT_FALSE(ParseArgs(p, {"--name"}));
  EXPECT_EQ(p.exit_code(), 1);
}

TEST(FlagParserTest, HelpReturnsFalseWithZeroExit) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  EXPECT_FALSE(ParseArgs(p, {"--help"}));
  EXPECT_EQ(p.exit_code(), 0);
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"input.txt", "--count=1", "other"}));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.positional()[1], "other");
}

TEST(FlagParserTest, HelpTextMentionsFlagsAndDefaults) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  const std::string help = p.HelpText();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("default \"default\""), std::string::npos);
  EXPECT_NE(help.find("--no-verbose"), std::string::npos);
}

TEST(FlagParserTest, DefaultsUntouchedWithoutFlags) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {}));
  EXPECT_EQ(f.name, "default");
  EXPECT_EQ(f.count, 7);
  EXPECT_TRUE(f.feature);
}

TEST(FlagParserTest, NegativeNumbersBothSyntaxes) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--count=-5", "--ratio", "-2.5"}));
  EXPECT_EQ(f.count, -5);
  EXPECT_DOUBLE_EQ(f.ratio, -2.5);
}

TEST(FlagParserTest, RepeatedFlagLastValueWins) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--count=1", "--count=2", "--name=a", "--name", "b",
                            "--feature", "--no-feature"}));
  EXPECT_EQ(f.count, 2);
  EXPECT_EQ(f.name, "b");
  EXPECT_FALSE(f.feature);
}

TEST(FlagParserTest, EmptyEqualsValue) {
  TestFlags f;
  f.name = "nonempty";
  FlagParser p = MakeParser(&f);
  // `--name=` assigns the empty string; `--verbose=` reads as bare-true.
  ASSERT_TRUE(ParseArgs(p, {"--name=", "--verbose="}));
  EXPECT_EQ(f.name, "");
  EXPECT_TRUE(f.verbose);
}

TEST(FlagParserTest, EmptyEqualsValueFailsForNumbers) {
  {
    TestFlags f;
    FlagParser p = MakeParser(&f);
    EXPECT_FALSE(ParseArgs(p, {"--count="}));
    EXPECT_EQ(p.exit_code(), 1);
  }
  {
    TestFlags f;
    FlagParser p = MakeParser(&f);
    EXPECT_FALSE(ParseArgs(p, {"--ratio="}));
    EXPECT_EQ(p.exit_code(), 1);
  }
}

TEST(FlagParserTest, TrailingGarbageAfterNumberFails) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  EXPECT_FALSE(ParseArgs(p, {"--count=12abc"}));
  EXPECT_EQ(p.exit_code(), 1);
}

TEST(FlagParserTest, DoubleDashEndsFlagParsing) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  ASSERT_TRUE(ParseArgs(p, {"--count=9", "--", "--name=ignored", "-x", "plain"}));
  EXPECT_EQ(f.count, 9);
  EXPECT_EQ(f.name, "default");  // Not assigned: it came after `--`.
  ASSERT_EQ(p.positional().size(), 3u);
  EXPECT_EQ(p.positional()[0], "--name=ignored");
  EXPECT_EQ(p.positional()[1], "-x");
  EXPECT_EQ(p.positional()[2], "plain");
}

TEST(FlagParserTest, NoPrefixOnNonBoolIsUnknown) {
  TestFlags f;
  FlagParser p = MakeParser(&f);
  // `--no-count` does not downgrade to bool handling; it is an unknown flag.
  EXPECT_FALSE(ParseArgs(p, {"--no-count=1"}));
  EXPECT_EQ(p.exit_code(), 1);
}

TEST(FlagParserDeathTest, NullTargetRegistrationDies) {
  EXPECT_DEATH(
      {
        FlagParser parser("doc");
        parser.AddInt("count", nullptr, "a count");
      },
      "target != nullptr");
}

// Every numeric experiment flag outside the range its consumer TS_CHECKs is
// rejected by BuildExperimentConfig, naming the flag, instead of hanging or
// aborting deep in the cluster, scheduler, generator, simulator or fault
// code. Values at each bound are accepted. Nothing here builds a workload or
// starts a thread.
TEST(ExperimentFlagsTest, OutOfRangeValuesFailSoft) {
  const auto build = [](const char* arg, std::string* error) {
    ExperimentFlags flags;
    FlagParser parser("test program");
    RegisterExperimentFlags(parser, &flags);
    EXPECT_TRUE(ParseArgs(parser, {arg})) << arg;
    ExperimentConfig config;
    return BuildExperimentConfig(flags, &config, error);
  };
  for (const char* arg :
       {"--cycle=0", "--cycle=-5", "--max-pending=-3", "--groups=0", "--nodes-per-group=-1",
        "--start-slots=0", "--hours=-1", "--hours=inf", "--load=0", "--load=nan",
        "--fault-kill-prob=2", "--fault-straggler-prob=-0.1", "--fault-stall-prob=1.5",
        "--fault-straggler-factor=0.5", "--solver-threads=65", "--solver-threads=0"}) {
    std::string error;
    EXPECT_FALSE(build(arg, &error)) << arg;
    const std::string flag(arg, std::string(arg).find('='));
    EXPECT_NE(error.find(flag), std::string::npos) << arg << ": " << error;
  }
  for (const char* arg : {"--solver-threads=64", "--solver-threads=1", "--start-slots=1",
                          "--groups=1", "--fault-kill-prob=1", "--fault-straggler-factor=1"}) {
    std::string error;
    EXPECT_TRUE(build(arg, &error)) << arg << ": " << error;
  }
}

}  // namespace
}  // namespace threesigma
