// Unit and property tests for the util module (rng, stats, table, cli).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace mcharge {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(99);
  double sum = 0.0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(17);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(Rng, SplitMix64KnownDistinct) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

// ---------- RunningStats ----------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(21);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// ---------- SampleSet ----------

TEST(SampleSet, QuantilesOfKnownData) {
  SampleSet s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

// ---------- Table ----------

TEST(Table, CsvRoundTrip) {
  Table t({"n", "algo", "delay"});
  t.start_row();
  t.add(static_cast<long long>(200));
  t.add(std::string("Appro"));
  t.add(12.345, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "n,algo,delay\n200,Appro,12.35\n");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"a", "long_header"});
  t.start_row();
  t.add(std::string("x"));
  t.add(std::string("y"));
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowsCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.start_row();
  t.add(std::string("1"));
  t.start_row();
  t.add(std::string("2"));
  EXPECT_EQ(t.rows(), 2u);
}

// ---------- CliFlags ----------

TEST(CliFlags, ParsesKeyValueAndBare) {
  const char* argv[] = {"prog", "--n=500", "--verbose", "positional",
                        "--rate=2.5"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("n", 0), 500);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_FALSE(flags.has("positional"));
}

TEST(CliFlags, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_EQ(flags.get("name", "x"), "x");
  EXPECT_FALSE(flags.get_bool("flag", false));
  EXPECT_TRUE(flags.get_bool("flag", true));
}

TEST(CliFlags, ExplicitBoolValues) {
  const char* argv[] = {"prog", "--a=false", "--b=1", "--c=yes"};
  CliFlags flags(4, argv);
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
}

const std::vector<FlagSpec> kBenchFlags = {{"instances", FlagKind::kCount},
                                           {"jobs", FlagKind::kCount},
                                           {"months", FlagKind::kNumber},
                                           {"csv", FlagKind::kText}};

std::string check_args(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return CliFlags(static_cast<int>(args.size()), args.data())
      .check(kBenchFlags);
}

TEST(CliFlags, CheckAcceptsValidFlagsAndKeepsTheirValues) {
  EXPECT_EQ(check_args({}), "");
  const char* argv[] = {"prog", "--instances=100", "--jobs=0",
                        "--months=0.25", "--csv=out/fig3"};
  const CliFlags flags(5, argv);
  EXPECT_EQ(flags.check(kBenchFlags), "");
  EXPECT_EQ(flags.get_int("instances", 10), 100);
  EXPECT_EQ(flags.get_int("jobs", 4), 0);
  EXPECT_EQ(flags.get_double("months", 12.0), 0.25);
  EXPECT_EQ(flags.get("csv", ""), "out/fig3");
  EXPECT_EQ(check_args({"--months=1e-1"}), "");
}

TEST(CliFlags, CheckRejectsUnknownAndRemovedFlags) {
  // A typo of --instances, and flags no bench accepts any more.
  EXPECT_EQ(check_args({"--instance=100"}), "unknown flag --instance");
  EXPECT_EQ(check_args({"--jobs=2", "--shard=0/4", "--chunk=x"}),
            "unknown flag --chunk");
  EXPECT_NE(check_args({"--plan-jobs=4"}).find("--plan-jobs"),
            std::string::npos);
}

TEST(CliFlags, CheckRejectsValuesThatAreNotEntirelyNumeric) {
  for (const char* arg : {"--instances=ten", "--instances=", "--instances",
                          "--instances=10x", "--instances= 10",
                          "--instances=+10", "--instances=1.5"}) {
    const std::string error = check_args({arg});
    EXPECT_NE(error.find("--instances"), std::string::npos) << arg;
    EXPECT_NE(error.find("non-negative integer"), std::string::npos) << arg;
  }
  // atoll would turn these into SIZE_MAX and an overflowed count.
  EXPECT_NE(check_args({"--jobs=-1"}), "");
  EXPECT_NE(check_args({"--jobs=99999999999999999999"}), "");
  for (const char* arg : {"--months=1.5x", "--months=", "--months=inf",
                          "--months=nan", "--months=1e999", "--months= 1"}) {
    const std::string error = check_args({arg});
    EXPECT_NE(error.find("--months"), std::string::npos) << arg;
    EXPECT_NE(error.find("finite number"), std::string::npos) << arg;
  }
}

TEST(CliFlags, CheckRejectsPositionalArguments) {
  // A missing "--" would otherwise drop the setting silently.
  EXPECT_NE(check_args({"instances=100"}).find("instances=100"),
            std::string::npos);
}

TEST(CliFlagsDeathTest, RequireValidExitsWithCodeTwoNamingTheFlag) {
  const char* argv[] = {"prog", "--jobs=-1"};
  const CliFlags flags(2, argv);
  EXPECT_EXIT(flags.require_valid(kBenchFlags), ::testing::ExitedWithCode(2),
              "--jobs=-1");
  const char* ok[] = {"prog", "--jobs=3"};
  CliFlags(2, ok).require_valid(kBenchFlags);  // returns normally
}

}  // namespace
}  // namespace mcharge
