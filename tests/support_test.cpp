// Unit tests for the support module: error macros, units, RNG, statistics,
// tables, and CLI parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/cli.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace bgp {
namespace {

// ---- expect -----------------------------------------------------------------

TEST(Expect, RequirePassesOnTrue) { EXPECT_NO_THROW(BGP_REQUIRE(1 + 1 == 2)); }

TEST(Expect, RequireThrowsPreconditionError) {
  EXPECT_THROW(BGP_REQUIRE(false), PreconditionError);
}

TEST(Expect, RequireMsgCarriesMessage) {
  try {
    BGP_REQUIRE_MSG(false, "the message");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

TEST(Expect, CheckThrowsInternalError) {
  EXPECT_THROW(BGP_CHECK(false), InternalError);
}

// ---- units ------------------------------------------------------------------

TEST(Units, Constants) {
  EXPECT_DOUBLE_EQ(units::KiB, 1024.0);
  EXPECT_DOUBLE_EQ(units::MiB, 1048576.0);
  EXPECT_DOUBLE_EQ(units::GB, 1e9);
  EXPECT_DOUBLE_EQ(units::usec, 1e-6);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(units::formatBytes(512), "512 B");
  EXPECT_EQ(units::formatBytes(2048), "2.0 KiB");
  EXPECT_EQ(units::formatBytes(8 * units::MiB), "8.0 MiB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(units::formatTime(3.2e-6), "3.20 us");
  EXPECT_EQ(units::formatTime(1.5), "1.500 s");
  EXPECT_EQ(units::formatTime(2e-3), "2.00 ms");
}

TEST(Units, FormatFlops) {
  EXPECT_EQ(units::formatFlops(3.4e9), "3.40 GF/s");
  EXPECT_EQ(units::formatFlops(21.9e12), "21.90 TF/s");
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(units::formatBandwidth(425e6), "425.0 MB/s");
  EXPECT_EQ(units::formatBandwidth(5.1e9), "5.10 GB/s");
}

// ---- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowInRangeAndCoversValues) {
  Rng r(13);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalMeanZeroStdOne) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ReseedResetsStream) {
  Rng r(5);
  const auto first = r();
  r.reseed(5);
  EXPECT_EQ(r(), first);
}

// ---- stats ------------------------------------------------------------------

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    const double v = r.uniform(0, 10);
    (i < 40 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, Percentile) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(Stats, PercentileRequiresNonEmpty) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50), PreconditionError);
}

TEST(Stats, Imbalance) {
  const std::vector<double> balanced = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(imbalance(balanced), 1.0);
  const std::vector<double> skewed = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(imbalance(skewed), 1.5);
}

// ---- table ------------------------------------------------------------------

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), PreconditionError);
}

TEST(Table, PrintAligns) {
  Table t({"name", "value"});
  t.addRow({"x", "1"});
  t.addRow({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumericRowFormatting) {
  Table t({"label", "v1", "v2"});
  t.addRow("row", {1.25, 3.0}, "%.2f");
  EXPECT_EQ(t.row(0)[1], "1.25");
  EXPECT_EQ(t.row(0)[2], "3.00");
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a"});
  t.addRow({"x,y"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

// ---- cli --------------------------------------------------------------------

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--count=5", "--name=bgp"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.getInt("count", 0), 5);
  EXPECT_EQ(cli.get("name", ""), "bgp");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "7"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.getInt("count", 0), 7);
}

TEST(Cli, BooleanFlag) {
  const char* argv[] = {"prog", "--full"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.getBool("full"));
  EXPECT_FALSE(cli.getBool("absent"));
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k=v", "other"};
  Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "other");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.getInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.getDouble("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

// Expects `fn` to throw std::invalid_argument whose message names `needle`.
template <typename F>
void expectRejected(F fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument mentioning " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Cli, RejectsTrailingGarbageNamingTheFlag) {
  const char* argv[] = {"prog", "--ranks=1k", "--scale=2.5x"};
  Cli cli(3, argv);
  expectRejected([&] { cli.getInt("ranks", 0); }, "--ranks=1k");
  expectRejected([&] { cli.getDouble("scale", 0.0); }, "--scale=2.5x");
}

TEST(Cli, RejectsNonNumericAndEmptyValues) {
  const char* argv[] = {"prog", "--topk=abc", "--n=", "--flag"};
  Cli cli(4, argv);
  expectRejected([&] { cli.getInt("topk", 0); }, "--topk=abc");
  expectRejected([&] { cli.getInt("n", 0); }, "--n=");
  // A bare boolean flag has no number to read.
  expectRejected([&] { cli.getDouble("flag", 1.0); }, "--flag=true");
}

TEST(Cli, RejectsOutOfRangeValues) {
  const char* argv[] = {"prog", "--big=99999999999999999999999",
                        "--huge=1e999"};
  Cli cli(3, argv);
  expectRejected([&] { cli.getInt("big", 0); }, "--big=");
  expectRejected([&] { cli.getDouble("huge", 0.0); }, "--huge=1e999");
}

TEST(Cli, AcceptsSignedAndScientificValues) {
  const char* argv[] = {"prog", "--maxops=-1", "--x=1.5e3"};
  Cli cli(3, argv);
  // Range policy belongs to the caller (bgpprof rejects maxops < 1).
  EXPECT_EQ(cli.getInt("maxops", 0), -1);
  EXPECT_DOUBLE_EQ(cli.getDouble("x", 0.0), 1500.0);
}

}  // namespace
}  // namespace bgp
