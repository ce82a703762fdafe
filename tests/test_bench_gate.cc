/**
 * @file
 * Bench-regression-gate tests: the mini JSON parser behind
 * --check-against (bench/bench_baseline.hh) must flatten well-formed
 * bench emissions and reject corrupt ones — truncated files,
 * non-numeric values, duplicate keys, non-finite numbers — with a
 * clear error instead of silently comparing garbage, and the
 * BaselineChecker must fail loudly rather than go inert when the
 * baseline's structure no longer matches. The gated-bench driver
 * must reject malformed numeric flags by name and fold the run's
 * and the gate's outcomes into its exit status.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_baseline.hh"
#include "util/logging.hh"

namespace
{

using namespace herald;
using benchgate::BaselineChecker;
using benchgate::BenchArgs;
using benchgate::FlatJson;
using benchgate::GatedBench;

/** What fakeRun writes as "x"; fakeGate holds x at or below base. */
double runValue = 5;

bool
fakeRun(const BenchArgs &, std::FILE *json)
{
    std::fprintf(json, "{\"x\": %g}\n", runValue);
    return true;
}

bool
failingRun(const BenchArgs &args, std::FILE *json)
{
    fakeRun(args, json);
    return false;
}

void
fakeGate(BaselineChecker &chk, const FlatJson &, const FlatJson &)
{
    chk.checkCountNotAbove("x", "x");
}

class BenchGateTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    FlatJson
    parse(const std::string &text)
    {
        return benchgate::detail::Parser(text, "test").run();
    }

    /** A bench taking every extra flag. */
    static GatedBench
    bench(bool (*run)(const BenchArgs &, std::FILE *),
          void (*gate)(BaselineChecker &, const FlatJson &,
                       const FlatJson &))
    {
        return {"bench_test",
                "BENCH_test.json",
                {benchgate::kThreadsFlag, benchgate::kFrames60Flag,
                 benchgate::kMaxSecondsFlag,
                 benchgate::kSkipReferenceFlag,
                 benchgate::kRssSlackMbFlag},
                run,
                gate};
    }

    /** argv for @p words, with a program name in front. */
    static std::vector<char *>
    argvOf(std::vector<std::string> &words)
    {
        words.insert(words.begin(), "bench_test");
        std::vector<char *> argv;
        for (std::string &w : words)
            argv.push_back(w.data());
        return argv;
    }

    static std::optional<BenchArgs>
    parseWith(const GatedBench &b, std::vector<std::string> words)
    {
        std::vector<char *> argv = argvOf(words);
        return benchgate::parseBenchArgs(static_cast<int>(argv.size()),
                                         argv.data(), b);
    }

    static std::optional<BenchArgs>
    flags(std::vector<std::string> words)
    {
        return parseWith(bench(fakeRun, fakeGate), std::move(words));
    }

    /** The error a malformed flag value raises ("" if none). */
    static std::string
    flagError(std::vector<std::string> words)
    {
        try {
            flags(std::move(words));
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    }

    static int
    drive(const GatedBench &b, std::vector<std::string> words)
    {
        std::vector<char *> argv = argvOf(words);
        return benchgate::runGatedBench(static_cast<int>(argv.size()),
                                        argv.data(), b);
    }

    static void
    writeFile(const std::string &path, const char *text)
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(text, f);
        std::fclose(f);
    }
};

// ---------------------------------------------------------------
// Parser: well-formed documents
// ---------------------------------------------------------------

TEST_F(BenchGateTest, FlattensNestedObjectsAndArrays)
{
    FlatJson doc = parse(R"({
      "fifo": {"layers_per_sec": 10.5, "ok": true},
      "scenarios": [{"name": "a", "misses": 3},
                    {"name": "b", "misses": 0}],
      "note": "hello\nworld",
      "nothing": null
    })");
    EXPECT_DOUBLE_EQ(doc.number("fifo.layers_per_sec"), 10.5);
    EXPECT_DOUBLE_EQ(doc.number("fifo.ok"), 1.0);
    EXPECT_DOUBLE_EQ(doc.number("scenarios.1.misses"), 0.0);
    ASSERT_NE(doc.findString("scenarios.0.name"), nullptr);
    EXPECT_EQ(*doc.findString("scenarios.0.name"), "a");
    EXPECT_EQ(*doc.findString("note"), "hello\nworld");
    // null binds nothing.
    EXPECT_FALSE(doc.hasNumber("nothing"));
    EXPECT_EQ(doc.findString("nothing"), nullptr);
    EXPECT_EQ(doc.arrayLen("scenarios", "misses"), 2u);
}

TEST_F(BenchGateTest, ParsesNegativeAndExponentNumbers)
{
    FlatJson doc = parse(R"({"a": -1.5, "b": 2.5e6, "c": 0})");
    EXPECT_DOUBLE_EQ(doc.number("a"), -1.5);
    EXPECT_DOUBLE_EQ(doc.number("b"), 2.5e6);
    EXPECT_DOUBLE_EQ(doc.number("c"), 0.0);
}

// ---------------------------------------------------------------
// Parser: corrupt documents
// ---------------------------------------------------------------

TEST_F(BenchGateTest, RejectsTruncatedDocuments)
{
    // A partially written bench JSON (crash mid-emit, full disk)
    // must fail the gate, not be compared as-is.
    EXPECT_THROW(parse(R"({"fifo": {"layers_per_sec": 10)"),
                 std::runtime_error);
    EXPECT_THROW(parse(R"({"rows": [1, 2,)"), std::runtime_error);
    EXPECT_THROW(parse(R"({"name": "unterminated)"),
                 std::runtime_error);
    EXPECT_THROW(parse(""), std::runtime_error);
    EXPECT_THROW(parse("{"), std::runtime_error);
}

TEST_F(BenchGateTest, RejectsNonNumericAndMalformedValues)
{
    EXPECT_THROW(parse(R"({"a": oops})"), std::runtime_error);
    EXPECT_THROW(parse(R"({"a": truE})"), std::runtime_error);
    EXPECT_THROW(parse(R"({"a": ,})"), std::runtime_error);
    // Trailing content after a complete document.
    EXPECT_THROW(parse(R"({"a": 1} garbage)"), std::runtime_error);
}

TEST_F(BenchGateTest, RejectsNonFiniteNumbers)
{
    // strtod happily reads these; a NaN baseline would make every
    // comparison vacuously pass.
    EXPECT_THROW(parse(R"({"a": inf})"), std::runtime_error);
    EXPECT_THROW(parse(R"({"a": -inf})"), std::runtime_error);
    EXPECT_THROW(parse(R"({"a": nan})"), std::runtime_error);
    EXPECT_THROW(parse(R"({"a": 1e999})"), std::runtime_error);
}

TEST_F(BenchGateTest, RejectsDuplicateKeys)
{
    // Same type: the later value would silently win the comparison.
    EXPECT_THROW(parse(R"({"a": 1, "a": 2})"), std::runtime_error);
    // Re-bound with a different type is just as corrupt.
    EXPECT_THROW(parse(R"({"a": 1, "a": "x"})"),
                 std::runtime_error);
    EXPECT_THROW(parse(R"({"a": "x", "a": 1})"),
                 std::runtime_error);
    // Duplicates in nested objects flatten to the same dotted path.
    EXPECT_THROW(parse(R"({"o": {"k": 1}, "o": {"k": 2}})"),
                 std::runtime_error);
    // Same key name at different depths is NOT a duplicate.
    FlatJson doc = parse(R"({"k": 1, "o": {"k": 2}})");
    EXPECT_DOUBLE_EQ(doc.number("k"), 1.0);
    EXPECT_DOUBLE_EQ(doc.number("o.k"), 2.0);
}

TEST_F(BenchGateTest, ParseJsonFileFailsOnMissingFile)
{
    EXPECT_THROW(
        benchgate::parseJsonFile("/nonexistent/bench.json"),
        std::runtime_error);
}

TEST_F(BenchGateTest, ParseToleranceArgIsStrict)
{
    EXPECT_DOUBLE_EQ(flags({"--tolerance", "25"})->tolerance, 25.0);
    EXPECT_DOUBLE_EQ(flags({"--tolerance", "-1000"})->tolerance,
                     -1000.0);
    for (const char *bad : {"x25", "25x", "", "nan", "inf"}) {
        EXPECT_NE(flagError({"--tolerance", bad}).find("--tolerance"),
                  std::string::npos)
            << bad;
    }
}

// ---------------------------------------------------------------
// Gated-bench driver: flags
// ---------------------------------------------------------------

TEST_F(BenchGateTest, BenchFlagsDefaultAndParse)
{
    const std::optional<BenchArgs> none = flags({});
    ASSERT_TRUE(none);
    EXPECT_EQ(none->out, "BENCH_test.json");
    EXPECT_FALSE(none->small);
    EXPECT_FALSE(none->checkOnly);
    EXPECT_TRUE(none->baseline.empty());
    EXPECT_DOUBLE_EQ(none->tolerance, 25.0);
    EXPECT_DOUBLE_EQ(none->value(benchgate::kRssSlackMbFlag, 64.0),
                     64.0);
    EXPECT_FALSE(none->has(benchgate::kSkipReferenceFlag));

    const std::optional<BenchArgs> all =
        flags({"--small", "--out", "o.json", "--check-against",
               "b.json", "--check-only", "--threads", "4096",
               "--frames60", "1", "--max-seconds", "0",
               "--skip-reference", "--rss-slack-mb", "2048"});
    ASSERT_TRUE(all);
    EXPECT_TRUE(all->small);
    EXPECT_TRUE(all->checkOnly);
    EXPECT_EQ(all->out, "o.json");
    EXPECT_EQ(all->baseline, "b.json");
    EXPECT_DOUBLE_EQ(all->value(benchgate::kThreadsFlag, 7), 4096);
    EXPECT_DOUBLE_EQ(all->value(benchgate::kFrames60Flag, 7), 1);
    EXPECT_DOUBLE_EQ(all->value(benchgate::kMaxSecondsFlag, 7), 0);
    EXPECT_TRUE(all->has(benchgate::kSkipReferenceFlag));
    EXPECT_DOUBLE_EQ(all->value(benchgate::kRssSlackMbFlag, 7), 2048);
    EXPECT_DOUBLE_EQ(flags({"--threads", "0"})
                         ->value(benchgate::kThreadsFlag, 7),
                     0);
}

TEST_F(BenchGateTest, BenchFlagsRejectMalformedNumbers)
{
    const std::vector<std::pair<const char *, const char *>> bad = {
        {"--threads", "-1"},      {"--threads", "4097"},
        {"--threads", "2.5"},     {"--threads", "x"},
        {"--frames60", "0"},      {"--frames60", "x"},
        {"--frames60", "-3"},     {"--max-seconds", "abc"},
        {"--max-seconds", "-1"},  {"--max-seconds", "inf"},
        {"--rss-slack-mb", "x"},  {"--rss-slack-mb", "-1"},
        {"--rss-slack-mb", "nan"}};
    for (const auto &[flag, value] : bad) {
        const std::string error = flagError({flag, value});
        EXPECT_NE(error.find(std::string("malformed ") + flag),
                  std::string::npos)
            << flag << " " << value << ": " << error;
    }
}

TEST_F(BenchGateTest, BenchFlagsOutsideTheTableAreUsageErrors)
{
    GatedBench bare = bench(fakeRun, fakeGate);
    bare.extras.clear();
    EXPECT_FALSE(parseWith(bare, {"--threads", "4"}));
    EXPECT_FALSE(parseWith(bare, {"--skip-reference"}));
    EXPECT_FALSE(flags({"--bogus"}));
    // A value flag with its value missing.
    EXPECT_FALSE(flags({"--out"}));
    EXPECT_FALSE(flags({"--threads"}));
}

// ---------------------------------------------------------------
// Gated-bench driver: exit status
// ---------------------------------------------------------------

TEST_F(BenchGateTest, DriverExitStatusCombinesRunAndGate)
{
    const std::string out = ::testing::TempDir() + "bench_gate_out.json";
    const std::string base =
        ::testing::TempDir() + "bench_gate_base.json";
    writeFile(base, R"({"x": 5})");

    // Check-only needs a baseline, and gates the existing --out.
    EXPECT_EQ(drive(bench(fakeRun, fakeGate),
                    {"--check-only", "--out", base}),
              1);
    EXPECT_EQ(drive(bench(fakeRun, fakeGate),
                    {"--check-only", "--out", base, "--check-against",
                     base}),
              0);

    // Run ok / gate ok, run ok / gate fails, run fails.
    const std::vector<const char *> gated = {"--out", out.c_str(),
                                             "--check-against",
                                             base.c_str()};
    auto gated_args = [&] {
        return std::vector<std::string>(gated.begin(), gated.end());
    };
    runValue = 5;
    EXPECT_EQ(drive(bench(fakeRun, fakeGate), gated_args()), 0);
    runValue = 6;
    EXPECT_EQ(drive(bench(fakeRun, fakeGate), gated_args()), 1);
    runValue = 5;
    EXPECT_EQ(drive(bench(failingRun, fakeGate), gated_args()), 1);
    EXPECT_EQ(drive(bench(fakeRun, fakeGate), {"--out", out}), 0);
    EXPECT_EQ(drive(bench(failingRun, fakeGate), {"--out", out}), 1);
    EXPECT_EQ(benchgate::parseJsonFile(out).number("x"), 5.0);
    std::remove(out.c_str());
    std::remove(base.c_str());
}

// ---------------------------------------------------------------
// BaselineChecker semantics
// ---------------------------------------------------------------

TEST_F(BenchGateTest, ThroughputGateHonorsTolerance)
{
    FlatJson cur = parse(R"({"x": {"layers_per_sec": 80}})");
    FlatJson base = parse(R"({"x": {"layers_per_sec": 100}})");

    // 80 vs 100 passes at 25% tolerance, fails at 10%.
    BaselineChecker loose(cur, base, 25.0);
    loose.checkThroughput("x.layers_per_sec");
    EXPECT_TRUE(loose.verdict("test"));

    BaselineChecker tight(cur, base, 10.0);
    tight.checkThroughput("x.layers_per_sec");
    EXPECT_FALSE(tight.verdict("test"));

    // The self-check trick: negative tolerance demands current
    // strictly exceed the baseline.
    BaselineChecker self(cur, base, -1000.0);
    self.checkThroughput("x.layers_per_sec");
    EXPECT_FALSE(self.verdict("test"));
}

TEST_F(BenchGateTest, CountGateIsToleranceFree)
{
    FlatJson cur = parse(R"({"misses": 4})");
    FlatJson base = parse(R"({"misses": 3})");
    BaselineChecker chk(cur, base, 25.0);
    chk.checkCountNotAbove("misses", "misses");
    EXPECT_FALSE(chk.verdict("test"));

    BaselineChecker eq(base, base, 25.0);
    eq.checkCountNotAbove("misses", "misses");
    EXPECT_TRUE(eq.verdict("test"));
}

TEST_F(BenchGateTest, InertGateIsAFailure)
{
    // A baseline whose keys all went missing must fail the gate,
    // not skip every probe and stay green forever.
    FlatJson cur = parse(R"({"renamed": 1})");
    FlatJson base = parse(R"({"gone": 1})");
    BaselineChecker chk(cur, base, 25.0);
    chk.checkThroughput("other");
    EXPECT_FALSE(chk.verdict("test"));
}

TEST_F(BenchGateTest, PolicyMissRowsMatchByLabel)
{
    // Rows reordered between runs: label matching must pair them.
    FlatJson cur = parse(R"({"rows": [
        {"policy": "edf", "misses": 1},
        {"policy": "fifo", "misses": 5}]})");
    FlatJson base = parse(R"({"rows": [
        {"policy": "fifo", "misses": 5},
        {"policy": "edf", "misses": 2}]})");
    BaselineChecker chk(cur, base, 25.0);
    benchgate::checkPolicyMissRows(chk, cur, base, "rows", "rows",
                                   "rows");
    EXPECT_TRUE(chk.verdict("test"));

    // A baseline row with no current counterpart fails.
    FlatJson missing = parse(R"({"rows": [
        {"policy": "edf", "misses": 1}]})");
    BaselineChecker chk2(missing, base, 25.0);
    benchgate::checkPolicyMissRows(chk2, missing, base, "rows",
                                   "rows", "rows");
    EXPECT_FALSE(chk2.verdict("test"));
}

} // namespace
