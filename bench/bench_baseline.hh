/**
 * @file
 * Bench-regression gate: parse a bench JSON emission (current run or
 * committed baseline) into a flat key -> value view and compare the
 * two, so CI can fail the build when scheduler throughput drops or a
 * policy's deadline-miss count rises versus the committed baseline
 * (bench/baselines/). runGatedBench() at the bottom is the one
 * driver of the six CI-gated benches: flag parsing, output file,
 * --check-against / --tolerance / --check-only and the verdict.
 *
 * The parser is a deliberately small recursive-descent reader for
 * the JSON these benches themselves emit (objects, arrays, numbers,
 * strings, bools, null — no escapes beyond \" \\ \/ \n \t, which is
 * all the emitters produce). Nested values flatten to dotted paths:
 *
 *   {"fifo": {"layers_per_sec": 10}, "scenarios": [{"name": "x"}]}
 *     -> numbers["fifo.layers_per_sec"] = 10
 *        strings["scenarios.0.name"]    = "x"
 *
 * Comparison semantics:
 *  - throughput keys: current >= baseline * (1 - tolerance/100);
 *    a *negative* tolerance therefore demands current exceed the
 *    baseline, which is how the CI gate verifies itself (a healthy
 *    build must fail a --tolerance -1000 check);
 *  - count keys (deadline misses): current <= baseline, no
 *    tolerance — miss counts are deterministic;
 *  - keys present in the baseline but missing from the current run
 *    fail the check (a renamed metric needs a baseline refresh);
 *    keys new in the current run are ignored (adding metrics must
 *    not break CI until the baseline is refreshed).
 */

#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace herald::benchgate
{

/** Flattened JSON document (see file comment for the path scheme). */
struct FlatJson
{
    std::map<std::string, double> numbers;
    std::map<std::string, std::string> strings;

    bool
    hasNumber(const std::string &key) const
    {
        return numbers.count(key) != 0;
    }

    double
    number(const std::string &key) const
    {
        auto it = numbers.find(key);
        if (it == numbers.end())
            util::fatal("bench gate: missing numeric key ", key);
        return it->second;
    }

    const std::string *
    findString(const std::string &key) const
    {
        auto it = strings.find(key);
        return it == strings.end() ? nullptr : &it->second;
    }

    /**
     * Length of the array at @p prefix, probing @p probe_field of
     * each element (works for the object arrays the benches emit).
     */
    std::size_t
    arrayLen(const std::string &prefix,
             const std::string &probe_field) const
    {
        std::size_t n = 0;
        while (true) {
            std::string key = prefix + "." + std::to_string(n) +
                              "." + probe_field;
            if (!numbers.count(key) && !strings.count(key))
                return n;
            ++n;
        }
    }
};

namespace detail
{

class Parser
{
  public:
    Parser(const std::string &text, const std::string &origin)
        : text(text), origin(origin)
    {
    }

    FlatJson
    run()
    {
        FlatJson out;
        value("", out);
        skipWs();
        if (pos != text.size())
            fail("trailing content after document");
        return out;
    }

  private:
    const std::string &text;
    const std::string &origin;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const char *what)
    {
        util::fatal("bench gate: malformed JSON in ", origin,
                    " at byte ", pos, ": ", what);
    }

    [[noreturn]] void
    failKey(const char *what, const std::string &path)
    {
        util::fatal("bench gate: malformed JSON in ", origin,
                    " at byte ", pos, ": ", what, " \"", path, "\"");
    }

    // A duplicate key would silently overwrite the earlier binding
    // (std::map assignment), so whichever value the emitter wrote
    // last would win the comparison — reject the document instead.
    // Paths are checked across both maps: a key re-bound with a
    // different type is just as corrupt.
    void
    bindNumber(const std::string &path, double v, FlatJson &out)
    {
        if (out.numbers.count(path) || out.strings.count(path))
            failKey("duplicate key", path);
        out.numbers[path] = v;
    }

    void
    bindString(const std::string &path, std::string v, FlatJson &out)
    {
        if (out.numbers.count(path) || out.strings.count(path))
            failKey("duplicate key", path);
        out.strings[path] = std::move(v);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos;
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\') {
                if (pos >= text.size())
                    fail("dangling escape");
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  default: fail("unsupported escape");
                }
            } else {
                out += c;
            }
        }
        if (pos >= text.size())
            fail("unterminated string");
        ++pos; // closing quote
        return out;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos >= text.size() || text[pos] != *p)
                fail("bad literal");
            ++pos;
        }
    }

    static std::string
    join(const std::string &prefix, const std::string &key)
    {
        return prefix.empty() ? key : prefix + "." + key;
    }

    void
    value(const std::string &path, FlatJson &out)
    {
        char c = peek();
        if (c == '{') {
            ++pos;
            if (consume('}'))
                return;
            do {
                std::string key = parseString();
                expect(':');
                value(join(path, key), out);
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            ++pos;
            if (consume(']'))
                return;
            std::size_t idx = 0;
            do {
                value(join(path, std::to_string(idx++)), out);
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            bindString(path, parseString(), out);
        } else if (c == 't') {
            literal("true");
            bindNumber(path, 1.0, out);
        } else if (c == 'f') {
            literal("false");
            bindNumber(path, 0.0, out);
        } else if (c == 'n') {
            literal("null");
        } else {
            const char *start = text.c_str() + pos;
            char *end = nullptr;
            double v = std::strtod(start, &end);
            if (end == start)
                fail("expected a value");
            // strtod happily reads "inf"/"nan" (not JSON, and a NaN
            // baseline would make every gate comparison vacuously
            // pass — NaN fails both < and >).
            if (!std::isfinite(v))
                failKey("non-finite number at", path);
            pos += static_cast<std::size_t>(end - start);
            bindNumber(path, v, out);
        }
    }
};

} // namespace detail

/**
 * Strict numeric parse of the value of bench flag @p flag: the whole
 * string must be one finite number in [@p min, @p max], and an
 * integer when @p integer. A typo like "x25" silently becoming 0
 * would turn the 25% gate into a zero-tolerance gate, "-1" would wrap
 * to a huge thread count; fail loudly, naming the flag, instead.
 */
inline double
parseNumberArg(const char *flag, const char *arg, double min,
               double max, bool integer)
{
    char *end = nullptr;
    const double v = std::strtod(arg, &end);
    if (end != arg && *end == '\0' && std::isfinite(v) && v >= min &&
        v <= max && (!integer || v == std::floor(v)))
        return v;
    std::string expected = integer ? "an integer" : "a number";
    auto text = [](double x) {
        return std::to_string(static_cast<long long>(x));
    };
    if (std::isfinite(max))
        expected += " in [" + text(min) + ", " + text(max) + "]";
    else if (std::isfinite(min))
        expected += " >= " + text(min);
    util::fatal("bench: malformed ", flag, " value \"", arg,
                "\" (expected ", expected, ")");
}

/** Parse @p path (util::fatal on I/O or syntax errors). */
inline FlatJson
parseJsonFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        util::fatal("bench gate: cannot read ", path);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return detail::Parser(text, path).run();
}

/**
 * Accumulates baseline comparisons; every violation prints one line
 * to stderr so a CI failure names exactly what regressed.
 */
class BaselineChecker
{
  public:
    BaselineChecker(const FlatJson &current, const FlatJson &baseline,
                    double tolerance_pct)
        : current(current), baseline(baseline),
          tolerance(tolerance_pct)
    {
    }

    /**
     * Gate a higher-is-better rate: fail when the current value
     * drops more than the tolerance below the baseline. Skipped
     * (with a note) when the baseline lacks the key.
     */
    void
    checkThroughput(const std::string &key)
    {
        if (!baseline.hasNumber(key)) {
            std::fprintf(stderr,
                         "bench gate: note: baseline lacks \"%s\" "
                         "(skipped; refresh baselines)\n",
                         key.c_str());
            return;
        }
        if (!current.hasNumber(key)) {
            failure(key, "metric missing from current run");
            return;
        }
        const double base = baseline.number(key);
        const double cur = current.number(key);
        ++performed;
        const double floor = base * (1.0 - tolerance / 100.0);
        if (cur < floor) {
            std::fprintf(stderr,
                         "bench gate: FAIL %s: %.1f < %.1f "
                         "(baseline %.1f, tolerance %.1f%%)\n",
                         key.c_str(), cur, floor, base, tolerance);
            ++failures;
        }
    }

    /**
     * Gate a deterministic lower-is-better counter (deadline
     * misses): any rise over the baseline fails, tolerance-free.
     */
    void
    checkCountNotAbove(const std::string &current_key,
                       const std::string &baseline_key)
    {
        if (!baseline.hasNumber(baseline_key)) {
            std::fprintf(stderr,
                         "bench gate: note: baseline lacks \"%s\" "
                         "(skipped; refresh baselines)\n",
                         baseline_key.c_str());
            return;
        }
        if (!current.hasNumber(current_key)) {
            failure(current_key, "metric missing from current run");
            return;
        }
        const double base = baseline.number(baseline_key);
        const double cur = current.number(current_key);
        ++performed;
        if (cur > base) {
            std::fprintf(stderr,
                         "bench gate: FAIL %s: %.0f > baseline "
                         "%.0f\n",
                         current_key.c_str(), cur, base);
            ++failures;
        }
    }

    void
    failure(const std::string &key, const char *why)
    {
        std::fprintf(stderr, "bench gate: FAIL %s: %s\n", key.c_str(),
                     why);
        ++failures;
        ++performed; // a probe that failed still counts as a check
    }

    /** Print the verdict; true when everything held. */
    bool
    verdict(const char *bench_name) const
    {
        // A gate that compared nothing proves nothing: a truncated
        // or structurally renamed baseline would skip every probe
        // and leave the gate permanently inert while CI stays
        // green — treat that as a failure in its own right.
        if (performed == 0) {
            std::fprintf(stderr,
                         "bench gate: %s INERT: no comparison "
                         "matched the baseline's structure — "
                         "regenerate bench/baselines/ via the "
                         "refresh-baselines target\n",
                         bench_name);
            return false;
        }
        if (failures == 0) {
            std::printf("bench gate: %s within baseline "
                        "(%d checks, tolerance %.1f%%)\n",
                        bench_name, performed, tolerance);
            return true;
        }
        std::fprintf(stderr,
                     "bench gate: %s REGRESSED: %d of %d check(s) "
                     "failed (refresh bench/baselines/ via the "
                     "refresh-baselines target if intentional)\n",
                     bench_name, failures, performed);
        return false;
    }

  private:
    const FlatJson &current;
    const FlatJson &baseline;
    double tolerance;
    int failures = 0;
    int performed = 0; //!< comparisons that actually executed
};

/**
 * Compare the per-policy miss-count rows of an object array (each
 * element carrying a "policy" label and a "misses" counter, the
 * shape both real-time benches emit): every baseline row must have a
 * label-matched current row whose miss count has not risen. Label
 * matching keeps column reordering from silently skewing the
 * comparison; a baseline row with no current counterpart fails
 * (renames force a baseline refresh).
 */
inline void
checkPolicyMissRows(BaselineChecker &chk, const FlatJson &current,
                    const FlatJson &baseline,
                    const std::string &current_prefix,
                    const std::string &baseline_prefix,
                    const std::string &context)
{
    const std::size_t n_base =
        baseline.arrayLen(baseline_prefix, "misses");
    const std::size_t n_cur =
        current.arrayLen(current_prefix, "misses");
    for (std::size_t i = 0; i < n_base; ++i) {
        std::string brow =
            baseline_prefix + "." + std::to_string(i);
        const std::string *label =
            baseline.findString(brow + ".policy");
        if (!label)
            continue;
        bool found = false;
        for (std::size_t j = 0; j < n_cur; ++j) {
            std::string crow =
                current_prefix + "." + std::to_string(j);
            const std::string *clabel =
                current.findString(crow + ".policy");
            if (clabel && *clabel == *label) {
                chk.checkCountNotAbove(crow + ".misses",
                                       brow + ".misses");
                found = true;
                break;
            }
        }
        if (!found)
            chk.failure(context + "." + *label,
                        "policy row missing from current run");
    }
}

/**
 * A bench-specific flag: a switch when @c metavar is null, else a
 * number parsed by parseNumberArg() within [min, max].
 */
struct ExtraFlag
{
    const char *name;
    const char *metavar;
    double min = 0.0;
    double max = 0.0;
    bool integer = false;
};

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

// The extras the gated benches draw from. --threads mirrors the
// HERALD_THREADS range (0 defers to that variable, then hardware).
inline constexpr ExtraFlag kThreadsFlag{"--threads", "N", 0, 4096, true};
inline constexpr ExtraFlag kFrames60Flag{
    "--frames60", "N", 1, std::numeric_limits<int>::max(), true};
inline constexpr ExtraFlag kMaxSecondsFlag{"--max-seconds", "S", 0,
                                           kUnbounded};
inline constexpr ExtraFlag kSkipReferenceFlag{"--skip-reference",
                                              nullptr};
inline constexpr ExtraFlag kRssSlackMbFlag{"--rss-slack-mb", "MB", 0,
                                           kUnbounded};

/** The parsed command line of a gated bench. */
struct BenchArgs
{
    std::string out;          //!< --out FILE
    bool small = false;       //!< --small: the CI-sized run
    std::string baseline;     //!< --check-against FILE
    double tolerance = 25.0;  //!< --tolerance PCT
    bool checkOnly = false;   //!< --check-only: gate the --out file
    std::map<std::string, double> extras; //!< given extras by name

    /** Value of extra @p flag, or @p fallback when not given. */
    double
    value(const ExtraFlag &flag, double fallback) const
    {
        auto it = extras.find(flag.name);
        return it == extras.end() ? fallback : it->second;
    }

    /** Whether extra @p flag was given. */
    bool
    has(const ExtraFlag &flag) const
    {
        return extras.count(flag.name) != 0;
    }
};

/**
 * What a gated bench plugs into runGatedBench(): its extras, a run
 * body that writes the bench JSON to @c json and returns false when
 * an in-binary assertion failed, and the gate checks that compare a
 * current emission against a baseline.
 */
struct GatedBench
{
    const char *name;
    const char *defaultOut;
    std::vector<ExtraFlag> extras;
    bool (*run)(const BenchArgs &args, std::FILE *json);
    void (*gate)(BaselineChecker &chk, const FlatJson &current,
                 const FlatJson &baseline);
};

/**
 * Parse @p argv against the common flags and @p bench's extras.
 * Prints the usage line and returns nothing on an unknown flag or a
 * missing value; util::fatal on a malformed number.
 */
inline std::optional<BenchArgs>
parseBenchArgs(int argc, char **argv, const GatedBench &bench)
{
    BenchArgs args;
    args.out = bench.defaultOut;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        const ExtraFlag *extra = nullptr;
        for (const ExtraFlag &x : bench.extras) {
            if (flag == x.name && (!x.metavar || has_value))
                extra = &x;
        }
        if (flag == "--small") {
            args.small = true;
        } else if (flag == "--check-only") {
            args.checkOnly = true;
        } else if (flag == "--out" && has_value) {
            args.out = argv[++i];
        } else if (flag == "--check-against" && has_value) {
            args.baseline = argv[++i];
        } else if (flag == "--tolerance" && has_value) {
            args.tolerance = parseNumberArg("--tolerance", argv[++i],
                                            -kUnbounded, kUnbounded,
                                            false);
        } else if (extra) {
            args.extras[extra->name] =
                extra->metavar
                    ? parseNumberArg(extra->name, argv[++i], extra->min,
                                     extra->max, extra->integer)
                    : 1.0;
        } else {
            std::string usage = "usage: " + std::string(argv[0]) +
                                " [--out FILE] [--small] "
                                "[--check-against BASELINE] "
                                "[--tolerance PCT] [--check-only]";
            for (const ExtraFlag &x : bench.extras) {
                usage += " [" + std::string(x.name) +
                         (x.metavar ? " " + std::string(x.metavar)
                                    : "") +
                         "]";
            }
            std::fprintf(stderr, "%s\n", usage.c_str());
            return std::nullopt;
        }
    }
    return args;
}

/** Compare the --out file against the baseline; 0 when it holds. */
inline int
checkAgainstBaseline(const GatedBench &bench, const BenchArgs &args)
{
    const FlatJson current = parseJsonFile(args.out);
    const FlatJson baseline = parseJsonFile(args.baseline);
    BaselineChecker chk(current, baseline, args.tolerance);
    bench.gate(chk, current, baseline);
    return chk.verdict(bench.name) ? 0 : 1;
}

/**
 * main() of a gated bench. With --check-only, gate the existing
 * --out file against --check-against and run nothing. Otherwise
 * open --out, run the bench into it, and exit non-zero when the run
 * failed its own assertions or, given --check-against, when the
 * fresh emission regressed against the baseline.
 */
inline int
runGatedBench(int argc, char **argv, const GatedBench &bench)
{
    util::setVerbose(false);
    std::optional<BenchArgs> args;
    try {
        args = parseBenchArgs(argc, argv, bench);
    } catch (const std::runtime_error &) {
        return 1; // util::fatal has named the malformed flag
    }
    if (!args)
        return 1;
    if (args->checkOnly) {
        if (args->baseline.empty()) {
            std::fprintf(stderr,
                         "--check-only requires --check-against\n");
            return 1;
        }
        return checkAgainstBaseline(bench, *args);
    }
    // Open the output up front so a bad path fails before the run.
    std::FILE *json = std::fopen(args->out.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", args->out.c_str());
        return 1;
    }
    const bool ok = bench.run(*args, json);
    std::fclose(json);
    std::printf("wrote %s\n", args->out.c_str());
    if (!ok)
        return 1;
    return args->baseline.empty() ? 0
                                  : checkAgainstBaseline(bench, *args);
}

} // namespace herald::benchgate

