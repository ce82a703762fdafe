/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call into a library layer: name, start, end,
 * the enclosing span, and an optional candidate or frame id. Spans
 * stay in memory while the run executes and are written once, at the
 * end, as Chrome trace-event JSON ("X" complete events), which
 * Perfetto and chrome://tracing open directly.
 *
 * Scope is a no-op when its tracer is null, so the same code path runs
 * traced and untraced; the difference between the two runs is the
 * tracing overhead.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;       //!< index of the enclosing span, -1 at top
    std::int64_t id = -1;  //!< candidate or frame id, -1 when none

    double durS() const { return (endUs - startUs) * 1e-6; }
};

class Tracer
{
  public:
    Tracer() : origin(Clock::now()) {}

    int
    begin(const char *name, std::int64_t id)
    {
        Span s;
        s.name = name;
        s.startUs = nowUs();
        s.parent = open;
        s.id = id;
        spans.push_back(s);
        open = static_cast<int>(spans.size()) - 1;
        return open;
    }

    void
    end(int idx)
    {
        spans[idx].endUs = nowUs();
        open = spans[idx].parent;
    }

    const std::vector<Span> &all() const { return spans; }

    /** Summed span duration per name, in seconds. */
    std::map<std::string, double>
    totalsByName() const
    {
        std::map<std::string, double> out;
        for (const Span &s : spans)
            out[s.name] += s.durS();
        return out;
    }

    /**
     * Self time of every span: its duration minus the durations of
     * its direct children (children never outlive their parent, so
     * the result lies in [0, duration]).
     */
    std::vector<double>
    selfTimesS() const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].durS();
        for (const Span &s : spans) {
            if (s.parent >= 0)
                self[s.parent] -= s.durS();
        }
        return self;
    }

    /** Write every span as Chrome trace-event JSON. */
    bool
    writeChromeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::vector<double> self = selfTimesS();
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"span\":%zu,\"parent\":%d,"
                         "\"id\":%lld,\"self_us\":%.3f}}",
                         i == 0 ? "" : ",", s.name, s.startUs,
                         s.endUs - s.startUs, i, s.parent,
                         static_cast<long long>(s.id), self[i] * 1e6);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point origin;
    std::vector<Span> spans;
    int open = -1;

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin)
            .count();
    }
};

/** RAII span; does nothing when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::int64_t id = -1)
        : t(tracer), idx(tracer ? tracer->begin(name, id) : -1)
    {
    }
    ~Scope()
    {
        if (t)
            t->end(idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t;
    int idx;
};

} // namespace perfbench
