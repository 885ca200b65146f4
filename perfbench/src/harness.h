/**
 * @file
 * The benchmark's own logic, kept free of the HE library so that
 * perfbench_selftest can pin it: percentile choice, the seeded input
 * generators (Poisson schedule, plaintext pool, sparse negacyclic
 * oracle), open-loop lateness accounting, spans with their self-time
 * derivation and Chrome trace-event output, and the result line.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace perfbench {

using u64 = std::uint64_t;

// ---------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------

/** Nearest-rank quantile of @p values (q in (0, 1]); 0 when empty. */
inline double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    // The epsilon keeps q * n that is integral in exact arithmetic
    // (0.9 * 110) from rounding up a rank.
    const double rank =
        std::ceil(q * static_cast<double>(values.size()) - 1e-9);
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

inline double
Median(const std::vector<double> &values)
{
    return Quantile(values, 0.5);
}

/** The tail percentile a sample count supports (see ChooseTail). */
struct TailChoice {
    const char *label;  ///< "p99.9", "p99", "p90" or "max"
    double q;           ///< quantile passed to Quantile()
    std::size_t beyond; ///< samples ranked above the chosen one
};

/**
 * The highest of p90/p99/p99.9 that has at least ten samples beyond
 * it. Below 100 samples no percentile qualifies and the maximum is
 * reported, with zero samples beyond.
 */
inline TailChoice
ChooseTail(std::size_t n)
{
    if (n >= 10000) {
        return {"p99.9", 0.999, n - (n * 999 + 999) / 1000};
    }
    if (n >= 1000) {
        return {"p99", 0.99, n - (n * 99 + 99) / 100};
    }
    if (n >= 100) {
        return {"p90", 0.9, n - (n * 9 + 9) / 10};
    }
    return {"max", 1.0, 0};
}

// ---------------------------------------------------------------------
// Seeded inputs. Everything a workload feeds the system derives from
// the --seed argument through these, so one seed always gives the same
// inputs.
// ---------------------------------------------------------------------

/** Independent generator for one input stream of one seed. */
inline hentt::Xoshiro256
StreamRng(u64 seed, u64 stream)
{
    u64 state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    return hentt::Xoshiro256(hentt::SplitMix64(state));
}

/**
 * Poisson arrival offsets (seconds from the start) of one open-loop
 * connection: exponential gaps at @p rate per second until @p horizon_s.
 */
inline std::vector<double>
PoissonSchedule(u64 seed, u64 stream, double rate, double horizon_s)
{
    hentt::Xoshiro256 rng = StreamRng(seed, 1000 + stream);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.NextDouble()) / rate;
        if (t >= horizon_s) {
            return due;
        }
        due.push_back(t);
    }
}

/** Uniform plaintext: every coefficient in [0, t). */
inline std::vector<u64>
DensePlaintext(hentt::Xoshiro256 &rng, std::size_t n, u64 t)
{
    std::vector<u64> m(n);
    for (u64 &x : m) {
        x = rng.NextBelow(t);
    }
    return m;
}

/** Plaintext with at most @p nonzeros nonzero coefficients (positions
 *  may repeat, so a few fewer is possible). */
inline std::vector<u64>
SparsePlaintext(hentt::Xoshiro256 &rng, std::size_t n, u64 t,
                std::size_t nonzeros)
{
    std::vector<u64> m(n, 0);
    for (std::size_t k = 0; k < nonzeros; ++k) {
        m[rng.NextBelow(n)] = 1 + rng.NextBelow(t - 1);
    }
    return m;
}

/** One operand pair with its expected plaintext product. */
struct PlainPair {
    std::vector<u64> a;       ///< dense
    std::vector<u64> b;       ///< sparse
    std::vector<u64> product; ///< a * b in Z_t[X]/(X^n + 1)
};

/**
 * Schoolbook a * b in Z_t[X]/(X^n + 1), iterating over b's nonzeros
 * only: O(n * nnz(b)), cheap enough for n = 2^16 with a sparse b.
 */
inline std::vector<u64>
NegacyclicMulSparse(const std::vector<u64> &a, const std::vector<u64> &b,
                    u64 t)
{
    const std::size_t n = a.size();
    std::vector<u64> out(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
        if (b[j] == 0) {
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const u64 term = a[i] * b[j] % t;  // t < 2^32: no overflow
            const std::size_t k = i + j;
            if (k < n) {
                out[k] = (out[k] + term) % t;
            } else {
                out[k - n] = (out[k - n] + t - term) % t;
            }
        }
    }
    return out;
}

/** @p count operand pairs for one seed: dense a, ~64-nonzero b. */
inline std::vector<PlainPair>
PlaintextPool(u64 seed, std::size_t count, std::size_t n, u64 t)
{
    hentt::Xoshiro256 rng = StreamRng(seed, 1);
    std::vector<PlainPair> pool(count);
    for (PlainPair &pair : pool) {
        pair.a = DensePlaintext(rng, n, t);
        pair.b = SparsePlaintext(rng, n, t, 64);
        pair.product = NegacyclicMulSparse(pair.a, pair.b, t);
    }
    return pool;
}

// ---------------------------------------------------------------------
// Open-loop accounting.
// ---------------------------------------------------------------------

/** Timeline of one open-loop request, in seconds on one clock. */
struct RequestTimes {
    double due = 0.0;   ///< when the schedule said to send it
    double sent = 0.0;  ///< when the generator began sending it
    double done = 0.0;  ///< when its result was received
};

/** How far behind its schedule the generator ran. */
struct Lateness {
    double p50_ms = 0.0;
    double max_ms = 0.0;
    std::size_t outstanding_max = 0;  ///< most requests sent, not done
};

/**
 * Lateness is sent - due (never negative: a request is never sent
 * early). Outstanding counts requests in [sent, done) at once; a
 * request done at the instant another is sent is not counted twice.
 */
inline Lateness
AccountLateness(const std::vector<RequestTimes> &requests)
{
    Lateness out;
    std::vector<double> late_ms;
    std::vector<std::pair<double, int>> events;
    late_ms.reserve(requests.size());
    for (const RequestTimes &r : requests) {
        late_ms.push_back(std::max(0.0, r.sent - r.due) * 1e3);
        events.emplace_back(r.sent, +1);
        events.emplace_back(r.done, -1);
    }
    if (requests.empty()) {
        return out;
    }
    out.p50_ms = Median(late_ms);
    out.max_ms = *std::max_element(late_ms.begin(), late_ms.end());
    std::sort(events.begin(), events.end());  // -1 sorts before +1
    long live = 0;
    for (const auto &event : events) {
        live += event.second;
        out.outstanding_max =
            std::max(out.outstanding_max, static_cast<std::size_t>(live));
    }
    return out;
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/** One timed call. ids start at 1; parent 0 is a root. */
struct Span {
    u64 id = 0;
    u64 parent = 0;
    u64 request = 0;  ///< request/op id shared by a request's spans
    u64 thread = 0;
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/** Per-name totals of a span set. */
struct SelfTime {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time children cover
};

/**
 * A span's self time is its duration minus the part of its interval
 * that the union of its children's intervals covers (children may
 * overlap each other, and are clipped to the parent).
 */
inline std::map<std::string, SelfTime>
SelfTimes(const std::vector<Span> &spans)
{
    std::map<u64, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
    for (const Span &s : spans) {
        if (s.parent != 0) {
            kids[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::map<std::string, SelfTime> table;
    for (const Span &s : spans) {
        std::int64_t covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t run_start = 0, run_end = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start_ns);
                b = std::min(b, s.end_ns);
                if (b <= a) {
                    continue;
                }
                if (open && a <= run_end) {
                    run_end = std::max(run_end, b);
                    continue;
                }
                if (open) {
                    covered += run_end - run_start;
                }
                run_start = a;
                run_end = b;
                open = true;
            }
            if (open) {
                covered += run_end - run_start;
            }
        }
        SelfTime &row = table[s.name];
        row.count += 1;
        row.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
        row.self_ms +=
            static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
    }
    return table;
}

/**
 * Chrome trace-event JSON (the format Perfetto and chrome://tracing
 * open directly). Root spans that carry a request id become async
 * slices, one track per request, since open-loop requests overlap on
 * one thread; every other span is a complete ("X") event on its
 * thread's track.
 */
inline void
WriteChromeTrace(std::FILE *out, const std::vector<Span> &spans)
{
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const Span &s : spans) {
        const double ts = static_cast<double>(s.start_ns) * 1e-3;
        const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
        const char *sep = first ? "\n" : ",\n";
        first = false;
        if (s.parent == 0 && s.request != 0) {
            std::fprintf(out,
                         "%s{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                         "\"id\":%llu,\"pid\":1,\"tid\":%llu,\"ts\":%.3f},\n"
                         "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                         "\"id\":%llu,\"pid\":1,\"tid\":%llu,\"ts\":%.3f}",
                         sep, s.name, static_cast<unsigned long long>(s.request),
                         static_cast<unsigned long long>(s.thread), ts, s.name,
                         static_cast<unsigned long long>(s.request),
                         static_cast<unsigned long long>(s.thread), ts + dur);
            continue;
        }
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"cat\":\"call\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%llu,\"parent\":%llu,\"request\":%llu}}",
                     sep, s.name, static_cast<unsigned long long>(s.thread), ts,
                     dur, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(out, "\n]}\n");
}

// ---------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------

/** One reported metric, in output order. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** The run's result: the last line the benchmark prints. */
inline std::string
ResultLine(bool correct, u64 attempted, u64 failed,
           const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
                "\"}";
    }
    line += "}}";
    return line;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
