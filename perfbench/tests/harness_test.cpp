/**
 * @file
 * perfbench_selftest — checks the benchmark's own logic (harness.h):
 * the tail-percentile choice, seed determinism of the Poisson schedule
 * and the plaintext pool, the sparse oracle, lateness accounting and
 * self-time derivation. Exits non-zero on the first failed check;
 * perfbench/run.py runs it after every build.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

using namespace perfbench;

void
TestChooseTail()
{
    CHECK(std::strcmp(ChooseTail(99).label, "max") == 0);
    CHECK(ChooseTail(99).beyond == 0);
    CHECK(std::strcmp(ChooseTail(100).label, "p90") == 0);
    CHECK(ChooseTail(100).beyond == 10);
    CHECK(ChooseTail(155).beyond == 15);  // rank ceil(139.5) = 140
    CHECK(std::strcmp(ChooseTail(999).label, "p90") == 0);
    CHECK(std::strcmp(ChooseTail(1000).label, "p99") == 0);
    CHECK(ChooseTail(1000).beyond == 10);
    CHECK(std::strcmp(ChooseTail(9999).label, "p99") == 0);
    CHECK(std::strcmp(ChooseTail(10000).label, "p99.9") == 0);
    CHECK(ChooseTail(25000).beyond == 25);
    // The chosen quantile leaves exactly `beyond` samples above it.
    for (std::size_t n : {100u, 137u, 1000u, 4321u, 10000u, 12345u}) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = static_cast<double>(n - i);  // distinct, unsorted
        }
        const TailChoice tail = ChooseTail(n);
        const double q = Quantile(v, tail.q);
        std::size_t above = 0;
        for (double x : v) {
            above += x > q ? 1 : 0;
        }
        CHECK(above == tail.beyond);
        CHECK(above >= 10);
    }
    CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(Quantile({}, 0.5) == 0.0);
}

void
TestScheduleDeterminism()
{
    const auto a = PoissonSchedule(7, 0, 100.0, 20.0);
    const auto b = PoissonSchedule(7, 0, 100.0, 20.0);
    const auto c = PoissonSchedule(8, 0, 100.0, 20.0);
    const auto d = PoissonSchedule(7, 1, 100.0, 20.0);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a != d);
    // Increasing, inside the horizon, and near the offered count.
    for (std::size_t i = 1; i < a.size(); ++i) {
        CHECK(a[i] > a[i - 1]);
    }
    CHECK(!a.empty() && a.back() < 20.0);
    CHECK(std::fabs(static_cast<double>(a.size()) - 2000.0) < 200.0);
}

void
TestPlaintextPool()
{
    const auto a = PlaintextPool(3, 4, 256, 257);
    const auto b = PlaintextPool(3, 4, 256, 257);
    const auto c = PlaintextPool(4, 4, 256, 257);
    CHECK(a.size() == 4);
    for (std::size_t i = 0; i < a.size(); ++i) {
        CHECK(a[i].a == b[i].a && a[i].b == b[i].b);
        CHECK(a[i].product == b[i].product);
        std::size_t nonzero = 0;
        for (u64 x : a[i].b) {
            nonzero += x != 0 ? 1 : 0;
            CHECK(x < 257);
        }
        CHECK(nonzero > 0 && nonzero <= 64);
    }
    CHECK(a[0].a != c[0].a);
}

void
TestNegacyclicOracle()
{
    // (1 + x) * x^3 = x^3 + x^4 = x^3 - 1 in Z_7[X]/(X^4 + 1).
    const std::vector<u64> a = {1, 1, 0, 0};
    const std::vector<u64> b = {0, 0, 0, 1};
    const std::vector<u64> want = {6, 0, 0, 1};
    CHECK(NegacyclicMulSparse(a, b, 7) == want);
    // Against a dense schoolbook on random input.
    hentt::Xoshiro256 rng(5);
    const std::size_t n = 64;
    const u64 t = 65537;
    const auto x = DensePlaintext(rng, n, t);
    const auto y = SparsePlaintext(rng, n, t, 9);
    std::vector<u64> dense(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const u64 term = x[i] * y[j] % t;
            const std::size_t k = (i + j) % n;
            dense[k] = (i + j < n) ? (dense[k] + term) % t
                                   : (dense[k] + t - term) % t;
        }
    }
    CHECK(NegacyclicMulSparse(x, y, t) == dense);
}

void
TestLateness()
{
    const std::vector<RequestTimes> reqs = {
        {0.000, 0.001, 0.010},  // 1 ms late
        {0.005, 0.005, 0.012},  // on time
        {0.008, 0.011, 0.020},  // 3 ms late
        {0.020, 0.020, 0.030},  // sent at the instant the third is done
        {0.030, 0.032, 0.040},  // 2 ms late
    };
    const Lateness late = AccountLateness(reqs);
    CHECK(std::fabs(late.p50_ms - 1.0) < 1e-9);
    CHECK(std::fabs(late.max_ms - 3.0) < 1e-9);
    CHECK(late.outstanding_max == 2);
    CHECK(AccountLateness({}).outstanding_max == 0);
}

void
TestSelfTime()
{
    // root [0, 100): children [10, 30) and [20, 50) overlap, [90, 120)
    // is clipped at 100; covered 40 + 10 = 50, self 50. The grandchild
    // [12, 18) belongs to its parent only.
    const std::vector<Span> spans = {
        {1, 0, 7, 1, "root", 0, 100'000'000},
        {2, 1, 7, 1, "child", 10'000'000, 30'000'000},
        {3, 1, 7, 1, "child", 20'000'000, 50'000'000},
        {4, 1, 7, 1, "late", 90'000'000, 120'000'000},
        {5, 2, 7, 1, "grandchild", 12'000'000, 18'000'000},
    };
    const auto table = SelfTimes(spans);
    CHECK(std::fabs(table.at("root").self_ms - 50.0) < 1e-9);
    CHECK(std::fabs(table.at("root").total_ms - 100.0) < 1e-9);
    CHECK(table.at("child").count == 2);
    CHECK(std::fabs(table.at("child").self_ms - (14.0 + 30.0)) < 1e-9);
    CHECK(std::fabs(table.at("grandchild").self_ms - 6.0) < 1e-9);
}

void
TestResultLine()
{
    const std::string line =
        ResultLine(true, 3, 0, {{"a_ms", 1.25, "ms"}, {"b", 2, "count"}});
    CHECK(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                  "\"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": "
                  "\"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}");
}

}  // namespace

int
main()
{
    TestChooseTail();
    TestScheduleDeterminism();
    TestPlaintextPool();
    TestNegacyclicOracle();
    TestLateness();
    TestSelfTime();
    TestResultLine();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
