/**
 * @file
 * perfbench — the repository benchmark. Drives hentt from outside,
 * through public calls only, on two workloads:
 *
 *   mul_large   closed loop, one caller: B=2 MulRelinModSwitch per
 *               HeOpGraph at N=2^16 x 8x60-bit primes (the paper's
 *               bootstrappable, NTT-dominated regime);
 *   serve_open  open loop: Poisson arrivals over min(4, nproc)
 *               connections of an in-process daemon over a real AF_UNIX
 *               socket, small keyless Mul -> ModSwitch programs
 *               (N=1024), operands encrypted in set-up.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out DIR]
 *
 * Every result is checked (daemon and graph outputs word for word
 * against ciphertexts computed through BgvScheme's one-op API, those
 * against a sparse schoolbook oracle). The last stdout line is the JSON result; --trace 0
 * reports the end-to-end metrics, --trace 1 the per-layer ones from a
 * traced pass whose spans are written as Chrome trace-event JSON.
 * Any failed or wrong operation makes the exit code non-zero.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "simd/simd_backend.h"

// ---------------------------------------------------------------------
// Heap-allocation counter (he.allocs_per_op): replaces the global
// operator new of this binary, so it counts every thread's allocations,
// the in-process daemon's included.
// ---------------------------------------------------------------------
namespace {
std::atomic<unsigned long long> g_allocs{0};
}

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench {
namespace {

using hentt::he::BgvScheme;
using hentt::he::Ciphertext;
using hentt::he::HeContext;
using hentt::he::HeEngineState;
using hentt::he::HeOpGraph;
using hentt::he::HeParams;
using hentt::he::Plaintext;
using hentt::he::RelinKey;
using hentt::he::SecretKey;
using hentt::serve::Client;
using hentt::serve::WireOp;
using hentt::serve::WireProgram;
using hentt::serve::WireStats;
using Clock = std::chrono::steady_clock;

/** Slices per --trace 0 run (see Report::slices). Odd counts, so that
 *  the nearest-rank median is the middle slice's value. */
constexpr int kSlicesLarge = 3;
constexpr int kSlicesOpen = 41;
/** The quantile over slices that op_p50_ms and op_tail_ms report: the
 *  lower quartile, i.e. the latency of the quietest quarter of the
 *  run (the fastest of mul_large's three slices). On a shared host a
 *  contended stretch slows every timed wait and hand-off on
 *  serve_open's request path and can cover half a run; the quietest
 *  quarter is what the program itself sets. */
constexpr double kLatencySliceQ = 0.25;
/** --trace 1: untraced/traced window pairs (see Report::slices). */
constexpr int kTracePairs = 4;
/** Set-up repetitions; setup_s is their median. mul_large's set-up
 *  (N=2^16 keys) takes about a second, serve_open's about 10 ms. */
constexpr int kSetupRepsLarge = 5;
constexpr int kSetupRepsServe = 61;
/** A request not done after this long is failed by its poll loop. */
constexpr double kRequestDeadlineS = 20.0;
/** A call blocked this long ends the run (see Watchdog). */
constexpr double kCallDeadlineS = 60.0;
/** Client::AwaitDone's poll back-off, used by every poll loop here. */
constexpr auto kPollBackoff = std::chrono::microseconds(200);
/** serve_open's offered load: half the lowest capacity measured for
 *  this workload on a shared 4-vCPU host, whose capacity swung between
 *  ~1000 and ~3900 req/s with the host's load (see perfbench/README.md).
 *  Fixed: later changes compare against it. */
constexpr double kServeOpenRate = 500.0;

const Clock::time_point g_epoch = Clock::now();

std::int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

double
NowS()
{
    return static_cast<double>(NowNs()) * 1e-9;
}

double
CpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
PeakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t
Nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into each layer,
// held in memory and written out at exit. Off (one relaxed load per
// span site) in untraced passes.
// ---------------------------------------------------------------------

class Tracer
{
  public:
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    u64 NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

    void Record(const Span &span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }

    std::vector<Span> Take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(spans_);
    }

    /** Small per-thread track number for the trace viewer. */
    static u64 ThreadTrack()
    {
        static std::atomic<u64> next{1};
        thread_local const u64 track = next.fetch_add(1);
        return track;
    }

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<u64> next_id_{1};
    std::mutex mutex_;
    std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local u64 t_parent = 0;
thread_local u64 t_request = 0;

/** Span over a scope; children opened inside it name it as parent. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
    {
        if (!g_tracer.enabled()) {
            return;
        }
        span_.id = g_tracer.NextId();
        span_.parent = t_parent;
        span_.request = t_request;
        span_.thread = Tracer::ThreadTrack();
        span_.name = name;
        span_.start_ns = NowNs();
        t_parent = span_.id;
    }

    ~ScopedSpan()
    {
        if (span_.id == 0) {
            return;
        }
        span_.end_ns = NowNs();
        t_parent = span_.parent;
        g_tracer.Record(span_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Span span_;
};

// ---------------------------------------------------------------------
// Watchdog: poll loops fail a request that never completes, but a call
// that blocks (a socket read, a graph that never returns) cannot be
// failed from inside. The watchdog ends such a run with a message and a
// non-zero exit instead of letting it hang.
// ---------------------------------------------------------------------

class Watchdog
{
  public:
    static constexpr int kSlots = 16;

    Watchdog() : thread_([this] { Loop(); }) {}

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Run this before exiting on a hang (socket directory removal). */
    void set_cleanup(std::function<void()> fn)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cleanup_ = std::move(fn);
    }

    /** Mark @p slot busy in @p what since now. */
    void Arm(int slot, const char *what)
    {
        what_[slot].store(what, std::memory_order_relaxed);
        since_ns_[slot].store(NowNs(), std::memory_order_release);
    }

    void Disarm(int slot) { since_ns_[slot].store(0, std::memory_order_release); }

  private:
    void Loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                             [this] { return stop_; })) {
            const std::int64_t now = NowNs();
            for (int i = 0; i < kSlots; ++i) {
                const std::int64_t since =
                    since_ns_[i].load(std::memory_order_acquire);
                if (since != 0 &&
                    static_cast<double>(now - since) * 1e-9 > kCallDeadlineS) {
                    std::fprintf(stderr,
                                 "perfbench: watchdog: %s on caller %d blocked "
                                 "for more than %.0f s; failing the run\n",
                                 what_[i].load(), i, kCallDeadlineS);
                    if (cleanup_) {
                        cleanup_();
                    }
                    std::fflush(stdout);
                    std::_Exit(3);
                }
            }
        }
    }

    std::atomic<std::int64_t> since_ns_[kSlots] = {};
    std::atomic<const char *> what_[kSlots] = {};
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::function<void()> cleanup_;
    std::thread thread_;
};

Watchdog *g_watchdog = nullptr;

/** Arms the watchdog slot for the duration of one call. */
class Guarded
{
  public:
    Guarded(int slot, const char *what) : slot_(slot)
    {
        g_watchdog->Arm(slot, what);
    }
    ~Guarded() { g_watchdog->Disarm(slot_); }
    Guarded(const Guarded &) = delete;
    Guarded &operator=(const Guarded &) = delete;

  private:
    int slot_;
};

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

[[noreturn]] void
Die(const std::string &message)
{
    throw std::runtime_error(message);
}

bool
SameWords(const Ciphertext &x, const Ciphertext &y)
{
    if (x.parts.size() != y.parts.size()) {
        return false;
    }
    for (std::size_t p = 0; p < x.parts.size(); ++p) {
        const auto a = x.parts[p].flat();
        const auto b = y.parts[p].flat();
        if (a.size() != b.size() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(u64)) != 0) {
            return false;
        }
    }
    return true;
}

double
CiphertextKib(const Ciphertext &ct)
{
    double words = 0;
    for (const auto &part : ct.parts) {
        words += static_cast<double>(part.flat().size());
    }
    return words * 8.0 / 1024.0;
}

/** Bytes of one full-level RNS polynomial, in MiB. */
double
PolyMib(const HeParams &params)
{
    return static_cast<double>(params.degree * params.prime_count * 8) /
           (1 << 20);
}

/** Bytes of a relinearization key, every level, in MiB. */
double
KeyMib(const RelinKey &rk)
{
    double words = 0;
    for (const auto &level : rk.levels) {
        for (const auto *half : {&level.b, &level.a}) {
            for (const auto &poly : *half) {
                words += static_cast<double>(poly.flat().size());
            }
        }
    }
    return words * 8 / (1 << 20);
}

/** Counters sampled around a measured window. */
struct Counters {
    hentt::NttOpCounts ntt;
    unsigned long long allocs = 0;
    double cpu_s = 0.0;
    double wall_s = 0.0;

    static Counters Now()
    {
        Counters c;
        c.ntt = hentt::GetNttOpCounts();
        c.allocs = g_allocs.load(std::memory_order_relaxed);
        c.cpu_s = CpuSeconds();
        c.wall_s = NowS();
        return c;
    }

    /** Adds the change from @p a to @p b. */
    void AddDelta(const Counters &a, const Counters &b)
    {
        ntt.forward += b.ntt.forward - a.ntt.forward;
        ntt.inverse += b.ntt.inverse - a.ntt.inverse;
        ntt.elementwise += b.ntt.elementwise - a.ntt.elementwise;
        ntt.butterfly_stages += b.ntt.butterfly_stages - a.ntt.butterfly_stages;
        allocs += b.allocs - a.allocs;
        cpu_s += b.cpu_s - a.cpu_s;
        wall_s += b.wall_s - a.wall_s;
    }
};

/** What one measured window produced. */
struct Window {
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<double> latency_ms;  ///< one per completed operation
    double seconds = 0.0;            ///< window length for ops_per_s
    /** Counter changes over the measured work: the whole window on
     *  serve_open, the graph calls only on mul_large (its input copies
     *  and output checks are the benchmark's own). */
    Counters work;
    std::vector<RequestTimes> requests;  ///< open loop only
    /** serve_open: the daemon's counter changes over the window
     *  (max_batch_observed: its lifetime maximum). */
    WireStats stats;

    u64 ok() const { return attempted - failed; }
    double ops_per_s() const
    {
        return seconds > 0 ? static_cast<double>(ok()) / seconds : 0.0;
    }
    double PerOp(u64 count) const
    {
        return ok() == 0 ? 0.0 : static_cast<double>(count) / ok();
    }

    void AddStats(const WireStats &a, const WireStats &b)
    {
        stats.requests_completed += b.requests_completed - a.requests_completed;
        stats.batches_executed += b.batches_executed - a.batches_executed;
        stats.coalesced_requests += b.coalesced_requests - a.coalesced_requests;
        stats.max_batch_observed =
            std::max(stats.max_batch_observed, b.max_batch_observed);
    }
};

/** The windows of @p windows as one. */
Window
Merge(const std::vector<Window> &windows)
{
    Window m;
    for (const Window &w : windows) {
        m.attempted += w.attempted;
        m.failed += w.failed;
        m.latency_ms.insert(m.latency_ms.end(), w.latency_ms.begin(),
                            w.latency_ms.end());
        m.seconds += w.seconds;
        m.work.AddDelta(Counters{}, w.work);
        m.requests.insert(m.requests.end(), w.requests.begin(),
                          w.requests.end());
        m.AddStats(WireStats{}, w.stats);
    }
    return m;
}

/** Set by the first failed operation: closed loops and further slices
 *  stop early, since the run already exits non-zero, and a hung daemon
 *  must not cost a request deadline per remaining operation. */
std::atomic<bool> g_any_failed{false};

void
Fail(Window &w, const std::string &message)
{
    g_any_failed.store(true);
    w.failed += 1;
    if (w.failed <= 5) {
        std::fprintf(stderr, "perfbench: FAILED op: %s\n", message.c_str());
    }
}

/** Machine and workload context recorded with every run. */
struct RunContext {
    std::size_t degree = 0;
    std::size_t limbs = 0;
    double working_set_mib = 0.0;
    std::string working_set_note;
};

/** In-process timings of one request's program (the --trace 1 probes). */
struct ProbeResult {
    double build_ms = 0.0;       ///< HeOpGraph construction + enqueue
    double execute_ms = 0.0;     ///< HeOpGraph::Execute
    double mul_ms = 0.0;         ///< BatchMul, direct call
    double second_ms = 0.0;      ///< BatchRelinModSwitch or BatchModSwitch
    double fwd_row_us = 0.0;     ///< BatchToEvaluation(lazy) per row
    double inv_row_us = 0.0;     ///< BatchToCoefficient per row
    double stages_per_row = 0.0; ///< butterfly dispatches per transform
    double graph_fwd_rows = 0.0; ///< forward rows of one graph run
    double graph_inv_rows = 0.0;
    double encrypt_ms = 0.0;     ///< Encrypt of both operands
    double decrypt_ms = 0.0;     ///< Decrypt of one result
};

/**
 * Times the client's crypto in process, for the workloads whose timed
 * path has none: Encrypt of both operands of @p pair, and Decrypt (the
 * rns CRT) of @p result, which must give the pair's product.
 */
void
ProbeClientCrypto(BgvScheme &scheme, const SecretKey &sk, const PlainPair &pair,
                  const Ciphertext &result, int reps, ProbeResult &r)
{
    std::vector<double> enc, dec;
    g_tracer.set_enabled(true);
    for (int rep = 0; rep < reps; ++rep) {
        auto t0 = Clock::now();
        {
            ScopedSpan span("probe.encrypt");
            Ciphertext x = scheme.Encrypt(sk, pair.a);
            Ciphertext y = scheme.Encrypt(sk, pair.b);
        }
        auto t1 = Clock::now();
        Plaintext plain;
        {
            ScopedSpan span("probe.decrypt");
            plain = scheme.Decrypt(sk, result);
        }
        auto t2 = Clock::now();
        if (plain != pair.product) {
            Die("probe: Decrypt disagrees with the schoolbook oracle");
        }
        enc.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        dec.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
    }
    g_tracer.set_enabled(false);
    r.encrypt_ms = Median(enc);
    r.decrypt_ms = Median(dec);
}

/**
 * Times, in process, the program one request runs: the graph (build +
 * execute), the same batch as direct stage calls, and the forward and
 * inverse transforms over the batch's input rows. Every output is
 * checked against @p expected. Traced: its spans join the run's trace
 * under one "probe" root per repetition.
 */
ProbeResult
ProbeProgram(const BgvScheme &scheme, const RelinKey *rk,
             const std::vector<Ciphertext> &a, const std::vector<Ciphertext> &b,
             const std::vector<Ciphertext> &expected, int reps)
{
    const std::size_t batch = a.size();
    const HeContext &ctx = scheme.context();
    std::vector<double> build, execute, mul, second, fwd, inv;
    ProbeResult r;
    // The direct calls write into the same outputs every repetition, so
    // after the first they run in steady state, without first-touch
    // page faults.
    std::vector<const Ciphertext *> pa, pb;
    std::vector<Ciphertext> prod(batch), out(batch);
    std::vector<Ciphertext *> pprod, pout;
    std::vector<const Ciphertext *> cprod;
    for (std::size_t i = 0; i < batch; ++i) {
        pa.push_back(&a[i]);
        pb.push_back(&b[i]);
        pprod.push_back(&prod[i]);
        cprod.push_back(&prod[i]);
        pout.push_back(&out[i]);
    }
    g_tracer.set_enabled(true);
    for (int rep = 0; rep < reps; ++rep) {
        ScopedSpan root("probe");
        std::vector<Ciphertext> ins_a = a, ins_b = b;
        const hentt::NttOpCounts c0 = hentt::GetNttOpCounts();
        auto t0 = Clock::now();
        std::optional<ScopedSpan> build_span(std::in_place,
                                             "probe.graph_build");
        HeOpGraph graph(scheme, rk);
        std::vector<hentt::he::CtFuture> outs;
        for (std::size_t i = 0; i < batch; ++i) {
            auto x = graph.Input(std::move(ins_a[i]));
            auto y = graph.Input(std::move(ins_b[i]));
            auto z = graph.Mul(x, y);
            outs.push_back(rk != nullptr ? graph.RelinModSwitch(z)
                                         : graph.ModSwitch(z));
        }
        build_span.reset();
        auto t1 = Clock::now();
        hentt::Status st;
        {
            ScopedSpan span("probe.graph_execute");
            st = graph.ExecuteStatus();
        }
        auto t2 = Clock::now();
        const hentt::NttOpCounts c1 = hentt::GetNttOpCounts();
        if (!st.ok()) {
            Die("probe graph failed: " + st.ToString());
        }
        for (std::size_t i = 0; i < batch; ++i) {
            auto got = outs[i].TryGet();
            if (!got.ok() || !SameWords(**got, expected[i])) {
                Die("probe graph output differs from the one-op result");
            }
        }
        build.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        execute.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
        r.graph_fwd_rows = static_cast<double>(c1.forward - c0.forward);
        r.graph_inv_rows = static_cast<double>(c1.inverse - c0.inverse);

        auto t3 = Clock::now();
        {
            ScopedSpan span("he.batch_mul");
            hentt::he::BatchMul(ctx, pa, pb, pprod);
        }
        auto t4 = Clock::now();
        {
            ScopedSpan span(rk != nullptr ? "he.relin_modswitch"
                                          : "he.batch_modswitch");
            if (rk != nullptr) {
                hentt::he::BatchRelinModSwitch(ctx, *rk, cprod, pout);
            } else {
                hentt::he::BatchModSwitch(ctx, cprod, pout);
            }
        }
        auto t5 = Clock::now();
        for (std::size_t i = 0; i < batch; ++i) {
            if (!SameWords(out[i], expected[i])) {
                Die("direct stage calls differ from the one-op result");
            }
        }
        mul.push_back(std::chrono::duration<double, std::milli>(t4 - t3).count());
        second.push_back(std::chrono::duration<double, std::milli>(t5 - t4).count());

        std::vector<hentt::RnsPoly> rows;
        for (std::size_t i = 0; i < batch; ++i) {
            for (const auto *ct : {&a[i], &b[i]}) {
                for (const auto &part : ct->parts) {
                    rows.push_back(part);
                }
            }
        }
        std::vector<hentt::RnsPoly *> prow;
        double row_count = 0;
        for (auto &poly : rows) {
            prow.push_back(&poly);
            row_count += static_cast<double>(poly.prime_count());
        }
        const hentt::NttOpCounts n0 = hentt::GetNttOpCounts();
        auto t6 = Clock::now();
        {
            ScopedSpan span("ntt.forward");
            hentt::RnsPoly::BatchToEvaluation(prow, /*lazy=*/true);
        }
        auto t7 = Clock::now();
        const hentt::NttOpCounts n1 = hentt::GetNttOpCounts();
        {
            ScopedSpan span("ntt.inverse");
            hentt::RnsPoly::BatchToCoefficient(prow);
        }
        auto t8 = Clock::now();
        fwd.push_back(std::chrono::duration<double, std::micro>(t7 - t6).count() /
                      row_count);
        inv.push_back(std::chrono::duration<double, std::micro>(t8 - t7).count() /
                      row_count);
        r.stages_per_row = static_cast<double>(n1.butterfly_stages -
                                               n0.butterfly_stages) /
                           static_cast<double>(n1.forward - n0.forward);
    }
    g_tracer.set_enabled(false);
    r.build_ms = Median(build);
    r.execute_ms = Median(execute);
    r.mul_ms = Median(mul);
    r.second_ms = Median(second);
    r.fwd_row_us = Median(fwd);
    r.inv_row_us = Median(inv);
    return r;
}

/** Everything one run measured; EndToEndMetrics and PerLayerMetrics
 *  turn it into the result line. */
struct Report {
    RunContext context;
    double setup_s = 0.0;
    double setup_rss_mib = 0.0;  ///< peak RSS when set-up was done
    /** Untraced windows. With --trace 0 the run is cut into equal
     *  consecutive slices and each end-to-end metric is the median
     *  (latencies: the lower quartile, see kLatencySliceQ) of its
     *  per-slice values, so interference from outside moves some
     *  slices, not the result. With --trace 1 they alternate
     *  with the traced windows, pair by pair, so that drift of the host
     *  cancels out of the tracing-overhead comparison; the counters
     *  come from them, untouched by the tracer's own allocations. */
    std::vector<Window> slices;
    std::vector<Window> traced;  ///< --trace 1: the traced windows
    Window one_lane;   ///< mul_large --trace 1: the pool.scaling_x pass
    ProbeResult probe;
    double scaling_x = 0.0;  ///< mul_large, traced run only
    double wire_up_kib = 0.0;
    double wire_down_kib = 0.0;
    std::vector<Span> spans;
};

// ---------------------------------------------------------------------
// Serving rig: an in-process daemon on a fresh socket in a private
// directory, and its client connections. Destruction closes the
// clients, stops the daemon (which unlinks the socket) and removes the
// directory, on every exit path.
// ---------------------------------------------------------------------

/** A fresh private directory, removed (with the socket the daemon may
 *  have left in it) when the owner goes. */
class SocketDir
{
  public:
    explicit SocketDir(const std::string &parent) : dir_(parent + "/sXXXXXX")
    {
        if (mkdtemp(dir_.data()) == nullptr) {
            Die("mkdtemp(" + dir_ + ") failed: " + std::strerror(errno));
        }
    }
    ~SocketDir()
    {
        ::unlink(socket().c_str());
        ::rmdir(dir_.c_str());
    }
    SocketDir(const SocketDir &) = delete;
    SocketDir &operator=(const SocketDir &) = delete;

    const std::string &dir() const { return dir_; }
    std::string socket() const { return dir_ + "/d.sock"; }

  private:
    std::string dir_;
};

class ServeRig
{
  public:
    // The relative socket path keeps the socket inside the working tree
    // and far below the 108-byte AF_UNIX limit however deep that is.
    ServeRig(const std::string &out_dir, std::size_t connections,
             const HeParams &params)
        : dir_(out_dir), path_(dir_.socket())
    {
        g_watchdog->set_cleanup([path = path_, dir = dir_.dir()] {
            ::unlink(path.c_str());
            ::rmdir(dir.c_str());
        });
        hentt::serve::DaemonConfig config;
        config.socket_path = path_;
        daemon_ = std::make_unique<hentt::serve::Daemon>(config);
        const hentt::Status started = daemon_->Start();
        if (!started.ok()) {
            Die("daemon start: " + started.ToString());
        }
        for (std::size_t c = 0; c < connections; ++c) {
            auto client = Client::Connect(path_);
            if (!client.ok()) {
                Die("connect: " + client.status().ToString());
            }
            auto session = (*client)->CreateSession(params);
            if (!session.ok()) {
                Die("create session: " + session.status().ToString());
            }
            clients_.push_back(std::move(*client));
        }
    }

    /** Members go in reverse order: the clients disconnect, the daemon
     *  stops (joining its threads), then the directory is removed. */
    ~ServeRig() { g_watchdog->set_cleanup(nullptr); }

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;

    Client &client(std::size_t c) { return *clients_.at(c); }
    std::size_t connections() const { return clients_.size(); }

    WireStats Stats()
    {
        Guarded guard(0, "Client::Stats");
        auto stats = clients_.at(0)->Stats();
        if (!stats.ok()) {
            Die("stats: " + stats.status().ToString());
        }
        return *stats;
    }

  private:
    SocketDir dir_;
    std::string path_;
    std::unique_ptr<hentt::serve::Daemon> daemon_;
    std::vector<std::unique_ptr<Client>> clients_;
};

// ---------------------------------------------------------------------
// mul_large
// ---------------------------------------------------------------------

HeParams
MulLargeParams()
{
    HeParams p;
    p.degree = 1u << 16;
    p.prime_count = 8;
    p.prime_bits = 60;
    p.plain_modulus = 65537;
    return p;
}

constexpr std::size_t kMulLargeBatch = 2;

/** Engine state, keys, operands and expected outputs of mul_large. */
struct MulLargeState {
    std::unique_ptr<BgvScheme> scheme;
    SecretKey sk;
    RelinKey rk;
    std::vector<Ciphertext> a, b, expected;

    // Direct engine-state construction: the engine-state cache would
    // make every set-up repetition after the first a lookup.
    MulLargeState(u64 seed, const std::vector<PlainPair> &pool)
        : scheme(std::make_unique<BgvScheme>(
              std::make_shared<const HeContext>(
                  std::make_shared<const HeEngineState>(MulLargeParams())),
              seed)),
          sk(scheme->KeyGen()), rk(scheme->MakeRelinKey(sk))
    {
        for (const PlainPair &pair : pool) {
            a.push_back(scheme->Encrypt(sk, pair.a));
            b.push_back(scheme->Encrypt(sk, pair.b));
            expected.push_back(
                scheme->RelinModSwitch(scheme->Mul(a.back(), b.back()), rk));
        }
    }
};

/** One batch through one HeOpGraph; returns its wall time (ms), or a
 *  negative value after recording a failure. */
double
MulLargeBatch(const MulLargeState &s, Window &w)
{
    std::vector<Ciphertext> ins_a = s.a, ins_b = s.b;  // untimed copies
    const Counters c0 = Counters::Now();
    const auto t0 = Clock::now();
    HeOpGraph graph(*s.scheme, &s.rk);
    std::vector<hentt::he::CtFuture> outs;
    {
        ScopedSpan span("graph.build");
        for (std::size_t i = 0; i < ins_a.size(); ++i) {
            auto x = graph.Input(std::move(ins_a[i]));
            auto y = graph.Input(std::move(ins_b[i]));
            outs.push_back(graph.MulRelinModSwitch(x, y));
        }
    }
    hentt::Status st;
    {
        ScopedSpan span("graph.execute");
        Guarded guard(0, "HeOpGraph::Execute");
        st = graph.ExecuteStatus();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    w.work.AddDelta(c0, Counters::Now());
    bool ok = st.ok();
    for (std::size_t i = 0; ok && i < outs.size(); ++i) {
        auto got = outs[i].TryGet();
        ok = got.ok() && SameWords(**got, s.expected[i]);
    }
    w.attempted += outs.size();
    if (!ok) {
        for (std::size_t i = 0; i < outs.size(); ++i) {
            Fail(w, st.ok() ? "mul_large output differs from the expected "
                              "ciphertext"
                            : "mul_large graph: " + st.ToString());
        }
        return -1.0;
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
        w.latency_ms.push_back(ms);
    }
    return ms;
}

Window
MulLargeWindow(const MulLargeState &s, double seconds, bool traced)
{
    static u64 next_batch = 0;
    Window w;
    g_tracer.set_enabled(traced);
    const double start = NowS();
    double busy = 0.0;
    while (NowS() - start < seconds && !g_any_failed.load()) {
        t_request = traced ? ++next_batch : 0;
        ScopedSpan span("mul_large.batch");
        const double ms = MulLargeBatch(s, w);
        busy += std::max(ms, 0.0) * 1e-3;
    }
    t_request = 0;
    g_tracer.set_enabled(false);
    // Throughput over the graphs' own wall time: the untimed input
    // copies and output checks between batches are the benchmark's.
    w.seconds = busy;
    return w;
}

Report
RunMulLarge(u64 seed, double seconds, bool trace)
{
    Report rep;
    const HeParams params = MulLargeParams();
    const std::vector<PlainPair> pool =
        PlaintextPool(seed, kMulLargeBatch, params.degree, params.plain_modulus);
    std::unique_ptr<MulLargeState> state;
    std::vector<double> setup;
    for (int r = 0; r < kSetupRepsLarge; ++r) {
        state.reset();  // the previous repetition's memory goes first
        const double t0 = NowS();
        state = std::make_unique<MulLargeState>(seed, pool);
        setup.push_back(NowS() - t0);
    }
    rep.setup_s = Median(setup);
    rep.setup_rss_mib = PeakRssMib();
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (state->scheme->Decrypt(state->sk, state->expected[i]) !=
            pool[i].product) {
            Die("mul_large: one-op RelinModSwitch(Mul) disagrees with the "
                "schoolbook oracle");
        }
    }
    rep.context = {params.degree, params.prime_count, KeyMib(state->rk),
                   "relin keys, all levels; one RNS poly is " +
                       std::to_string(PolyMib(params)) + " MiB"};
    Window warm;
    if (MulLargeBatch(*state, warm) < 0) {  // arenas and pool threads warm
        Die("mul_large: warm-up batch failed");
    }
    if (!trace) {
        for (int k = 0; k < kSlicesLarge && !g_any_failed.load(); ++k) {
            rep.slices.push_back(
                MulLargeWindow(*state, seconds / kSlicesLarge, false));
        }
        return rep;
    }
    for (int k = 0; k < kTracePairs; ++k) {
        rep.slices.push_back(
            MulLargeWindow(*state, seconds / (2 * kTracePairs), false));
        rep.traced.push_back(
            MulLargeWindow(*state, seconds / (2 * kTracePairs), true));
    }
    rep.probe = ProbeProgram(*state->scheme, &state->rk, state->a, state->b,
                             state->expected, 5);
    ProbeClientCrypto(*state->scheme, state->sk, pool[0], state->expected[0], 3,
                      rep.probe);
    rep.spans = g_tracer.Take();
    // pool.scaling_x: the same batches on one lane.
    const std::size_t lanes = hentt::GlobalThreadCount();
    hentt::SetGlobalThreadCount(1);
    rep.one_lane = MulLargeWindow(*state, std::min(4.0, seconds / 4), false);
    hentt::SetGlobalThreadCount(lanes);
    rep.scaling_x =
        Median(rep.one_lane.latency_ms) / Median(Merge(rep.slices).latency_ms);
    return rep;
}

// ---------------------------------------------------------------------
// serve_open
// ---------------------------------------------------------------------

HeParams
ServeOpenParams()
{
    HeParams p;
    p.degree = 1024;
    p.prime_count = 3;
    p.prime_bits = 50;
    p.plain_modulus = 257;
    return p;
}

constexpr std::size_t kServeOpenPool = 16;

const std::vector<WireProgram::Op> kServeOpenOps = {
    {WireOp::kMul, 0, 1},
    {WireOp::kModSwitch, 2, 0},
};

struct ServeOpenState {
    ServeRig rig;
    std::unique_ptr<BgvScheme> scheme;
    SecretKey sk;
    std::vector<std::vector<Ciphertext>> inputs;  ///< per pool entry: {a, b}
    std::vector<Ciphertext> expected;

    ServeOpenState(const std::string &out_dir, u64 seed,
                   const std::vector<PlainPair> &pool)
        : rig(out_dir, std::min<std::size_t>(4, Nproc()), ServeOpenParams()),
          scheme(std::make_unique<BgvScheme>(rig.client(0).context(), seed)),
          sk(scheme->KeyGen())
    {
        for (const PlainPair &pair : pool) {
            Ciphertext ea = scheme->Encrypt(sk, pair.a);
            Ciphertext eb = scheme->Encrypt(sk, pair.b);
            expected.push_back(scheme->ModSwitch(scheme->Mul(ea, eb)));
            inputs.push_back({std::move(ea), std::move(eb)});
        }
    }
};

/** Per-connection generator state of one open-loop window. */
struct Generator {
    Window w;
    std::vector<std::string> errors;
};

/**
 * One connection's open loop: sends each scheduled request when due
 * (never early), polls the oldest outstanding one with the AwaitDone
 * back-off, and checks every result word for word. Latency runs from
 * the due time.
 */
void
OpenLoopConnection(ServeOpenState &s, std::size_t conn, u64 request_base,
                   const std::vector<double> &due, std::size_t pool_offset,
                   double start, Generator &gen)
{
    Client &client = s.rig.client(conn);
    const int slot = static_cast<int>(conn);
    struct Pending {
        u64 id;
        std::size_t index;
        std::size_t pool;
        u64 span_id;
    };
    std::deque<Pending> pending;
    std::size_t next = 0;
    Window &w = gen.w;
    w.requests.resize(due.size());
    const bool traced = g_tracer.enabled();
    while (next < due.size() || !pending.empty()) {
        const double now = NowS() - start;
        if (next < due.size() && now >= due[next]) {
            const std::size_t k = (pool_offset + next) % s.inputs.size();
            RequestTimes &times = w.requests[next];
            times.due = start + due[next];
            times.sent = start + now;
            w.attempted += 1;
            const u64 req = request_base + next + 1;
            const u64 span_id = traced ? g_tracer.NextId() : 0;
            t_request = traced ? req : 0;
            t_parent = span_id;
            hentt::Result<u64> id = [&] {
                ScopedSpan span("client.submit");
                Guarded guard(slot, "Client::SubmitGraph");
                return client.SubmitGraph(s.inputs[k], kServeOpenOps, {3});
            }();
            t_parent = 0;
            if (!id.ok()) {
                Fail(w, "submit: " + id.status().ToString());
                times.done = NowS();
            } else {
                pending.push_back({*id, next, k, span_id});
            }
            ++next;
            continue;
        }
        if (pending.empty()) {
            const double wait = due[next] - (NowS() - start);
            if (wait > 0) {
                std::this_thread::sleep_for(std::chrono::duration<double>(wait));
            }
            continue;
        }
        const Pending p = pending.front();
        RequestTimes &times = w.requests[p.index];
        t_request = traced ? request_base + p.index + 1 : 0;
        t_parent = p.span_id;
        hentt::Result<Client::Outcome> outcome = [&] {
            ScopedSpan span("client.poll");
            Guarded guard(slot, "Client::Poll");
            return client.Poll(p.id);
        }();
        t_parent = 0;
        const double done_at = NowS();
        bool settled = true;
        if (!outcome.ok()) {
            Fail(w, "poll: " + outcome.status().ToString());
        } else if (outcome->done) {
            if (outcome->outputs.size() != 1 ||
                !SameWords(outcome->outputs[0], s.expected[p.pool])) {
                Fail(w, "serve_open: daemon output differs from the one-op "
                        "ciphertext");
            } else {
                w.latency_ms.push_back((done_at - times.due) * 1e3);
            }
        } else if (done_at - times.sent > kRequestDeadlineS) {
            Fail(w, "request " + std::to_string(p.id) + " not done after " +
                        std::to_string(kRequestDeadlineS) + " s");
        } else {
            settled = false;
        }
        if (settled) {
            times.done = done_at;
            if (traced) {
                Span root;
                root.id = p.span_id;
                root.request = request_base + p.index + 1;
                root.thread = Tracer::ThreadTrack();
                root.name = "serve_open.request";
                root.start_ns = static_cast<std::int64_t>(times.due * 1e9);
                root.end_ns = static_cast<std::int64_t>(done_at * 1e9);
                g_tracer.Record(root);
            }
            pending.pop_front();
            continue;  // the next-oldest may be done too
        }
        // Back off, but never past the next send.
        double nap = std::chrono::duration<double>(kPollBackoff).count();
        if (next < due.size()) {
            nap = std::min(nap, due[next] - (NowS() - start));
        }
        if (nap > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(nap));
        }
    }
    t_request = 0;
}

Window
ServeOpenWindow(ServeOpenState &s, u64 seed, u64 phase, double seconds,
                bool traced)
{
    const std::size_t conns = s.rig.connections();
    std::vector<std::vector<double>> schedules;
    for (std::size_t c = 0; c < conns; ++c) {
        schedules.push_back(PoissonSchedule(seed, phase * 16 + c,
                                            kServeOpenRate / conns, seconds));
    }
    std::vector<Generator> gens(conns);
    Window w;
    const WireStats stats0 = s.rig.Stats();
    g_tracer.set_enabled(traced);
    const Counters c0 = Counters::Now();
    const double start = NowS() + 0.01;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                try {
                    OpenLoopConnection(s, c, (phase << 40) | (c << 32),
                                       schedules[c], c * 5, start, gens[c]);
                } catch (const std::exception &e) {
                    gens[c].errors.push_back(e.what());
                }
            });
        }
        for (auto &t : threads) {
            t.join();
        }
    }
    w.work.AddDelta(c0, Counters::Now());
    g_tracer.set_enabled(false);
    double last_done = 0.0;
    for (Generator &g : gens) {
        for (const std::string &e : g.errors) {
            Die("serve_open generator: " + e);
        }
        w.attempted += g.w.attempted;
        w.failed += g.w.failed;
        w.latency_ms.insert(w.latency_ms.end(), g.w.latency_ms.begin(),
                            g.w.latency_ms.end());
        for (const RequestTimes &r : g.w.requests) {
            last_done = std::max(last_done, r.done);
            w.requests.push_back(r);
        }
    }
    w.seconds = std::max(seconds, last_done - start);
    w.AddStats(stats0, s.rig.Stats());
    return w;
}

Report
RunServeOpen(const std::string &out_dir, u64 seed, double seconds, bool trace)
{
    Report rep;
    const HeParams params = ServeOpenParams();
    const std::vector<PlainPair> pool =
        PlaintextPool(seed, kServeOpenPool, params.degree, params.plain_modulus);
    std::unique_ptr<ServeOpenState> state;
    std::vector<double> setup;
    for (int r = 0; r < kSetupRepsServe; ++r) {
        state.reset();
        const double t0 = NowS();
        state = std::make_unique<ServeOpenState>(out_dir, seed, pool);
        setup.push_back(NowS() - t0);
    }
    rep.setup_s = Median(setup);
    rep.setup_rss_mib = PeakRssMib();
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (state->scheme->Decrypt(state->sk, state->expected[i]) !=
            pool[i].product) {
            Die("serve_open: one-op ModSwitch(Mul) disagrees with the "
                "schoolbook oracle");
        }
    }
    rep.context = {params.degree, params.prime_count,
                   PolyMib(params) * 4 * kServeOpenPool,
                   "the operand pool (keyless); one RNS poly is " +
                       std::to_string(PolyMib(params)) + " MiB"};
    rep.wire_up_kib = CiphertextKib(state->inputs[0][0]) +
                      CiphertextKib(state->inputs[0][1]);
    rep.wire_down_kib = CiphertextKib(state->expected[0]);
    Window warm = ServeOpenWindow(*state, seed, 0, 0.5, false);
    if (warm.failed != 0) {
        Die("serve_open: warm-up requests failed");
    }
    if (!trace) {
        for (int k = 0; k < kSlicesOpen && !g_any_failed.load(); ++k) {
            rep.slices.push_back(ServeOpenWindow(*state, seed, 1 + k,
                                                 seconds / kSlicesOpen, false));
        }
        return rep;
    }
    for (int k = 0; k < kTracePairs; ++k) {
        rep.slices.push_back(ServeOpenWindow(
            *state, seed, 100 + 2 * k, seconds / (2 * kTracePairs), false));
        rep.traced.push_back(ServeOpenWindow(
            *state, seed, 101 + 2 * k, seconds / (2 * kTracePairs), true));
    }
    rep.probe = ProbeProgram(*state->scheme, nullptr, {state->inputs[0][0]},
                             {state->inputs[0][1]}, {state->expected[0]}, 30);
    ProbeClientCrypto(*state->scheme, state->sk, pool[0], state->expected[0], 30,
                      rep.probe);
    rep.spans = g_tracer.Take();
    return rep;
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

double
SpanMedianMs(const std::vector<Span> &spans, const char *name)
{
    std::vector<double> ms;
    for (const Span &s : spans) {
        if (std::strcmp(s.name, name) == 0) {
            ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
        }
    }
    return Median(ms);
}

double
SpanCount(const std::vector<Span> &spans, const char *name)
{
    double n = 0;
    for (const Span &s : spans) {
        n += std::strcmp(s.name, name) == 0 ? 1 : 0;
    }
    return n;
}

/** Every operation the run attempted and failed, probes included. */
std::pair<u64, u64>
Totals(const Report &rep)
{
    u64 attempted = rep.one_lane.attempted;
    u64 failed = rep.one_lane.failed;
    for (const Window &w : rep.traced) {
        attempted += w.attempted;
        failed += w.failed;
    }
    for (const Window &w : rep.slices) {
        attempted += w.attempted;
        failed += w.failed;
    }
    return {attempted, failed};
}

std::vector<Metric>
EndToEndMetrics(const Report &rep)
{
    std::vector<double> ops, p50, tail;
    for (const Window &w : rep.slices) {
        ops.push_back(w.ops_per_s());
        p50.push_back(Median(w.latency_ms));
        tail.push_back(Quantile(w.latency_ms, ChooseTail(w.latency_ms.size()).q));
    }
    const auto [attempted, failed] = Totals(rep);
    return {
        {"ops_per_s", Median(ops), "1/s"},
        {"op_p50_ms", Quantile(p50, kLatencySliceQ), "ms"},
        {"op_tail_ms", Quantile(tail, kLatencySliceQ), "ms"},
        {"setup_s", rep.setup_s, "s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"ok_frac",
         attempted == 0 ? 0.0
                        : static_cast<double>(attempted - failed) / attempted,
         "frac"},
    };
}

std::vector<Metric>
PerLayerMetrics(const std::string &workload, const Report &rep)
{
    // Spans come from the traced windows, counters from the untraced
    // ones (see Report::slices).
    const Window traced = Merge(rep.traced);
    const Window w = Merge(rep.slices);
    const std::vector<Span> &sp = rep.spans;
    const ProbeResult &p = rep.probe;
    const bool serve = workload == "serve_open";

    // client.wait_ms runs from a request's first poll (a child of the
    // request's root span) to the root's end, when the result arrived.
    double wait_ms = 0;
    if (serve) {
        std::map<u64, std::int64_t> first_poll;
        for (const Span &s : sp) {
            if (std::strcmp(s.name, "client.poll") == 0) {
                auto [it, fresh] = first_poll.emplace(s.parent, s.start_ns);
                if (!fresh) {
                    it->second = std::min(it->second, s.start_ns);
                }
            }
        }
        std::vector<double> ms;
        for (const Span &s : sp) {
            auto it = first_poll.find(s.id);
            if (std::strcmp(s.name, "serve_open.request") == 0 &&
                it != first_poll.end()) {
                ms.push_back(static_cast<double>(s.end_ns - it->second) * 1e-6);
            }
        }
        wait_ms = Median(ms);
    }
    double build_ms = p.build_ms, execute_ms = p.execute_ms;
    if (!serve) {
        build_ms = SpanMedianMs(sp, "graph.build");
        execute_ms = SpanMedianMs(sp, "graph.execute");
    }
    const double local_exec_ms = p.build_ms + p.execute_ms;
    const double polls = SpanCount(sp, "client.poll");
    const double submit_ms = SpanMedianMs(sp, "client.submit");

    double mean_batch = 0, coalesced_frac = 0, max_batch = 0;
    if (serve) {
        const double done = static_cast<double>(w.stats.requests_completed);
        const double batches = static_cast<double>(w.stats.batches_executed);
        const double coalesced = static_cast<double>(w.stats.coalesced_requests);
        mean_batch = batches > 0 ? done / batches : 0;
        coalesced_frac = done > 0 ? coalesced / done : 0;
        max_batch = static_cast<double>(w.stats.max_batch_observed);
    }

    const double fwd_rows = w.PerOp(w.work.ntt.forward);
    const double inv_rows = w.PerOp(w.work.ntt.inverse);
    // Computed bytes of one forward row transform: every butterfly
    // dispatch reads and writes the row once, and the row's twiddles
    // (value + Shoup companion) are read once.
    const double n = static_cast<double>(rep.context.degree);
    const double row_bytes = p.stages_per_row * 2 * n * 8 + n * 16;
    const double gbps = p.fwd_row_us > 0 ? row_bytes / (p.fwd_row_us * 1e3) : 0;
    // The paper's Section I statistic: the transforms one graph run
    // issues, priced at the measured per-row cost, over the run's wall
    // time, all from the same probe.
    const double ntt_share =
        local_exec_ms > 0 ? (p.graph_fwd_rows * p.fwd_row_us +
                             p.graph_inv_rows * p.inv_row_us) *
                                1e-3 / local_exec_ms
                          : 0;

    std::vector<RequestTimes> requests = w.requests;
    requests.insert(requests.end(), traced.requests.begin(),
                    traced.requests.end());
    const Lateness late = AccountLateness(requests);
    // Median over adjacent untraced/traced pairs. Open-loop throughput
    // is the offered rate, so there the cost of tracing shows in
    // latency instead.
    std::vector<double> overhead;
    for (std::size_t k = 0; k < rep.slices.size() && k < rep.traced.size(); ++k) {
        const Window &u = rep.slices[k], &t = rep.traced[k];
        if (serve) {
            const double p0 = Median(u.latency_ms);
            overhead.push_back(p0 > 0 ? (Median(t.latency_ms) / p0 - 1) * 100 : 0);
        } else if (u.ops_per_s() > 0) {
            overhead.push_back((u.ops_per_s() - t.ops_per_s()) / u.ops_per_s() *
                               100);
        }
    }

    return {
        // No timed path encrypts or decrypts: the client's crypto is
        // timed by probe, at the workload's parameters.
        {"client.encrypt_ms", p.encrypt_ms, "ms"},
        {"client.decrypt_ms", p.decrypt_ms, "ms"},
        {"client.submit_ms", submit_ms, "ms"},
        {"client.wait_ms", wait_ms, "ms"},
        {"client.poll_ms", SpanMedianMs(sp, "client.poll"), "ms"},
        {"client.polls_per_op", serve && traced.ok() > 0 ? polls / traced.ok() : 0,
         "count"},
        {"wire.up_kib_per_op", rep.wire_up_kib, "KiB"},
        {"wire.down_kib_per_op", rep.wire_down_kib, "KiB"},
        {"coalescer.mean_batch", mean_batch, "count"},
        {"coalescer.coalesced_frac", coalesced_frac, "frac"},
        {"coalescer.max_batch", max_batch, "count"},
        {"serve.overhead_ms", serve ? wait_ms - local_exec_ms : 0, "ms"},
        {"graph.build_ms", build_ms, "ms"},
        {"graph.execute_ms", execute_ms, "ms"},
        {"graph.overhead_ms", local_exec_ms - p.mul_ms - p.second_ms, "ms"},
        {"he.batch_mul_ms", p.mul_ms, "ms"},
        {"he.relin_modswitch_ms", serve ? 0 : p.second_ms,
         "ms"},
        {"he.local_exec_ms", local_exec_ms, "ms"},
        {"he.allocs_per_op", w.PerOp(w.work.allocs), "count"},
        {"ntt.fwd_rows_per_op", fwd_rows, "count"},
        {"ntt.inv_rows_per_op", inv_rows, "count"},
        {"ntt.elementwise_rows_per_op",
         w.PerOp(w.work.ntt.elementwise), "count"},
        {"ntt.stage_dispatches_per_op",
         w.PerOp(w.work.ntt.butterfly_stages), "count"},
        {"ntt.fwd_row_us", p.fwd_row_us, "us"},
        {"ntt.inv_row_us", p.inv_row_us, "us"},
        {"ntt.computed_gbps", gbps, "GB/s"},
        {"ntt.share", ntt_share, "frac"},
        {"pool.cpu_per_wall", w.work.wall_s > 0 ? w.work.cpu_s / w.work.wall_s : 0,
         "x"},
        {"pool.scaling_x", rep.scaling_x, "x"},
        {"gen.late_p50_ms", late.p50_ms, "ms"},
        {"gen.late_max_ms", late.max_ms, "ms"},
        {"gen.outstanding_max", static_cast<double>(late.outstanding_max),
         "count"},
        {"trace.overhead_pct", Median(overhead), "%"},
    };
}

std::string
ContextJson(const std::string &workload, u64 seed, bool trace,
            const Report &rep)
{
    std::vector<RequestTimes> requests = Merge(rep.traced).requests;
    const std::vector<RequestTimes> plain = Merge(rep.slices).requests;
    requests.insert(requests.end(), plain.begin(), plain.end());
    const Lateness late = AccountLateness(requests);
    const auto [attempted, failed] = Totals(rep);
    std::string samples, tails, beyond, p50_ms, tail_ms;
    for (const Window &slice : rep.slices) {
        const TailChoice tail = ChooseTail(slice.latency_ms.size());
        const char *sep = samples.empty() ? "" : ", ";
        samples += sep + std::to_string(slice.latency_ms.size());
        tails += sep + std::string("\"") + tail.label + "\"";
        beyond += sep + std::to_string(tail.beyond);
        char ms[64];
        std::snprintf(ms, sizeof(ms), "%s%.4f", sep, Median(slice.latency_ms));
        p50_ms += ms;
        std::snprintf(ms, sizeof(ms), "%s%.4f", sep,
                      Quantile(slice.latency_ms, tail.q));
        tail_ms += ms;
    }
    // The tail over every sample of the window, which op_tail_ms (a
    // quantile over slices) does not see; too noisy on a shared host to
    // carry a bound, so it is recorded here only.
    const std::vector<double> all = Merge(rep.slices).latency_ms;
    const TailChoice pooled = ChooseTail(all.size());
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"lanes\": %zu, \"nproc\": %zu, \"simd\": \"%s\", "
        "\"l2_bytes\": %ld, \"l3_bytes\": %ld, \"degree\": %zu, "
        "\"limbs\": %zu, \"working_set_mib\": %.3f, "
        "\"working_set\": \"%s\", \"failed_frac\": %.6f, "
        "\"offered_rate\": %.1f, \"late_p50_ms\": %.4f, "
        "\"late_max_ms\": %.4f, \"outstanding_max\": %zu, "
        "\"setup_rss_mib\": %.3f, \"pooled_tail_percentile\": \"%s\", "
        "\"pooled_tail_ms\": %.4f, \"pooled_tail_beyond\": %zu, ",
        workload.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
        hentt::GlobalThreadCount(), Nproc(),
        hentt::simd::BackendName(hentt::simd::ActiveBackend()),
        sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
        rep.context.degree, rep.context.limbs, rep.context.working_set_mib,
        rep.context.working_set_note.c_str(),
        attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
        workload == "serve_open" ? kServeOpenRate : 0.0, late.p50_ms,
        late.max_ms, late.outstanding_max, rep.setup_rss_mib, pooled.label,
        Quantile(all, pooled.q), pooled.beyond);
    return buf + ("\"slice_samples\": [" + samples +
                  "], \"slice_tail_percentile\": [" + tails +
                  "], \"slice_tail_beyond\": [" + beyond +
                  "], \"slice_p50_ms\": [" + p50_ms +
                  "], \"slice_tail_ms\": [" + tail_ms + "]}");
}

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".bench_build/out";
};

Options
ParseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            Die("missing value for " + arg);
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value);
        } else if (arg == "--trace") {
            o.trace = value == "1";
        } else if (arg == "--out") {
            o.out_dir = value;
        } else {
            Die("unknown argument " + arg);
        }
    }
    if (o.workload != "mul_large" && o.workload != "serve_open") {
        Die("--workload must be mul_large or serve_open");
    }
    if (!(o.seconds > 0)) {
        Die("--seconds must be positive");
    }
    return o;
}

void
MakeDirs(const std::string &path)
{
    for (std::size_t pos = 0; pos != std::string::npos;) {
        pos = path.find('/', pos + 1);
        const std::string prefix = path.substr(0, pos);
        if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
            errno != EEXIST) {
            Die("mkdir(" + prefix + ") failed: " + std::strerror(errno));
        }
    }
}

int
Main(int argc, char **argv)
{
    const Options opt = ParseArgs(argc, argv);
    MakeDirs(opt.out_dir);
    hentt::SetGlobalThreadCount(Nproc());
    Watchdog watchdog;
    g_watchdog = &watchdog;

    Report rep;
    if (opt.workload == "mul_large") {
        rep = RunMulLarge(opt.seed, opt.seconds, opt.trace);
    } else {
        rep = RunServeOpen(opt.out_dir, opt.seed, opt.seconds, opt.trace);
    }

    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    const std::string context = ContextJson(opt.workload, opt.seed, opt.trace, rep);
    std::printf("context %s\n", context.c_str());
    if (opt.trace) {
        std::string table = "self-time table (traced window and probes):\n";
        char line[256];
        std::snprintf(line, sizeof(line), "  %-24s %8s %12s %12s\n", "span",
                      "count", "total_ms", "self_ms");
        table += line;
        for (const auto &[name, row] : SelfTimes(rep.spans)) {
            std::snprintf(line, sizeof(line), "  %-24s %8zu %12.3f %12.3f\n",
                          name.c_str(), row.count, row.total_ms, row.self_ms);
            table += line;
        }
        std::fputs(table.c_str(), stdout);
        if (std::FILE *f = std::fopen((stem + ".selftime.txt").c_str(), "w")) {
            std::fputs(table.c_str(), f);
            std::fclose(f);
        }
        if (std::FILE *f = std::fopen((stem + ".trace.json").c_str(), "w")) {
            WriteChromeTrace(f, rep.spans);
            std::fclose(f);
        }
    }

    const auto [attempted, failed] = Totals(rep);
    const bool correct = failed == 0 && attempted > 0;
    const std::string result =
        ResultLine(correct, attempted, failed,
                   opt.trace ? PerLayerMetrics(opt.workload, rep)
                             : EndToEndMetrics(rep));
    if (std::FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
        std::fprintf(f, "{\"context\": %s,\n \"result\": %s}\n", context.c_str(),
                     result.c_str());
        std::fclose(f);
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    g_watchdog = nullptr;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::Main(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
