/**
 * @file
 * End-to-end tests of the serving layer over real unix-domain sockets:
 * an in-process Daemon, real Client connections, real frames.
 *
 * What must hold (the acceptance criteria of the serving layer):
 *   - a full encrypted round trip (keygen → session → keys → graph →
 *     poll → decrypt) produces the same plaintext as local evaluation;
 *   - concurrent clients coalesce: the daemon's stats prove requests
 *     shared a wavefront batch;
 *   - every failure — protocol misuse, malformed bytes, missing keys,
 *     injected faults — reaches the client as a Status with the
 *     daemon's provenance, and the daemon keeps serving afterwards;
 *   - a dying connection takes its session with it (no orphans);
 *   - shutdown over the wire stops the daemon cleanly.
 *
 * The fault-injection cases arm the serve.request site and are skipped
 * (trivially green) when failpoints are not compiled in; the CI serve
 * job runs this suite in both configurations. These tests carry the
 * `serve` ctest label: socket-bound and timing-windowed, they get a
 * tighter timeout and one CI retry (CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace hentt::serve {
namespace {

he::HeParams
SmallParams()
{
    he::HeParams params;
    params.degree = 64;
    params.prime_count = 3;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

/** Unique socket path per test (the daemon unlinks it on stop). */
std::string
TestSocketPath(const char *tag)
{
    return "/tmp/hentt-serve-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

/** Poll daemon stats until @p pred holds or ~2s elapse. */
template <typename Pred>
bool
EventuallyTrue(Pred pred)
{
    for (int i = 0; i < 200; ++i) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

class ServeE2E : public ::testing::Test
{
  protected:
    void
    StartDaemon(const char *tag, BatchConfig batch = {})
    {
        DaemonConfig config;
        config.socket_path = TestSocketPath(tag);
        config.batch = batch;
        daemon_ = std::make_unique<Daemon>(config);
        const Status started = daemon_->Start();
        ASSERT_TRUE(started.ok()) << started.ToString();
    }

    std::unique_ptr<Client>
    NewClient()
    {
        Result<std::unique_ptr<Client>> client =
            Client::Connect(daemon_->socket_path());
        EXPECT_TRUE(client.ok()) << client.status().ToString();
        return client.ok() ? std::move(*client) : nullptr;
    }

    void
    TearDown() override
    {
        if (daemon_ != nullptr) {
            daemon_->Stop();
        }
        fp::ResetAll();
    }

    std::unique_ptr<Daemon> daemon_;
};

TEST_F(ServeE2E, PingAndStats)
{
    StartDaemon("ping");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->protocol_version(), kProtocolVersion);
    const Status ping = client->Ping();
    EXPECT_TRUE(ping.ok()) << ping.ToString();
    Result<WireStats> stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->sessions_created, 0u);
    EXPECT_EQ(stats->requests_submitted, 0u);
}

TEST_F(ServeE2E, EncryptedRoundTripMatchesLocalEvaluation)
{
    StartDaemon("roundtrip");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);

    const he::HeParams params = SmallParams();
    Result<u64> session = client->CreateSession(params);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    he::BgvScheme scheme(client->context(), /*seed=*/42);
    he::SecretKey sk = scheme.KeyGen();
    he::RelinKey rk = scheme.MakeRelinKey(sk);
    const Status loaded = client->LoadKeys(rk);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    he::Plaintext a(params.degree), b(params.degree);
    for (std::size_t i = 0; i < params.degree; ++i) {
        a[i] = (3 * i + 1) % params.plain_modulus;
        b[i] = (5 * i + 2) % params.plain_modulus;
    }
    he::Ciphertext ct_a = scheme.Encrypt(sk, a);
    he::Ciphertext ct_b = scheme.Encrypt(sk, b);

    // Remote: slot 2 = a*b, slot 3 = relin, slot 4 = modswitch.
    Result<u64> request = client->SubmitGraph(
        {ct_a, ct_b},
        {{WireOp::kMul, 0, 1},
         {WireOp::kRelin, 2, 0},
         {WireOp::kModSwitch, 3, 0}},
        {4});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    ASSERT_EQ(outputs->size(), 1u);

    // Local reference evaluation over the same ciphertexts.
    const he::Ciphertext expected =
        scheme.ModSwitch(scheme.Relinearize(scheme.Mul(ct_a, ct_b), rk));
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              scheme.Decrypt(sk, expected));

    // The wire's fused op: slot 2 = a*b, slot 3 = RelinModSwitch(2),
    // word for word the local fused evaluation.
    Result<u64> fused_request = client->SubmitGraph(
        {ct_a, ct_b},
        {{WireOp::kMul, 0, 1}, {WireOp::kRelinModSwitch, 2, 0}}, {3});
    ASSERT_TRUE(fused_request.ok()) << fused_request.status().ToString();
    Result<std::vector<he::Ciphertext>> fused =
        client->AwaitDone(*fused_request);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    ASSERT_EQ(fused->size(), 1u);
    const he::Ciphertext fused_expected =
        scheme.RelinModSwitch(scheme.Mul(ct_a, ct_b), rk);
    const he::Ciphertext &fused_out = fused->front();
    ASSERT_EQ(fused_out.parts.size(), fused_expected.parts.size());
    for (std::size_t j = 0; j < fused_expected.parts.size(); ++j) {
        ASSERT_EQ(fused_out.parts[j].prime_count(),
                  fused_expected.parts[j].prime_count());
        for (std::size_t l = 0; l < fused_expected.parts[j].prime_count();
             ++l) {
            EXPECT_TRUE(std::ranges::equal(fused_out.parts[j].row(l),
                                           fused_expected.parts[j].row(l)))
                << "part " << j << " limb " << l;
        }
    }

    Result<WireStats> stats = client->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->requests_completed, 2u);
    EXPECT_EQ(stats->requests_failed, 0u);
}

TEST_F(ServeE2E, ConcurrentClientsCoalesceIntoSharedBatches)
{
    // A wide admission window guarantees concurrently submitted
    // requests land in one batch; the stats must prove it.
    BatchConfig batch;
    batch.max_batch = 64;
    batch.max_wait = std::chrono::microseconds(200000);
    StartDaemon("batch", batch);

    const he::HeParams params = SmallParams();
    constexpr int kClients = 6;
    std::vector<std::thread> threads;
    std::vector<Status> outcomes(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([this, &params, &outcomes, c] {
            Result<std::unique_ptr<Client>> client =
                Client::Connect(daemon_->socket_path());
            if (!client.ok()) {
                outcomes[c] = client.status();
                return;
            }
            Result<u64> session = (*client)->CreateSession(params);
            if (!session.ok()) {
                outcomes[c] = session.status();
                return;
            }
            he::BgvScheme scheme((*client)->context(),
                                 /*seed=*/100 + c);
            he::SecretKey sk = scheme.KeyGen();
            he::Plaintext m(params.degree, static_cast<u64>(c + 1));
            he::Ciphertext ct = scheme.Encrypt(sk, m);
            // Keyless program (Add): batches across every client
            // regardless of their (distinct, unloaded) keys.
            Result<u64> request = (*client)->SubmitGraph(
                {ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
            if (!request.ok()) {
                outcomes[c] = request.status();
                return;
            }
            Result<std::vector<he::Ciphertext>> outputs =
                (*client)->AwaitDone(*request);
            if (!outputs.ok()) {
                outcomes[c] = outputs.status();
                return;
            }
            he::Plaintext expected(params.degree,
                                   static_cast<u64>(2 * (c + 1)) %
                                       params.plain_modulus);
            if (scheme.Decrypt(sk, outputs->front()) != expected) {
                outcomes[c] = Status(ErrorCode::kInternal,
                                     "decrypted sum mismatch");
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (int c = 0; c < kClients; ++c) {
        EXPECT_TRUE(outcomes[c].ok())
            << "client " << c << ": " << outcomes[c].ToString();
    }
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.requests_completed,
              static_cast<u64>(kClients));
    // The batching proof: at least one batch held >1 request. (All six
    // submits race one 200ms admission window, so in practice all of
    // them share a batch; >1 is the robust floor.)
    EXPECT_GT(stats.max_batch_observed, 1u)
        << "no cross-client coalescing observed: "
        << stats.batches_executed << " batches for " << kClients
        << " requests";
    EXPECT_GT(stats.coalesced_requests, 0u);
}

TEST_F(ServeE2E, ErrorsArriveAsStatusWithDaemonProvenance)
{
    StartDaemon("errors");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);

    // Misuse before a session exists: precise precondition failures.
    {
        auto ctx = std::make_shared<const he::HeContext>(SmallParams());
        he::BgvScheme scheme(ctx, 5);
        he::SecretKey sk = scheme.KeyGen();
        const Status status = client->LoadKeys(scheme.MakeRelinKey(sk));
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
        EXPECT_FALSE(status.frames().empty())
            << "daemon-side provenance lost: " << status.ToString();
    }

    // Invalid parameters: rejected via serde validation as
    // kInvalidArgument, connection stays up.
    he::HeParams bad = SmallParams();
    bad.degree = 63;  // not a power of two
    Result<u64> bad_session = client->CreateSession(bad);
    ASSERT_FALSE(bad_session.ok());
    EXPECT_EQ(bad_session.status().code(),
              ErrorCode::kInvalidArgument);

    // The same connection still serves: create a real session.
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    // Key-switching without keys: fail-fast at submit.
    he::BgvScheme scheme(client->context(), 6);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 1));
    Result<u64> keyless = client->SubmitGraph(
        {ct, ct}, {{WireOp::kMul, 0, 1}, {WireOp::kRelin, 2, 0}}, {3});
    ASSERT_FALSE(keyless.ok());
    EXPECT_EQ(keyless.status().code(),
              ErrorCode::kFailedPrecondition);
    Result<u64> keyless_fused = client->SubmitGraph(
        {ct, ct},
        {{WireOp::kMul, 0, 1}, {WireOp::kRelinModSwitch, 2, 0}}, {3});
    ASSERT_FALSE(keyless_fused.ok());
    EXPECT_EQ(keyless_fused.status().code(),
              ErrorCode::kFailedPrecondition);

    // Unknown request id: a polling error, not a hang.
    Result<Client::Outcome> unknown = client->Poll(991199);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(),
              ErrorCode::kFailedPrecondition);

    // After all that abuse the daemon still answers.
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, PollIsScopedToTheOwningSession)
{
    // Request ids are sequential, so a misbehaving client can guess
    // another session's id; polling it must neither reveal nor
    // consume the foreign result (the per-session isolation
    // guarantee of the multi-client server).
    StartDaemon("poll-scope");
    std::unique_ptr<Client> owner = NewClient();
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(owner->context(), /*seed=*/12);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 7));
    Result<u64> request =
        owner->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    // Let the request settle daemon-side, so the thief below targets
    // a done (undelivered) result — the worst case.
    EXPECT_TRUE(EventuallyTrue([this] {
        return daemon_->Stats().requests_completed == 1;
    }));

    // A connection with no session at all is rejected outright.
    std::unique_ptr<Client> thief = NewClient();
    ASSERT_NE(thief, nullptr);
    Result<Client::Outcome> no_session = thief->Poll(*request);
    ASSERT_FALSE(no_session.ok());
    EXPECT_EQ(no_session.status().code(),
              ErrorCode::kFailedPrecondition);

    // With its own session, the foreign id reads as unknown — same
    // answer a nonexistent id gets, so ids enumerate nothing.
    ASSERT_TRUE(thief->CreateSession(SmallParams()).ok());
    Result<Client::Outcome> stolen = thief->Poll(*request);
    ASSERT_FALSE(stolen.ok());
    EXPECT_EQ(stolen.status().code(),
              ErrorCode::kFailedPrecondition);

    // The theft attempts consumed nothing: the owner still collects
    // and decrypts its result.
    Result<std::vector<he::Ciphertext>> outputs =
        owner->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 14));
}

TEST_F(ServeE2E, MalformedFrameBytesGetErrorReplyAndDaemonSurvives)
{
    StartDaemon("badbytes");

    // Raw socket speaking garbage after a valid handshake.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon_->socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    Result<u32> version = ClientHandshake(fd);
    ASSERT_TRUE(version.ok()) << version.status().ToString();

    // A frame header claiming an unknown type: the daemon must answer
    // with a kError frame before closing this connection.
    const u8 garbage[6] = {0, 0, 0, 0, kProtocolVersion, 0xEE};
    ASSERT_TRUE(WriteAll(fd, garbage).ok());
    Result<Frame> reply = ReadFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kError);
    Result<WireStatus> ws = DecodeStatus(reply->payload);
    ASSERT_TRUE(ws.ok());
    EXPECT_EQ(static_cast<ErrorCode>(ws->code),
              ErrorCode::kInvalidArgument);
    ::close(fd);

    // The daemon survives for well-behaved clients.
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, DyingConnectionLeavesNoOrphanedSession)
{
    StartDaemon("orphans");
    {
        std::unique_ptr<Client> client = NewClient();
        ASSERT_NE(client, nullptr);
        Result<u64> session = client->CreateSession(SmallParams());
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        EXPECT_TRUE(EventuallyTrue(
            [this] { return daemon_->Stats().sessions_active == 1; }));
        // Client destructor closes the socket with no CloseSession —
        // the abrupt-death path.
    }
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 0; }))
        << "session survived its connection";
    EXPECT_EQ(daemon_->Stats().sessions_created, 1u);

    // Explicit CloseSession also releases, with the connection alive.
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 1; }));
    EXPECT_TRUE(client->CloseSession().ok());
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 0; }));
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, ShutdownOverTheWire)
{
    StartDaemon("shutdown");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Shutdown().ok());
    daemon_->Wait();
    // A fresh connect must fail — the socket is gone.
    Result<std::unique_ptr<Client>> late =
        Client::Connect(daemon_->socket_path());
    EXPECT_FALSE(late.ok());
    daemon_.reset();
}

TEST_F(ServeE2E, InjectedFaultsSurfaceAsWireStatus)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoints not compiled in "
                        "(-DHENTT_FAILPOINTS=ON)";
    }
    StartDaemon("chaos");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), 9);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 2));

    // Deterministic: the very next pass over serve.request fires. The
    // injected fault must come back as a kInjected Status with
    // provenance — over the wire, not as a dropped connection.
    fp::ArmNth(fp::kServeRequest, 1);
    Result<u64> injected =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_FALSE(injected.ok());
    EXPECT_EQ(injected.status().code(), ErrorCode::kInjected)
        << injected.status().ToString();
    EXPECT_FALSE(injected.status().frames().empty());
    fp::DisarmAll();

    // Connection and daemon both survive; the same request now runs.
    Result<u64> retry =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*retry);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 4));
    EXPECT_EQ(daemon_->Stats().sessions_active, 1u);
}

TEST_F(ServeE2E, ChaosSweepNeverKillsTheDaemon)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoints not compiled in "
                        "(-DHENTT_FAILPOINTS=ON)";
    }
    StartDaemon("chaos-sweep");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), 10);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 3));

    // Probabilistic sweep: every outcome must be either success or a
    // clean kInjected Status; the daemon must survive all of it. A
    // request crosses the armed site several times (submit handler,
    // coalescer admission, every poll round trip — the poll count is
    // timing-dependent), so a fixed iteration count can land all-
    // injected; sweep until both outcomes have occurred, capped.
    fp::SeedRng(0xC0FFEE);
    fp::Arm(fp::kServeRequest, 0.4);
    int injected = 0, succeeded = 0;
    for (int i = 0;
         i < 200 && (injected == 0 || succeeded == 0); ++i) {
        Result<u64> request =
            client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
        if (!request.ok()) {
            EXPECT_EQ(request.status().code(), ErrorCode::kInjected)
                << request.status().ToString();
            ++injected;
            continue;
        }
        Result<std::vector<he::Ciphertext>> outputs =
            client->AwaitDone(*request);
        if (!outputs.ok()) {
            EXPECT_EQ(outputs.status().code(), ErrorCode::kInjected)
                << outputs.status().ToString();
            ++injected;
            continue;
        }
        ++succeeded;
    }
    fp::DisarmAll();
    EXPECT_GT(injected, 0) << "p=0.4 over 200 sweeps never fired";
    EXPECT_GT(succeeded, 0)
        << "no request survived 200 sweeps at p=0.4";
    // No-fault epilogue: service is fully intact.
    Result<u64> final_request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(final_request.ok())
        << final_request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*final_request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 6));
    EXPECT_EQ(daemon_->Stats().sessions_active, 1u);
}

TEST_F(ServeE2E, UnbatchedAblationStillServes)
{
    // coalesce=false (the bench baseline) must be functionally
    // identical — only slower.
    BatchConfig batch;
    batch.coalesce = false;
    StartDaemon("nobatch", batch);
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(client->context(), 11);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 5));
    Result<u64> request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 10));
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.coalesced_requests, 0u);
    EXPECT_EQ(stats.max_batch_observed, 1u);
}

}  // namespace
}  // namespace hentt::serve
