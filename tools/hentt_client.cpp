/**
 * @file
 * hentt-client CLI: poke a running hentt-daemon.
 *
 *   ping      liveness round trip
 *   stats     print the daemon's counters
 *   demo      full encrypted round trip: keygen locally, create a
 *             session, upload keys, submit a*b followed by the
 *             fused RelinModSwitch op, await, decrypt, verify the
 *             product
 *   shutdown  stop the daemon
 *
 * The demo is the CI smoke test for the built binaries: it exercises
 * the whole wire path (handshake, session, keys, graph, poll) against
 * a real daemon process and exits non-zero unless the decrypted result
 * matches the locally computed product.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "he/sampling.h"
#include "serve/client.h"

namespace {

void
Usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --socket PATH (ping|stats|demo|shutdown)\n";
}

int
RunDemo(hentt::serve::Client &client)
{
    using namespace hentt;

    he::HeParams params;
    params.degree = 64;
    params.prime_count = 3;
    params.prime_bits = 50;
    params.plain_modulus = 257;

    Result<u64> session = client.CreateSession(params);
    if (!session.ok()) {
        std::cerr << "CreateSession: " << session.status().ToString()
                  << "\n";
        return 1;
    }
    std::cout << "session " << *session << " created\n";

    he::BgvScheme scheme(client.context(), /*seed=*/7);
    he::SecretKey sk = scheme.KeyGen();
    he::RelinKey rk = scheme.MakeRelinKey(sk);
    Status loaded = client.LoadKeys(rk);
    if (!loaded.ok()) {
        std::cerr << "LoadKeys: " << loaded.ToString() << "\n";
        return 1;
    }

    Xoshiro256 rng(11);
    he::Plaintext a(params.degree), b(params.degree);
    for (std::size_t i = 0; i < params.degree; ++i) {
        a[i] = rng.Next() % params.plain_modulus;
        b[i] = rng.Next() % params.plain_modulus;
    }

    // Program over slots: 0,1 = inputs; 2 = a*b; 3 = the fused
    // relinearize-and-modswitch of 2. Return slot 3.
    std::vector<he::Ciphertext> inputs;
    inputs.push_back(scheme.Encrypt(sk, a));
    inputs.push_back(scheme.Encrypt(sk, b));
    const std::vector<serve::WireProgram::Op> ops = {
        {serve::WireOp::kMul, 0, 1},
        {serve::WireOp::kRelinModSwitch, 2, 0},
    };
    Result<u64> request = client.SubmitGraph(inputs, ops, {3});
    if (!request.ok()) {
        std::cerr << "SubmitGraph: " << request.status().ToString()
                  << "\n";
        return 1;
    }
    Result<std::vector<he::Ciphertext>> outputs =
        client.AwaitDone(*request);
    if (!outputs.ok()) {
        std::cerr << "AwaitDone: " << outputs.status().ToString()
                  << "\n";
        return 1;
    }
    if (outputs->size() != 1) {
        std::cerr << "demo: expected 1 output, got "
                  << outputs->size() << "\n";
        return 1;
    }

    // Negacyclic product of the plaintexts, mod t — the expected
    // decryption.
    const u64 t = params.plain_modulus;
    he::Plaintext expected(params.degree, 0);
    for (std::size_t i = 0; i < params.degree; ++i) {
        for (std::size_t j = 0; j < params.degree; ++j) {
            const u64 prod = (a[i] * b[j]) % t;
            const std::size_t k = i + j;
            if (k < params.degree) {
                expected[k] = (expected[k] + prod) % t;
            } else {
                const std::size_t w = k - params.degree;
                expected[w] = (expected[w] + t - prod) % t;
            }
        }
    }
    const he::Plaintext got = scheme.Decrypt(sk, outputs->front());
    if (got != expected) {
        std::cerr << "demo: decrypted product mismatch\n";
        return 1;
    }
    std::cout << "demo: encrypted a*b round trip verified ("
              << params.degree << " coefficients mod " << t << ")\n";
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string command;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            socket_path = argv[++i];
        } else if (command.empty() && !arg.empty() && arg[0] != '-') {
            command = arg;
        } else {
            Usage(argv[0]);
            return arg == "--help" ? 0 : 1;
        }
    }
    if (socket_path.empty() || command.empty()) {
        Usage(argv[0]);
        return 1;
    }

    hentt::Result<std::unique_ptr<hentt::serve::Client>> client =
        hentt::serve::Client::Connect(socket_path);
    if (!client.ok()) {
        std::cerr << "connect: " << client.status().ToString() << "\n";
        return 1;
    }

    if (command == "ping") {
        const hentt::Status status = (*client)->Ping();
        if (!status.ok()) {
            std::cerr << "ping: " << status.ToString() << "\n";
            return 1;
        }
        std::cout << "pong (protocol v"
                  << (*client)->protocol_version() << ")\n";
        return 0;
    }
    if (command == "stats") {
        hentt::Result<hentt::serve::WireStats> stats =
            (*client)->Stats();
        if (!stats.ok()) {
            std::cerr << "stats: " << stats.status().ToString()
                      << "\n";
            return 1;
        }
        std::cout << "sessions_created=" << stats->sessions_created
                  << " sessions_active=" << stats->sessions_active
                  << " requests_submitted=" << stats->requests_submitted
                  << " requests_completed=" << stats->requests_completed
                  << " requests_failed=" << stats->requests_failed
                  << " batches_executed=" << stats->batches_executed
                  << " coalesced_requests=" << stats->coalesced_requests
                  << " max_batch_observed=" << stats->max_batch_observed
                  << "\n";
        return 0;
    }
    if (command == "demo") {
        return RunDemo(**client);
    }
    if (command == "shutdown") {
        const hentt::Status status = (*client)->Shutdown();
        if (!status.ok()) {
            std::cerr << "shutdown: " << status.ToString() << "\n";
            return 1;
        }
        std::cout << "daemon acknowledged shutdown\n";
        return 0;
    }
    Usage(argv[0]);
    return 1;
}
