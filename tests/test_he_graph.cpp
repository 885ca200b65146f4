/**
 * Tests for the ciphertext-level batched pipeline: HeOpGraph futures,
 * batched kernels, eval-domain relinearization keys (correctness at
 * every level of the modulus chain + NTT op-count budget).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "common/modarith.h"
#include "common/status.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"

namespace hentt::he {
namespace {

HeParams
ChainParams()
{
    HeParams params;
    params.degree = 64;
    params.prime_count = 4;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

class HeGraphTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_shared<HeContext>(ChainParams());
        scheme_ = std::make_unique<BgvScheme>(ctx_, /*seed=*/7);
        sk_.emplace(scheme_->KeyGen());
        rk_.emplace(scheme_->MakeRelinKey(*sk_));
    }

    Plaintext
    RandomPlain(u64 seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext m(ctx_->degree());
        for (u64 &x : m) {
            x = rng.NextBelow(ctx_->params().plain_modulus);
        }
        return m;
    }

    /** Negacyclic product of plaintexts mod t (the oracle). */
    Plaintext
    PlainMul(const Plaintext &a, const Plaintext &b) const
    {
        const u64 t = ctx_->params().plain_modulus;
        const std::size_t n = ctx_->degree();
        Plaintext c(n, 0);
        for (std::size_t k = 0; k < n; ++k) {
            u64 acc = 0;
            for (std::size_t i = 0; i <= k; ++i) {
                acc = AddMod(acc, MulModNative(a[i], b[k - i], t), t);
            }
            for (std::size_t i = k + 1; i < n; ++i) {
                acc = SubMod(acc, MulModNative(a[i], b[n + k - i], t), t);
            }
            c[k] = acc;
        }
        return c;
    }

    std::shared_ptr<HeContext> ctx_;
    std::unique_ptr<BgvScheme> scheme_;
    std::optional<SecretKey> sk_;
    std::optional<RelinKey> rk_;
};

// ---------------------------------------------------------------------
// Eval-domain relinearization keys
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, RelinKeyCoversEveryLevelInEvalDomain)
{
    ASSERT_EQ(rk_->levels.size(), 4u);
    for (std::size_t level = 1; level <= 4; ++level) {
        const auto &keys = rk_->at_level(level);
        ASSERT_EQ(keys.b.size(), level);
        ASSERT_EQ(keys.a.size(), level);
        for (std::size_t j = 0; j < level; ++j) {
            EXPECT_EQ(keys.b[j].domain(), RnsPoly::Domain::kEvaluation);
            EXPECT_EQ(keys.a[j].domain(), RnsPoly::Domain::kEvaluation);
            EXPECT_EQ(keys.b[j].prime_count(), level);
        }
    }
}

TEST_F(HeGraphTest, RelinearizeForwardNttBudgetIsNpSquared)
{
    // Eval-domain keys: the only forward transforms in a Relinearize
    // are the np digit lifts — np^2 single-row NTTs, against the
    // 4*np^2 the coefficient-domain-key formulation pays (keys and
    // digits re-transformed per gadget product) — plus the 2*np rows
    // of the accumulator inverse pair.
    const std::size_t np = 4;
    const Ciphertext prod = scheme_->Mul(
        scheme_->Encrypt(*sk_, RandomPlain(1)),
        scheme_->Encrypt(*sk_, RandomPlain(2)));
    ResetNttOpCounts();
    const Ciphertext relin = scheme_->Relinearize(prod, *rk_);
    const NttOpCounts counts = GetNttOpCounts();
    EXPECT_EQ(counts.forward, np * np);
    EXPECT_LT(counts.forward, 4 * np * np);  // the old budget
    EXPECT_EQ(counts.inverse, 2 * np);
    EXPECT_EQ(relin.degree(), 1u);
}

TEST_F(HeGraphTest, MulForwardNttBudgetIsFourTimesNp)
{
    const std::size_t np = 4;
    const Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(3));
    const Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(4));
    ResetNttOpCounts();
    const Ciphertext prod = scheme_->Mul(a, b);
    const NttOpCounts counts = GetNttOpCounts();
    EXPECT_EQ(counts.forward, 4 * np);  // one per input part x limb
    EXPECT_EQ(counts.inverse, 3 * np);  // one per result part x limb
    EXPECT_EQ(prod.degree(), 2u);
}

TEST_F(HeGraphTest, MulRelinDecryptsAtEveryLevel)
{
    // The satellite acceptance test: Mul + Relinearize round-trips at
    // every level of the modulus chain, with per-level keys.
    const Plaintext ma = RandomPlain(5);
    const Plaintext mb = RandomPlain(6);
    const Plaintext expect = PlainMul(ma, mb);
    for (std::size_t drops = 0; drops + 2 <= 4; ++drops) {
        Ciphertext a = scheme_->Encrypt(*sk_, ma);
        Ciphertext b = scheme_->Encrypt(*sk_, mb);
        for (std::size_t d = 0; d < drops; ++d) {
            a = scheme_->ModSwitch(a);
            b = scheme_->ModSwitch(b);
        }
        ASSERT_EQ(BgvScheme::Level(a), 4 - drops);
        const Ciphertext relin =
            scheme_->Relinearize(scheme_->Mul(a, b), *rk_);
        EXPECT_EQ(BgvScheme::Level(relin), 4 - drops);
        EXPECT_EQ(scheme_->Decrypt(*sk_, relin), expect)
            << "level " << (4 - drops);
    }
}

TEST_F(HeGraphTest, MulRelinModSwitchChainTracksNoise)
{
    // Two multiplicative levels: Mul+Relin at level 4, switch, Mul+Relin
    // against a fresh (switched) operand at level 3, switch again. The
    // plaintext survives and the noise budget shrinks monotonically but
    // stays positive throughout.
    const Plaintext ma = RandomPlain(7);
    const Plaintext mb = RandomPlain(8);
    const Plaintext mc = RandomPlain(9);

    Ciphertext acc = scheme_->Relinearize(
        scheme_->Mul(scheme_->Encrypt(*sk_, ma),
                     scheme_->Encrypt(*sk_, mb)),
        *rk_);
    const double budget_l4 = scheme_->NoiseBudgetBits(*sk_, acc);
    acc = scheme_->ModSwitch(acc);

    Ciphertext c = scheme_->ModSwitch(scheme_->Encrypt(*sk_, mc));
    acc = scheme_->Relinearize(scheme_->Mul(acc, c), *rk_);
    const double budget_l3 = scheme_->NoiseBudgetBits(*sk_, acc);
    acc = scheme_->ModSwitch(acc);
    const double budget_l2 = scheme_->NoiseBudgetBits(*sk_, acc);

    EXPECT_GT(budget_l4, 0.0);
    EXPECT_GT(budget_l3, 0.0);
    EXPECT_GT(budget_l2, 0.0);
    EXPECT_LT(budget_l3, budget_l4);

    EXPECT_EQ(BgvScheme::Level(acc), 2u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, acc),
              PlainMul(PlainMul(ma, mb), mc));
}

// ---------------------------------------------------------------------
// Batched kernels
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, BatchMulMatchesScalarMul)
{
    const Ciphertext a0 = scheme_->Encrypt(*sk_, RandomPlain(10));
    const Ciphertext b0 = scheme_->Encrypt(*sk_, RandomPlain(11));
    const Ciphertext a1 = scheme_->Encrypt(*sk_, RandomPlain(12));
    const Ciphertext b1 = scheme_->Encrypt(*sk_, RandomPlain(13));

    Ciphertext out0, out1;
    const Ciphertext *lhs[] = {&a0, &a1};
    const Ciphertext *rhs[] = {&b0, &b1};
    Ciphertext *dst[] = {&out0, &out1};
    BatchMul(*ctx_, lhs, rhs, dst);

    const Ciphertext ref0 = scheme_->Mul(a0, b0);
    const Ciphertext ref1 = scheme_->Mul(a1, b1);
    ASSERT_EQ(out0.parts.size(), 3u);
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t l = 0; l < 4; ++l) {
            EXPECT_TRUE(std::ranges::equal(out0.parts[j].row(l),
                                           ref0.parts[j].row(l)));
            EXPECT_TRUE(std::ranges::equal(out1.parts[j].row(l),
                                           ref1.parts[j].row(l)));
        }
    }
}

TEST_F(HeGraphTest, BatchRelinearizeMixedLevels)
{
    // One batch holding ciphertexts at different levels of the chain:
    // each decomposes against its own level's keys.
    const Plaintext ma = RandomPlain(14);
    const Plaintext mb = RandomPlain(15);
    const Ciphertext top =
        scheme_->Mul(scheme_->Encrypt(*sk_, ma),
                     scheme_->Encrypt(*sk_, mb));
    const Ciphertext low = scheme_->Mul(
        scheme_->ModSwitch(scheme_->Encrypt(*sk_, ma)),
        scheme_->ModSwitch(scheme_->Encrypt(*sk_, mb)));

    Ciphertext out_top, out_low;
    const Ciphertext *src[] = {&top, &low};
    Ciphertext *dst[] = {&out_top, &out_low};
    BatchRelinearize(*ctx_, *rk_, src, dst);

    const Plaintext expect = PlainMul(ma, mb);
    EXPECT_EQ(BgvScheme::Level(out_top), 4u);
    EXPECT_EQ(BgvScheme::Level(out_low), 3u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, out_top), expect);
    EXPECT_EQ(scheme_->Decrypt(*sk_, out_low), expect);
}

TEST_F(HeGraphTest, BatchMulSharedOperandTransformsOnce)
{
    // x feeds both products: interning by part address must transform
    // its parts once (6 distinct parts -> 6 forward rows x np), and the
    // results must match the scalar path.
    const std::size_t np = 4;
    const Ciphertext x = scheme_->Encrypt(*sk_, RandomPlain(40));
    const Ciphertext y = scheme_->Encrypt(*sk_, RandomPlain(41));
    const Ciphertext z = scheme_->Encrypt(*sk_, RandomPlain(42));

    Ciphertext xy, xz;
    const Ciphertext *lhs[] = {&x, &x};
    const Ciphertext *rhs[] = {&y, &z};
    Ciphertext *dst[] = {&xy, &xz};
    ResetNttOpCounts();
    BatchMul(*ctx_, lhs, rhs, dst);
    const NttOpCounts counts = GetNttOpCounts();
    EXPECT_EQ(counts.forward, 6 * np);  // not 8*np: x shared
    EXPECT_EQ(counts.inverse, 6 * np);  // 2 products x 3 parts

    const Ciphertext ref_xy = scheme_->Mul(x, y);
    const Ciphertext ref_xz = scheme_->Mul(x, z);
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t l = 0; l < np; ++l) {
            EXPECT_TRUE(std::ranges::equal(xy.parts[j].row(l),
                                           ref_xy.parts[j].row(l)));
            EXPECT_TRUE(std::ranges::equal(xz.parts[j].row(l),
                                           ref_xz.parts[j].row(l)));
        }
    }
}

TEST_F(HeGraphTest, BatchKernelRejectsMismatchedSpans)
{
    const Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(16));
    const Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(17));
    Ciphertext out0, out1;
    const Ciphertext *lhs[] = {&a};
    const Ciphertext *rhs[] = {&b};
    Ciphertext *two[] = {&out0, &out1};
    EXPECT_THROW(BatchMul(*ctx_, lhs, rhs, two), std::invalid_argument);
}

// ---------------------------------------------------------------------
// HeOpGraph futures + wavefront execution
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, GraphMatchesScalarPipeline)
{
    const Plaintext ma = RandomPlain(18);
    const Plaintext mb = RandomPlain(19);
    const Plaintext mc = RandomPlain(20);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture y = graph.Input(scheme_->Encrypt(*sk_, mb));
    const CtFuture z = graph.Input(scheme_->Encrypt(*sk_, mc));

    // Two independent MulRelins land in the same wavefront and batch.
    const CtFuture xy = graph.MulRelin(x, y);
    const CtFuture zz = graph.MulRelin(z, z);
    const CtFuture sum = graph.Add(xy, zz);

    EXPECT_FALSE(sum.ready());
    EXPECT_GT(graph.pending(), 0u);
    const Ciphertext &result = sum.get();  // forces Execute
    EXPECT_TRUE(sum.ready());
    EXPECT_TRUE(xy.ready());  // same run computed the whole graph
    EXPECT_EQ(graph.pending(), 0u);

    const u64 t = ctx_->params().plain_modulus;
    const Plaintext p_xy = PlainMul(ma, mb);
    const Plaintext p_zz = PlainMul(mc, mc);
    const Plaintext dec = scheme_->Decrypt(*sk_, result);
    for (std::size_t i = 0; i < dec.size(); ++i) {
        EXPECT_EQ(dec[i], AddMod(p_xy[i], p_zz[i], t));
    }
}

TEST_F(HeGraphTest, DiamondGraphWithModSwitch)
{
    const Plaintext ma = RandomPlain(21);
    const Plaintext mb = RandomPlain(22);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture y = graph.Input(scheme_->Encrypt(*sk_, mb));
    const CtFuture s = graph.Add(x, y);
    const CtFuture d = graph.Sub(x, y);
    // (x + y) * (x - y), relinearized, then down one level.
    const CtFuture prod = graph.MulRelin(s, d);
    const CtFuture low = graph.ModSwitch(prod);
    graph.Execute();
    EXPECT_TRUE(low.ready());

    const u64 t = ctx_->params().plain_modulus;
    Plaintext sum(ctx_->degree()), diff(ctx_->degree());
    for (std::size_t i = 0; i < sum.size(); ++i) {
        sum[i] = AddMod(ma[i], mb[i], t);
        diff[i] = SubMod(ma[i], mb[i], t);
    }
    EXPECT_EQ(BgvScheme::Level(low.get()), 3u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, low.get()), PlainMul(sum, diff));
}

TEST_F(HeGraphTest, GraphKeepsGrowingAfterExecute)
{
    const Plaintext ma = RandomPlain(23);
    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture sq = graph.MulRelin(x, x);
    graph.Execute();
    EXPECT_TRUE(sq.ready());
    // Appending to an already-run graph re-runs only the new nodes.
    const CtFuture low = graph.ModSwitch(sq);
    EXPECT_FALSE(low.ready());
    EXPECT_EQ(scheme_->Decrypt(*sk_, low.get()), PlainMul(ma, ma));
}

TEST_F(HeGraphTest, GraphApiMisuseThrows)
{
    HeOpGraph graph(*scheme_, &*rk_);
    HeOpGraph other(*scheme_, &*rk_);
    const CtFuture x =
        graph.Input(scheme_->Encrypt(*sk_, RandomPlain(24)));
    const CtFuture foreign =
        other.Input(scheme_->Encrypt(*sk_, RandomPlain(25)));
    EXPECT_THROW(graph.Add(x, foreign), std::invalid_argument);
    EXPECT_THROW(graph.Add(x, CtFuture{}), std::invalid_argument);
    EXPECT_THROW(CtFuture{}.get(), std::logic_error);

    // Relinearize without keys only fails at execution time.
    HeOpGraph keyless(*scheme_, nullptr);
    const CtFuture a =
        keyless.Input(scheme_->Encrypt(*sk_, RandomPlain(26)));
    const CtFuture bad = keyless.MulRelin(a, a);
    EXPECT_THROW(keyless.Execute(), std::logic_error);
    (void)bad;
}

// ---------------------------------------------------------------------
// Failure containment: a failed node poisons exactly its dependents
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, FailedNodePoisonsOnlyItsDependents)
{
    const Ciphertext ca = scheme_->Encrypt(*sk_, RandomPlain(80));
    const Ciphertext cb = scheme_->Encrypt(*sk_, RandomPlain(81));

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(ca);
    const CtFuture y = graph.Input(cb);
    const CtFuture m = graph.Mul(x, y);
    // Adding a degree-2 product to a degree-1 fresh ciphertext is a
    // kernel-level failure that only surfaces at execution time.
    const CtFuture bad = graph.Add(m, x);
    const CtFuture poisoned = graph.ModSwitch(bad);
    // Independent consumer of the same healthy operand.
    const CtFuture good = graph.Relinearize(m);

    // Containment: Execute() settles the failure instead of unwinding.
    EXPECT_NO_THROW(graph.Execute());
    EXPECT_EQ(graph.pending(), 0u);

    // The untainted chain completed, bit-identical to the scalar path.
    ASSERT_TRUE(good.ready());
    const Ciphertext ref =
        scheme_->Relinearize(scheme_->Mul(ca, cb), *rk_);
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0; l < good.get().parts[j].prime_count();
             ++l) {
            EXPECT_TRUE(std::ranges::equal(good.get().parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }

    // The failing node carries the kernel's Status with provenance.
    const Status bad_status = bad.status();
    EXPECT_EQ(bad_status.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(bad_status.message().find("degrees differ"),
              std::string::npos);
    bool named = false;
    for (const std::string &frame : bad_status.frames()) {
        named = named || frame.find("(Add)") != std::string::npos;
    }
    EXPECT_TRUE(named) << bad_status.ToString();

    // Its dependent is poisoned, naming the origin node and kind.
    const Status poison = poisoned.status();
    EXPECT_EQ(poison.code(), ErrorCode::kPoisoned);
    EXPECT_NE(poison.message().find("operand node"), std::string::npos);
    EXPECT_NE(poison.message().find("(Add)"), std::string::npos);

    // get() on a failed node throws through the bridge, with the
    // demanding future named in the provenance chain.
    try {
        (void)bad.get();
        FAIL() << "did not throw";
    } catch (const std::invalid_argument &e) {
        const auto *carrier = dynamic_cast<const StatusCarrier *>(&e);
        ASSERT_NE(carrier, nullptr);
        ASSERT_FALSE(carrier->status().frames().empty());
        EXPECT_NE(carrier->status().frames().back().find("CtFuture::get"),
                  std::string::npos);
    }

    // TryGet surfaces the same failure without throwing.
    const Result<const Ciphertext *> try_bad = poisoned.TryGet();
    ASSERT_FALSE(try_bad.ok());
    EXPECT_EQ(try_bad.status().code(), ErrorCode::kPoisoned);
    const Result<const Ciphertext *> try_good = good.TryGet();
    ASSERT_TRUE(try_good.ok());
    EXPECT_EQ((*try_good)->parts.size(), 2u);

    // ExecuteStatus aggregates BOTH settled failures, not just one.
    const Status aggregate = graph.ExecuteStatus();
    EXPECT_EQ(aggregate.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(aggregate.message().find("2 tasks failed"),
              std::string::npos);
}

TEST_F(HeGraphTest, BatchOfOneRetryIsolatesTheFailingMember)
{
    // Two Add nodes share one wavefront batch; one member is invalid.
    // The batch kernel rejects the whole call, so the scheduler must
    // retry member-by-member: the healthy node completes bit-identically
    // and only the bad one settles with an error.
    const Ciphertext ca = scheme_->Encrypt(*sk_, RandomPlain(82));
    const Ciphertext cb = scheme_->Encrypt(*sk_, RandomPlain(83));
    const Ciphertext prod = scheme_->Mul(ca, cb);  // degree 2

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture p = graph.Input(prod);
    const CtFuture fa = graph.Input(ca);
    const CtFuture fb = graph.Input(cb);
    const CtFuture bad = graph.Add(p, fa);   // degree mismatch
    const CtFuture good = graph.Add(fa, fb); // same depth, same kind

    EXPECT_NO_THROW(graph.Execute());
    ASSERT_TRUE(good.ready());
    EXPECT_TRUE(good.status().ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
    bool from_kernel = false;
    for (const std::string &frame : bad.status().frames()) {
        from_kernel =
            from_kernel || frame.find("BatchAdd") != std::string::npos;
    }
    EXPECT_TRUE(from_kernel) << bad.status().ToString();

    const Ciphertext ref = scheme_->Add(ca, cb);
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0; l < good.get().parts[j].prime_count();
             ++l) {
            EXPECT_TRUE(std::ranges::equal(good.get().parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }
}

TEST_F(HeGraphTest, FutureStatusReportsUnavailableUntilExecuted)
{
    const CtFuture empty;
    EXPECT_EQ(empty.status().code(), ErrorCode::kUnavailable);
    const Result<const Ciphertext *> try_empty = empty.TryGet();
    ASSERT_FALSE(try_empty.ok());
    EXPECT_EQ(try_empty.status().code(), ErrorCode::kFailedPrecondition);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, RandomPlain(84)));
    const CtFuture s = graph.Add(x, x);
    EXPECT_EQ(s.status().code(), ErrorCode::kUnavailable);
    graph.Execute();
    EXPECT_TRUE(s.status().ok());
}

}  // namespace
}  // namespace hentt::he
