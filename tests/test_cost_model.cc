/**
 * @file
 * Tests for the calibrated step-cost surface: the interpolated cost
 * model (anchor agreement, error bound, monotonicity, saturation
 * handling), engine pooling, parallel cache warming, and the
 * overflow tail of the cost cache.
 */

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hermes.hh"

namespace hermes::serving {
namespace {

ServingConfig
costServing(CostModel model, std::uint32_t seq_bucket = 256,
            std::uint32_t max_batch = 4)
{
    ServingConfig config;
    config.maxBatch = max_batch;
    config.calibrationTokens = 4;
    config.seqBucket = seq_bucket;
    config.costModel = model;
    return config;
}

TEST(CostModel, NamesRoundTrip)
{
    EXPECT_EQ(costModelName(CostModel::Exact), "exact");
    EXPECT_EQ(costModelName(CostModel::Interp), "interp");
    EXPECT_EQ(costModelByName("exact"), CostModel::Exact);
    EXPECT_EQ(costModelByName("interp"), CostModel::Interp);
    EXPECT_THROW(costModelByName("quadratic"),
                 std::invalid_argument);
}

TEST(CostModel, DefaultIsExact)
{
    // Goldens and equivalence pins rely on the default staying
    // exact; interp is an explicit opt-in.
    EXPECT_EQ(ServingConfig{}.costModel, CostModel::Exact);
}

TEST(CostModel, InterpWithinTwoPercentOfExactOnEveryEngine)
{
    // The headline accuracy pin: for every engine, interpolated
    // costs stay within 2% of the exact engine simulation at
    // non-anchor buckets.  Probes walk contexts upward (columns
    // 17, 19, 25, 28, 31 — all strictly between anchors) and stop
    // comparing once the exact surface saturates (past capacity
    // the interp path falls back to exact simulations, covered
    // separately).
    const std::vector<std::uint64_t> seqs{
        4452, 4914, 6410, 7200, 8013};
    for (const runtime::EngineKind kind :
         runtime::allEngineKinds()) {
        ServingConfig exact_config =
            costServing(CostModel::Exact);
        exact_config.engine = kind;
        ServingConfig interp_config = exact_config;
        interp_config.costModel = CostModel::Interp;
        ServingSimulator exact(fastConfig(4), model::opt13b(),
                               exact_config);
        ServingSimulator interp(fastConfig(4), model::opt13b(),
                                interp_config);
        std::uint32_t compared = 0;
        for (const std::uint32_t batch : {1u, 4u}) {
            for (const std::uint64_t seq : seqs) {
                if (!exact.servable(batch, seq) ||
                    exact.saturated())
                    break;
                const double exact_token =
                    exact.tokenSeconds(batch, seq);
                const double exact_prefill =
                    exact.prefillSeconds(batch, seq);
                ASSERT_GT(exact_token, 0.0);
                ASSERT_GT(exact_prefill, 0.0);
                EXPECT_NEAR(interp.tokenSeconds(batch, seq),
                            exact_token, exact_token * 0.02)
                    << runtime::engineKindName(kind)
                    << " token cost at batch " << batch
                    << ", seq " << seq;
                EXPECT_NEAR(interp.prefillSeconds(batch, seq),
                            exact_prefill, exact_prefill * 0.02)
                    << runtime::engineKindName(kind)
                    << " prefill cost at batch " << batch
                    << ", seq " << seq;
                ++compared;
            }
        }
        EXPECT_GT(compared, 0u) << runtime::engineKindName(kind);
    }
}

TEST(CostModel, AnchorBucketsAgreeExactlyWithExact)
{
    // Anchor columns are simulated, never interpolated, so the two
    // surfaces agree bit for bit there.  Columns 0..16 are all
    // anchors; past that the schedule grows by ~1.125x
    // (18, 20, 22, 24, 27, 30, 33, 37, ...).
    const std::uint32_t bucket = 256;
    ServingSimulator exact(fastConfig(4), model::opt13b(),
                           costServing(CostModel::Exact, bucket));
    ServingSimulator interp(fastConfig(4), model::opt13b(),
                            costServing(CostModel::Interp, bucket));
    for (const std::uint64_t column : {0, 2, 4, 8, 12, 18, 27}) {
        const std::uint64_t seq = column * bucket + 7;
        for (const std::uint32_t batch : {1u, 4u}) {
            EXPECT_DOUBLE_EQ(interp.tokenSeconds(batch, seq),
                             exact.tokenSeconds(batch, seq))
                << "column " << column << " batch " << batch;
            EXPECT_DOUBLE_EQ(interp.prefillSeconds(batch, seq),
                             exact.prefillSeconds(batch, seq))
                << "column " << column << " batch " << batch;
        }
    }
}

TEST(CostModel, InterpIsMonotoneInContext)
{
    // Larger contexts never get cheaper: exact anchors are
    // monotone and chords between them preserve that, including
    // across anchor/interpolated cell boundaries.
    ServingSimulator interp(fastConfig(4), model::opt13b(),
                            costServing(CostModel::Interp, 256));
    double last_token = 0.0;
    double last_prefill = 0.0;
    for (std::uint64_t column = 0; column <= 33; ++column) {
        const std::uint64_t seq = column * 256 + 1;
        if (!interp.servable(2, seq) || interp.saturated())
            break;
        const double token = interp.tokenSeconds(2, seq);
        const double prefill = interp.prefillSeconds(2, seq);
        EXPECT_GE(token, last_token) << "column " << column;
        EXPECT_GE(prefill, last_prefill) << "column " << column;
        last_token = token;
        last_prefill = prefill;
    }
    EXPECT_GT(last_token, 0.0);
}

TEST(CostModel, SaturationBoundaryNeverInterpolatedAcross)
{
    // Drive a big model toward its capacity cliff: wherever the
    // exact surface saturates (batch fallback) or goes unservable,
    // the interp surface must report the very same costs — those
    // buckets are computed exactly, never interpolated across.
    const auto llm = model::modelByName("OPT-30B");
    ServingConfig exact_config =
        costServing(CostModel::Exact, 512, 16);
    ServingConfig interp_config = exact_config;
    interp_config.costModel = CostModel::Interp;
    ServingSimulator exact(fastConfig(4), llm, exact_config);
    ServingSimulator interp(fastConfig(4), llm, interp_config);
    bool saw_saturation = false;
    for (std::uint64_t seq = 512; seq <= 512 * 40; seq += 512) {
        const bool exact_servable = exact.servable(16, seq);
        EXPECT_EQ(interp.servable(16, seq), exact_servable)
            << "seq " << seq;
        if (exact.saturated()) {
            saw_saturation = true;
            // Past the cliff the interp path computes exactly.
            if (exact_servable) {
                EXPECT_DOUBLE_EQ(interp.tokenSeconds(16, seq),
                                 exact.tokenSeconds(16, seq))
                    << "seq " << seq;
            }
        }
    }
    // The scenario must actually cross the cliff for this test to
    // mean anything; if the platform grows, raise the pressure.
    EXPECT_TRUE(saw_saturation);
    EXPECT_TRUE(interp.saturated());
}

TEST(CostModel, EnginePoolingCountsOneRunPerColdBucket)
{
    // One engine simulation per cold bucket, zero per hit: the
    // pooled engine is constructed once and reused, and repeated
    // probes never re-simulate.
    ServingSimulator simulator(
        fastConfig(4), model::opt13b(),
        costServing(CostModel::Exact, 256));
    EXPECT_EQ(simulator.calibrationRuns(), 0u);
    simulator.tokenSeconds(1, 100);
    EXPECT_EQ(simulator.calibrationRuns(), 1u);
    EXPECT_GT(simulator.calibrationSeconds(), 0.0);
    // Same bucket (same column, same batch row): pure hit.
    simulator.tokenSeconds(1, 120);
    simulator.prefillSeconds(1, 101);
    EXPECT_EQ(simulator.calibrationRuns(), 1u);
    // New column: one more.
    simulator.tokenSeconds(1, 300);
    EXPECT_EQ(simulator.calibrationRuns(), 2u);
}

TEST(CostModel, SharedCacheOverflowIsOrderIndependent)
{
    // seqBucket 1 pushes columns past the dense cap into the
    // sorted per-row overflow tail.  Two simulators sharing one
    // cache and two independent simulators probing in opposite
    // orders must all agree — sorted insert + lookup, hit after
    // insert, no order sensitivity.
    const ServingConfig config =
        costServing(CostModel::Exact, 1, 2);
    const std::vector<std::uint64_t> seqs{
        6000, 4200, 5000, 4095, 4096, 6000, 4200};
    ServingSimulator forward(fastConfig(2), model::opt13b(),
                             config);
    ServingSimulator backward(fastConfig(2), model::opt13b(),
                              config);
    ServingSimulator sharer(fastConfig(2), model::opt13b(),
                            config);
    sharer.shareCostCacheWith(forward);
    std::vector<double> first;
    for (const std::uint64_t seq : seqs)
        first.push_back(forward.tokenSeconds(1, seq));
    const std::uint64_t cold_runs = forward.calibrationRuns();
    for (std::size_t i = seqs.size(); i-- > 0;) {
        EXPECT_DOUBLE_EQ(backward.tokenSeconds(1, seqs[i]),
                         first[i])
            << "seq " << seqs[i];
        // The sharer hits the cache its sibling filled.
        EXPECT_DOUBLE_EQ(sharer.tokenSeconds(1, seqs[i]),
                         first[i])
            << "seq " << seqs[i];
    }
    // Hits after insert: re-probing filled buckets runs nothing,
    // on either member of the sharing group.
    EXPECT_EQ(forward.calibrationRuns(), cold_runs);
    EXPECT_EQ(sharer.calibrationRuns(), cold_runs);
    // 5 distinct buckets out of 7 probes (two repeats).
    EXPECT_EQ(cold_runs, 5u);
}

TEST(CostModel, WarmCostsIsInvisibleExceptForWallClock)
{
    // Warming fills the same cells lazy misses would, never
    // latches saturation, and leaves every subsequent probe a pure
    // hit — so a warmed simulator and a cold one agree bit for
    // bit, in both cost models and regardless of thread count.
    // Three batch rows over 1-8 threads: a worker may own several
    // rows, and threads beyond the row count stay unused.
    for (const CostModel model :
         {CostModel::Exact, CostModel::Interp}) {
        // Exact mode warms every probed cell, so keep its grid
        // small; interp mode reaches past column 24 where anchor
        // brackets span 3+ columns and warming a trajectory costs
        // fewer simulations (anchors plus one validation midpoint
        // per bracket) than there are cells.
        const std::uint64_t max_column =
            model == CostModel::Exact ? 9 : 40;
        std::vector<CostProbe> probes;
        for (const std::uint32_t batch : {1u, 2u, 4u}) {
            for (std::uint64_t column = 0; column <= max_column;
                 ++column)
                probes.push_back(
                    CostProbe{batch, column * 256});
        }
        ServingSimulator cold(fastConfig(4), model::opt13b(),
                              costServing(model, 256));
        std::vector<double> expected;
        for (const CostProbe &probe : probes) {
            expected.push_back(
                cold.prefillSeconds(probe.batch, probe.seq));
            expected.push_back(
                cold.tokenSeconds(probe.batch, probe.seq));
        }

        std::uint64_t serial_runs = 0;
        for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ServingSimulator warmed(fastConfig(4), model::opt13b(),
                                    costServing(model, 256));
            warmed.warmCosts(probes, threads);
            EXPECT_FALSE(warmed.saturated());
            const std::uint64_t warm_runs = warmed.calibrationRuns();
            if (threads == 1)
                serial_runs = warm_runs;
            EXPECT_EQ(warm_runs, serial_runs);
            for (std::size_t i = 0; i < probes.size(); ++i) {
                const CostProbe &probe = probes[i];
                EXPECT_EQ(
                    warmed.prefillSeconds(probe.batch, probe.seq),
                    expected[2 * i]);
                EXPECT_EQ(warmed.tokenSeconds(probe.batch, probe.seq),
                          expected[2 * i + 1]);
            }
            // Every probe after warming was a pure hit.
            EXPECT_EQ(warmed.calibrationRuns(), warm_runs);
            if (model == CostModel::Interp) {
                // Warming a whole trajectory costs only the
                // anchors, strictly fewer simulations than there
                // are cells.
                EXPECT_LT(warm_runs, probes.size());
            }
        }
    }
}

} // namespace
} // namespace hermes::serving
