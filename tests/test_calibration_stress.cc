/**
 * @file
 * Calibration-pool stress tests, built for ThreadSanitizer.
 *
 * The only real threads in the simulator are the shared cost-cache
 * warming pool (FleetSimulator::warmSessionCosts ->
 * ServingSimulator::warmCosts); router calibration is serial.
 * These tests drive the pool at high thread counts
 * (calibrationThreads = 8 and 16, well past the CI runners' core
 * counts) so TSan sees real contention, and pin that the physics
 * stays byte-identical to the single-threaded run — the
 * determinism contract the pool was designed around.
 *
 * CI runs this binary twice: in the normal suites, and under
 * -fsanitize=thread in the dedicated `tsan` job (HERMES_TSAN=ON).
 */

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet.hh"
#include "core/hermes.hh"
#include "core/workload.hh"

namespace hermes::fleet {
namespace {

serving::ServingConfig
fastServing(std::uint32_t max_batch)
{
    serving::ServingConfig config;
    config.maxBatch = max_batch;
    config.calibrationTokens = 4;
    return config;
}

void
expectIdenticalReports(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.throughputTps, b.throughputTps);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].latency(),
                         b.requests[i].latency())
            << "request " << i;
        EXPECT_DOUBLE_EQ(a.requests[i].ttft(),
                         b.requests[i].ttft())
            << "request " << i;
    }
}

TEST(CalibrationStress, SharedCacheSessionWarmingHighThreads)
{
    // Uniform fleet = one shared cost cache; warmSessionCosts fans
    // the distinct cost-surface cells of a known session trace out
    // over the pool by whole batch-bucket rows, each worker running
    // its row on the cache's pooled row engine (one row per worker
    // at a time), results inserted sequentially afterwards.  Exercised in both cost
    // models: Interp collapses the grid to anchor buckets, Exact
    // warms the cells themselves.
    const auto trace = serving::generateSessionWorkload(
        serving::scenarioByName("multiturn", 8, 1.0, 17));
    for (const serving::CostModel model :
         {serving::CostModel::Exact, serving::CostModel::Interp}) {
        FleetConfig config = uniformFleet(
            4, fastConfig(4), fastServing(2),
            sched::RouterPolicy::JoinShortestQueue, 120.0);
        for (ReplicaConfig &replica : config.replicas)
            replica.serving.costModel = model;
        config.calibrationThreads = 1;
        const auto lazy =
            FleetSimulator(config, model::opt13b()).run(trace);
        for (const std::uint32_t threads : {4u, 8u}) {
            config.calibrationThreads = threads;
            const auto warmed =
                FleetSimulator(config, model::opt13b()).run(trace);
            expectIdenticalReports(lazy, warmed);
        }
        EXPECT_EQ(lazy.completed, trace.requests.size())
            << serving::costModelName(model);
    }
}

TEST(CalibrationStress, ThreadsOversubscribedPastLeaderCount)
{
    // More threads than leaders (and than hardware): the pool must
    // cap at the job count, leave the surplus unspawned, and still
    // reproduce the serial run exactly.
    const auto trace = serving::generateSessionWorkload(
        serving::scenarioByName("multiturn", 4, 2.0, 29));
    FleetConfig config = uniformFleet(
        2, fastConfig(4), fastServing(2),
        sched::RouterPolicy::JoinShortestQueue, 120.0);
    config.calibrationThreads = 1;
    const auto serial =
        FleetSimulator(config, model::opt13b()).run(trace);
    config.calibrationThreads = 16;
    const auto flooded =
        FleetSimulator(config, model::opt13b()).run(trace);
    expectIdenticalReports(serial, flooded);
}

} // namespace
} // namespace hermes::fleet
