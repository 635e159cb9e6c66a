#include "cost_probe.hh"

#include <algorithm>
#include <vector>

#include "core/serving.hh"

namespace perfbench {

CostProbeResult
runCostProbe(const WorkloadOptions &options, Tracer &tracer)
{
    using hermes::serving::CostProbe;
    using hermes::serving::ServingSimulator;

    const ReplicaSetup replica = multiturnReplica(options);
    std::uint64_t max_context = 1;
    for (const auto &request : replica.sessions.requests)
        max_context = std::max<std::uint64_t>(
            max_context, static_cast<std::uint64_t>(request.promptTokens) +
                             request.generateTokens);

    // The grid a growing conversation climbs: every batch bucket up
    // to maxBatch times every context column up to max_context.
    const std::uint32_t bucket = replica.serving.seqBucket;
    const std::uint64_t max_column = max_context / bucket;
    std::vector<CostProbe> grid;
    for (std::uint32_t batch = 1;; batch *= 2) {
        const std::uint32_t row = std::min(batch, replica.serving.maxBatch);
        for (std::uint64_t column = 0; column <= max_column; ++column)
            grid.push_back(CostProbe{row, column * bucket});
        if (batch >= replica.serving.maxBatch)
            break;
    }

    const auto fresh = [&] {
        return ServingSimulator(replica.system, replica.llm,
                                replica.serving);
    };
    const auto answers = [&](ServingSimulator &simulator) {
        std::vector<double> values;
        values.reserve(2 * grid.size());
        for (const CostProbe &probe : grid) {
            values.push_back(
                simulator.prefillSeconds(probe.batch, probe.seq));
            values.push_back(simulator.tokenSeconds(probe.batch, probe.seq));
        }
        return values;
    };

    CostProbeResult result;
    result.buckets = grid.size();

    ServingSimulator lazy = fresh();
    std::vector<double> lazy_values;
    {
        ScopedSpan span(tracer, "probe.serving.queries");
        const double start = wallNow();
        lazy_values = answers(lazy);
        result.seconds = wallNow() - start;
    }
    result.engineRuns = lazy.calibrationRuns();

    ServingSimulator serial = fresh();
    {
        ScopedSpan span(tracer, "probe.serving.warm_serial");
        const double start = wallNow();
        serial.warmCosts(grid, 1);
        result.warmSerialSeconds = wallNow() - start;
    }

    ServingSimulator pool = fresh();
    {
        ScopedSpan span(tracer, "probe.serving.warm_pool", options.threads);
        const double start = wallNow();
        pool.warmCosts(grid, options.threads);
        result.warmPoolSeconds = wallNow() - start;
    }
    result.consistent =
        answers(serial) == lazy_values && answers(pool) == lazy_values;
    return result;
}

} // namespace perfbench
