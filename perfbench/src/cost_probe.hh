/**
 * @file
 * Cost-surface probe: what the serving layer's step-cost cache costs
 * to fill for multiturn-long's replica configuration.
 *
 * A fresh ServingSimulator answers prefillSeconds and tokenSeconds
 * for every batch bucket up to maxBatch times every context column
 * up to the workload's largest context — the surface a growing
 * conversation climbs.  Two more fresh simulators time warmCosts over
 * the same grid serially and on the workload's calibration pool.
 */
#ifndef PERFBENCH_COST_PROBE_HH
#define PERFBENCH_COST_PROBE_HH

#include <cstdint>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

struct CostProbeResult
{
    std::uint64_t buckets = 0;    ///< (batch, column) cells queried.
    std::uint64_t engineRuns = 0; ///< calibrationRuns() after the queries.
    double seconds = 0.0;         ///< Wall time of the queries.
    double warmSerialSeconds = 0.0;
    double warmPoolSeconds = 0.0;
    /** Every warmed surface answered the queries bit-identically. */
    bool consistent = true;
};

/**
 * Probe the cost surface of the multiturn-long replica at `seed`,
 * up to the largest context of its session trace; the pool warm uses
 * `threads` workers.
 */
CostProbeResult runCostProbe(const WorkloadOptions &options,
                             Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_COST_PROBE_HH
