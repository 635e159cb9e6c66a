/**
 * @file
 * Hermes stage probe: where one Hermes engine run spends host time.
 *
 * The probe replays HermesEngine::run through the public entry point
 * of each stage — the activation trace (sparsity/), the offline ILP
 * partition, the predictor, the neuron mapper and the window
 * rebalancer (sched/), the device cost models (gpu/, ndp/,
 * interconnect/) and the decode pipeline (runtime/) — making the same
 * calls, in the same order and number, as one engine run, and charges
 * each call's wall time to its stage.  The replay must reproduce the
 * engine's simulated result bit for bit; a mismatch means it no
 * longer mirrors the engine and is reported as a failed check.
 *
 * Coverage is the sum of the stage times over the engine's own wall
 * time at the same points.  What it leaves out is the engine's own
 * loops between the calls (frequency tallies, placement counting,
 * prediction metrics, statistics bookkeeping).
 */
#ifndef PERFBENCH_STAGE_PROBE_HH
#define PERFBENCH_STAGE_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

/** Host seconds per stage, summed over the probe points. */
struct StageTimes
{
    double trace = 0.0;     ///< ActivationTrace build + nextToken.
    double ilp = 0.0;       ///< IlpPartitioner::solve.
    double predictor = 0.0; ///< predict / hotScores / update (+ init).
    double mapper = 0.0;    ///< NeuronMapper (+ round-robin placement).
    double window = 0.0;    ///< WindowSet observe / maybeRebalance.
    double device = 0.0;    ///< gpu / ndp / pcie / dimm-link cost calls.
    double pipeline = 0.0;  ///< DecodePipeline.

    double
    sum() const
    {
        return trace + ilp + predictor + mapper + window + device +
               pipeline;
    }
};

struct StageProbeResult
{
    StageTimes stages;
    /** Wall time of the real engine runs at the same points. */
    double engineSeconds = 0.0;
    /** Points whose replay differs from the engine's result. */
    std::vector<std::string> mismatches;

    double
    coverage() const
    {
        return engineSeconds > 0.0 ? stages.sum() / engineSeconds : 0.0;
    }
};

/**
 * Probe OPT-13B and LLaMA2-70B at batch 1 and 16 (Small: OPT-13B
 * batch 1) on the figure benches' platform and request shape.
 */
StageProbeResult runStageProbe(std::uint64_t seed, Size size,
                               Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_STAGE_PROBE_HH
