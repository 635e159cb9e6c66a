/**
 * @file
 * The benchmark's workloads.
 *
 * Each workload is one process, one client, calls in sequence.  A
 * pass builds its inputs and simulators (setup, timed as set-up time)
 * and then makes its top-level calls (run, the timed section): one
 * engine run() per grid point, or one FleetSimulator::run per fleet
 * workload.  Every pass starts cold — fresh engines, fresh fleets and
 * cost caches — so passes are repeat measurements of the same thing.
 *
 * check() turns the outputs of the last pass into one canonical
 * digest line per operation (the simulated statistics, printed with
 * every digit) and applies the seed-independent invariants; an
 * operation fails when it threw or when one of its checks failed.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "spans.hh"

namespace perfbench {

/** Full is the benchmark; Small is the self-test's quick variant. */
enum class Size
{
    Full,
    Small,
};

struct WorkloadOptions
{
    std::uint64_t seed = 1;
    /** Calibration pool size handed to the fleet. */
    std::uint32_t threads = 1;
    Size size = Size::Full;
};

/** Outcome of one top-level operation of the last pass. */
struct OpOutcome
{
    std::string digest; ///< Canonical simulated outputs.
    bool ok = true;
    std::string problem; ///< Why it failed (empty when ok).
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and simulators for one pass. */
    virtual void setup(Tracer &tracer) = 0;

    /** The timed section: every top-level call, in sequence. */
    virtual void run(Tracer &tracer) = 0;

    /** Digest lines and checks of the last pass, one per operation. */
    virtual std::vector<OpOutcome> check() const = 0;

    /** Kernel statistics of the last pass's fleet runs (may be empty). */
    virtual std::vector<hermes::fleet::KernelStats> kernelStats() const
    {
        return {};
    }

    /** Wall seconds of each last-pass engine run of `kind`. */
    virtual std::vector<double>
    engineSeconds(hermes::runtime::EngineKind kind) const
    {
        (void)kind;
        return {};
    }
};

/** The workload names. */
std::vector<std::string> workloadNames();

/** Build a workload by name; throws std::invalid_argument if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadOptions &options);

/** multiturn-long's replica serving policy and session trace. */
struct ReplicaSetup
{
    hermes::runtime::SystemConfig system;
    hermes::model::LlmConfig llm;
    hermes::serving::ServingConfig serving;
    hermes::serving::SessionTrace sessions;
};
ReplicaSetup multiturnReplica(const WorkloadOptions &options);

/**
 * Fig. 10 fidelity: simulated tokens/s of Accelerate, Hermes-host,
 * Hermes-base and Hermes at batch 1 on LLaMA2-13B, LLaMA2-70B and
 * Falcon-40B against the paper's values (the reference table in
 * bench/bench_fig10_sparsity_ndp_effect.cc).  A gap figure, not an
 * error bound: the model is not validated against held-out data.
 */
struct Fidelity
{
    double meanErrPct = 0.0;         ///< Mean |sim - paper| / paper.
    double hermesLlama70bErrPct = 0.0;
    bool ok = true;                  ///< Every point ran and was supported.
};
Fidelity runFidelityProbe(std::uint64_t seed, Tracer &tracer);

/** Span name of an engine run for `kind` ("engine.hermes_host"). */
std::string engineSpanName(hermes::runtime::EngineKind kind);

/**
 * Check one fleet report against the trace it served: every request
 * ends exactly once, shed requests match assignment -1, completed
 * requests keep arrival <= admitted <= firstToken <= completed and
 * generate exactly their tokens, and replicaSeconds is the sum of
 * replicaActiveSeconds.  Returns the first violation, or "".
 */
std::string
fleetInvariantViolation(const hermes::fleet::FleetReport &report,
                        const std::vector<hermes::serving::ServedRequest>
                            &served);

/** The digest line of a fleet report (the pinned statistics). */
std::string fleetDigest(const hermes::fleet::FleetReport &report);

/** 64-bit FNV-1a of `text`, as 16 hex digits. */
std::string hashHex(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
