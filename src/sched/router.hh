/**
 * @file
 * Fleet request routing: the six built-in routing policies and the
 * calibrated replica model the estimate policies rank by.
 *
 * Policies:
 *  - RoundRobin: static interleave, ignores state;
 *  - JoinShortestQueue: fewest outstanding requests at arrival;
 *  - LeastOutstandingTokens: smallest estimated backlog measured in
 *    tokens, which discriminates between slow and fast replicas in a
 *    heterogeneous fleet;
 *  - SloAware: smallest estimated TTFT, and sheds (rejects at the
 *    door) requests whose best achievable TTFT estimate already
 *    misses the deadline — protecting the latency of admitted work;
 *  - TrueJsq / LeastActualBacklog: the feedback twins of
 *    JoinShortestQueue / LeastOutstandingTokens.  Instead of the
 *    calibrated estimate they rank replicas by *observed* state
 *    (actual occupancy / actual token backlog), read live from the
 *    fleet's FleetView at the arrival instant.
 *
 * Each policy is a ControlPolicy built by `makeRouterPolicy`
 * (sched/control_policy.hh) and installed through
 * `FleetConfig::control`, e.g. with `controlPolicyByName`.  The
 * three estimate policies own a lightweight queueing model of every
 * replica: batch slots with estimated free-times, the last
 * joint-prefill window, and the requests routed there that have not
 * yet estimated-finished.  The policy sees arrivals in time order;
 * each arrival first prunes every replica's drained requests, and
 * each decision commits the request to the chosen replica's model,
 * so later decisions see the backlog earlier ones created — an
 * online router, not an offline partitioner.  Round-robin keeps
 * only its cursor; the feedback policies keep nothing.
 *
 * The model is an estimate: the replica's own ServingSimulator run
 * remains the ground truth for timing.  Estimates only decide *where*
 * a request goes (and, for SloAware, *whether* it is admitted); the
 * feedback policies replace the estimate with ground truth at the
 * decision instant, closing the loop the estimate approximates.
 *
 * The estimates read each replica's ReplicaModel live through
 * FleetView::model.  The fleet calibrates it through
 * ServingSimulator's cost surface, so the router automatically
 * shares whatever cost model the replica is configured with
 * (ServingConfig::costModel): under the interpolated model its
 * estimates are built from the same anchor surface the kernel serves
 * steps from, and the shared per-cache-group cost cache means
 * probing N replicas of one group costs one calibration.
 */

#ifndef HERMES_SCHED_ROUTER_HH
#define HERMES_SCHED_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace hermes::sched {

/** Replica-selection policy of the fleet router. */
enum class RouterPolicy
{
    RoundRobin,
    JoinShortestQueue,
    LeastOutstandingTokens,
    SloAware,
    TrueJsq,
    LeastActualBacklog,
};

/**
 * Display name ("round-robin", "jsq", "least-tokens", "slo-aware",
 * "true-jsq", "least-backlog").
 */
std::string routerPolicyName(RouterPolicy policy);

/** All policies, in the order benches sweep them. */
std::vector<RouterPolicy> allRouterPolicies();

/** Parse a display name back to a policy; throws on unknown names. */
RouterPolicy routerPolicyByName(const std::string &name);

/** The router's calibrated view of one replica. */
struct ReplicaModel
{
    /** Continuous-batching slots (concurrent decodes). */
    std::uint32_t maxBatch = 16;

    /** Calibrated prefill latency for a typical prompt. */
    Seconds prefillSeconds = 0.05;

    /**
     * Calibrated decode throughput of ONE batch slot when the batch
     * is full (aggregate tokens/s divided by maxBatch).
     */
    double slotTokensPerSecond = 10.0;

    /**
     * Calibrated prefill throughput (prompt tokens per second at
     * the full-batch joint prefill): typical prompt length over
     * prefillSeconds.  What converts a KV-resident prefix into the
     * prefill seconds it saves — prefill is typically an order of
     * magnitude cheaper per token than decode, which is exactly why
     * affinity scores must not compare cached tokens against
     * backlog tokens 1:1.
     */
    double prefillTokensPerSecond = 2560.0;
};

} // namespace hermes::sched

#endif // HERMES_SCHED_ROUTER_HH
