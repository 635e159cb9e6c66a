#include "sched/control_policy.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hermes::sched {

std::string
replicaLifecycleName(ReplicaLifecycle lifecycle)
{
    switch (lifecycle) {
    case ReplicaLifecycle::Provisioning:
        return "provisioning";
    case ReplicaLifecycle::Warming:
        return "warming";
    case ReplicaLifecycle::Active:
        return "active";
    case ReplicaLifecycle::Draining:
        return "draining";
    case ReplicaLifecycle::Retired:
        return "retired";
    }
    return "?";
}

namespace {

/**
 * The legacy stealing hook, verbatim: deepest queue among stuck
 * (mid-step with a queue, or dead) victims, ceil(half), capped at
 * the thief's batch.
 */
class GreedyStealPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "greedy-steal"; }

    std::uint32_t wants() const override { return kIdle; }

    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        (void)now;
        // Only a replica proven able to serve may steal; a dead (or
        // never-probed, or draining) replica would strand the work.
        if (!view.knownServable(replica) ||
            drainRequested(view.lifecycle(replica)))
            return;
        const std::uint32_t n = view.replicaCount();
        std::uint32_t victim = n;
        std::uint32_t deepest = 0;
        for (std::uint32_t v = 0; v < n; ++v) {
            if (v == replica)
                continue;
            // A victim must be genuinely stuck: mid-step with a
            // queue behind it, or known dead.  An idle replica with
            // fresh deliveries has a same-instant Wake coming and
            // will serve them itself.
            if (!view.busy(v) && !view.knownDead(v))
                continue;
            const std::uint32_t queued = view.queuedCount(v);
            if (queued > deepest) {
                deepest = queued;
                victim = v;
            }
        }
        if (victim == n || deepest == 0)
            return;
        const std::uint32_t cap =
            std::max<std::uint32_t>(view.model(replica).maxBatch, 1);
        actions.steal(replica, victim,
                      std::min((deepest + 1) / 2, cap));
    }
};

/**
 * SLO-aware stealing: steal only when the thief's estimated TTFT
 * for the stolen request beats the victim's (see the factory doc in
 * control_policy.hh).
 */
class SloStealPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "slo-steal"; }

    std::uint32_t wants() const override { return kIdle; }

    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        (void)now;
        if (!view.knownServable(replica) ||
            drainRequested(view.lifecycle(replica)))
            return;
        const std::uint32_t n = view.replicaCount();
        std::uint32_t victim = n;
        std::uint32_t victim_queued = 0;
        Seconds worst_wait = 0.0;
        for (std::uint32_t v = 0; v < n; ++v) {
            if (v == replica)
                continue;
            // Same stuck-victim eligibility as greedy-steal; the
            // ranking differs: worst estimated wait, not deepest
            // queue.
            if (!view.busy(v) && !view.knownDead(v))
                continue;
            const std::uint32_t queued = view.queuedCount(v);
            if (queued == 0)
                continue;
            const Seconds wait = estimatedWait(v, view);
            if (victim == n || wait > worst_wait) {
                worst_wait = wait;
                victim = v;
                victim_queued = queued;
            }
        }
        if (victim == n)
            return;
        // The thief is idle: its estimated TTFT for stolen work is
        // just its calibrated group prefill.  Steal only when that
        // strictly beats the victim's estimated wait — a slow thief
        // declines steals that would trade one queue's depth for a
        // worse tail.
        const Seconds thief_ttft = view.model(replica).prefillSeconds;
        if (thief_ttft >= worst_wait)
            return;
        const std::uint32_t cap =
            std::max<std::uint32_t>(view.model(replica).maxBatch, 1);
        actions.steal(replica, victim,
                      std::min((victim_queued + 1) / 2, cap));
    }

  private:
    /**
     * Estimated TTFT a queued request faces on `replica`: observed
     * token backlog over the calibrated full-batch drain rate, plus
     * one prefill; infinite for a dead replica (its queue never
     * drains).
     */
    Seconds
    estimatedWait(std::uint32_t replica,
                  const FleetView &view) const
    {
        if (view.knownDead(replica))
            return std::numeric_limits<double>::infinity();
        const ReplicaModel &model = view.model(replica);
        const double drain_rate =
            std::max(model.slotTokensPerSecond, 1.0e-9) *
            static_cast<double>(
                std::max<std::uint32_t>(model.maxBatch, 1));
        return view.observedBacklogTokens(replica) / drain_rate +
               model.prefillSeconds;
    }
};

/**
 * Priority preemption (see the factory doc in control_policy.hh):
 * at each replica boundary, evict the lowest-priority running
 * request when a strictly-higher-priority queued request would miss
 * its TTFT deadline waiting for a slot to free naturally and
 * admitting it now would still meet (or at least approach) it.
 */
class PriorityPreemptPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "priority-preempt"; }

    std::uint32_t wants() const override
    {
        return kReplicaEvents | kPreempt;
    }

    void onPrefillComplete(std::uint32_t replica, Seconds now,
                           const FleetView &view,
                           FleetActions &actions) override
    {
        maybePreempt(replica, now, view, actions);
    }

    void onStepComplete(std::uint32_t replica, Seconds now,
                        const FleetView &view,
                        FleetActions &actions) override
    {
        maybePreempt(replica, now, view, actions);
    }

  private:
    void
    maybePreempt(std::uint32_t replica, Seconds now,
                 const FleetView &view, FleetActions &actions)
    {
        if (view.busy(replica) || !view.knownServable(replica))
            return;
        const std::vector<serving::RequestInfo> running =
            view.runningRequests(replica);
        // A free slot means the queue head is admitted at this very
        // boundary anyway — nothing to evict for.
        if (running.empty() ||
            running.size() < view.model(replica).maxBatch)
            return;
        const std::vector<serving::RequestInfo> queued =
            view.queuedRequests(replica);
        if (queued.empty())
            return;

        // The endangered request: highest priority queued, oldest
        // among equals (matches what admission would pick).
        const serving::RequestInfo *protect = &queued.front();
        for (const serving::RequestInfo &info : queued) {
            if (info.priority > protect->priority)
                protect = &info;
        }

        // The victim: lowest priority strictly below the protected
        // request's, most remaining work among equals (frees the
        // slot for the longest), then highest id for determinism.
        const serving::RequestInfo *victim = nullptr;
        for (const serving::RequestInfo &info : running) {
            if (info.priority >= protect->priority)
                continue;
            if (victim == nullptr ||
                info.priority < victim->priority ||
                (info.priority == victim->priority &&
                 (info.remainingTokens > victim->remainingTokens ||
                  (info.remainingTokens ==
                       victim->remainingTokens &&
                   info.id > victim->id))))
                victim = &info;
        }
        if (victim == nullptr)
            return;

        // Would the protected request miss its deadline waiting
        // for a slot to free naturally?  The soonest natural slot
        // is the least-remaining running request finishing at the
        // calibrated full-batch step rate; after that the request
        // still pays its admission prefill.
        const ReplicaModel &model = view.model(replica);
        const Seconds deadline = view.ttftDeadline();
        const Seconds step =
            model.slotTokensPerSecond > 0.0
                ? 1.0 / model.slotTokensPerSecond
                : deadline;
        std::uint32_t soonest = running.front().remainingTokens;
        for (const serving::RequestInfo &info : running)
            soonest = std::min(soonest, info.remainingTokens);
        const Seconds age = now - protect->arrival;
        const Seconds natural =
            age + static_cast<double>(soonest) * step +
            model.prefillSeconds;
        if (natural <= deadline)
            return;
        actions.preempt(replica, victim->id);
    }
};

/**
 * Drain/dead-replica migration (see the factory doc in
 * control_policy.hh): evacuate queued work from dead and draining
 * replicas, and running work from draining replicas at their decode
 * boundaries, onto the least-loaded healthy replica.
 */
class DrainMigratePolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "drain-migrate"; }

    std::uint32_t wants() const override
    {
        return kReplicaEvents | kIdle | kDead | kMigrate;
    }

    void onReplicaDead(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        (void)now;
        evacuateQueued(replica, view, actions);
    }

    void onReplicaIdle(std::uint32_t replica, Seconds now,
                       const FleetView &view,
                       FleetActions &actions) override
    {
        // A dead replica takes an idle boundary whenever fresh
        // deliveries reach it (it never starts work), so routing
        // policies that keep feeding it are drained continually.
        (void)now;
        if (view.knownDead(replica) || drainRequested(view.lifecycle(replica)))
            evacuateQueued(replica, view, actions);
    }

    void onPrefillComplete(std::uint32_t replica, Seconds now,
                           const FleetView &view,
                           FleetActions &actions) override
    {
        onStepComplete(replica, now, view, actions);
    }

    void onStepComplete(std::uint32_t replica, Seconds now,
                        const FleetView &view,
                        FleetActions &actions) override
    {
        (void)now;
        if (!drainRequested(view.lifecycle(replica)) || view.busy(replica))
            return;
        // The draining replica is at a decode boundary: hand its
        // running requests (KV included) to healthy replicas, then
        // whatever is still queued behind them.
        for (const serving::RequestInfo &info :
             view.runningRequests(replica)) {
            const std::uint32_t to = destination(replica, view);
            if (to >= view.replicaCount())
                return;
            actions.migrate(info.id, to);
        }
        evacuateQueued(replica, view, actions);
    }

  private:
    /** Least-loaded healthy replica, or replicaCount() when none. */
    std::uint32_t
    destination(std::uint32_t from, const FleetView &view) const
    {
        const std::uint32_t n = view.replicaCount();
        std::uint32_t best = n;
        for (std::uint32_t r = 0; r < n; ++r) {
            // Only Active replicas may receive migrations: a
            // provisioning or warming spawn is not routable yet, a
            // draining or retired one is on its way out.
            if (r == from || view.knownDead(r) ||
                view.lifecycle(r) != ReplicaLifecycle::Active)
                continue;
            if (best == n || view.observedOutstanding(r) <
                                 view.observedOutstanding(best))
                best = r;
        }
        return best;
    }

    void
    evacuateQueued(std::uint32_t replica, const FleetView &view,
                   FleetActions &actions)
    {
        for (const serving::RequestInfo &info :
             view.queuedRequests(replica)) {
            const std::uint32_t to = destination(replica, view);
            if (to >= view.replicaCount())
                return;
            actions.migrate(info.id, to);
        }
    }
};

/**
 * KV-affinity session routing (see the factory doc in
 * control_policy.hh): sticky-route follow-up turns to the replica
 * holding their conversation's KV, unless the load gap outweighs
 * the resident prefix; everything else joins the shortest queue.
 */
class AffinityPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "affinity"; }

    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override
    {
        const std::uint32_t n = view.replicaCount();
        // Ground-truth JSQ over the routable replicas (first
        // minimum wins, matching true-jsq's determinism).  Only
        // Active replicas are routable — spawned replicas still
        // provisioning or warming, and draining or retired ones,
        // are skipped exactly like the kernel's routeTo would
        // reject them.
        std::uint32_t least = n;
        std::uint32_t least_outstanding = 0;
        for (std::uint32_t r = 0; r < n; ++r) {
            if (view.knownDead(r) ||
                view.lifecycle(r) != ReplicaLifecycle::Active)
                continue;
            const std::uint32_t outstanding =
                view.observedOutstanding(r);
            if (least == n || outstanding < least_outstanding) {
                least = r;
                least_outstanding = outstanding;
            }
        }
        if (least == n) {
            // Every replica is draining or dead; routing anywhere
            // would throw.
            actions.shed();
            return;
        }
        if (context.sessionId == 0) {
            actions.routeTo(least);
            return;
        }
        // Sticky candidate: the replica holding the session's KV.
        // At most one holds it (residency moves with the serving
        // replica and is consumed on re-admission).
        std::uint32_t holder = n;
        std::uint64_t cached = 0;
        for (std::uint32_t r = 0; r < n; ++r) {
            cached = view.cachedSessionTokens(r, context.sessionId);
            if (cached > 0) {
                holder = r;
                break;
            }
        }
        if (holder == n || view.knownDead(holder) ||
            view.lifecycle(holder) != ReplicaLifecycle::Active) {
            // First turn, KV evicted, or the sticky replica cannot
            // take new work: plain JSQ.
            actions.routeTo(least);
            return;
        }
        // Stick when the prefill seconds the resident prefix saves
        // at least cover the extra queueing seconds the sticky
        // replica's deeper backlog costs.  The two token counts are
        // not comparable 1:1: a cached token saves prefill work
        // while a backlog token costs decode work, and calibrated
        // prefill is typically an order of magnitude cheaper per
        // token than decode — so both sides convert to seconds
        // through the holder's calibrated model
        // (prefillTokensPerSecond vs the full-batch drain rate).
        // Under load this sticks less eagerly than a raw token
        // comparison would: a modest resident prefix no longer
        // outweighs a deep backlog.
        const ReplicaModel &holder_model = view.model(holder);
        const double saved_seconds =
            static_cast<double>(cached) /
            std::max(holder_model.prefillTokensPerSecond, 1.0e-9);
        const double gap = view.observedBacklogTokens(holder) -
                           view.observedBacklogTokens(least);
        const double drain_rate =
            std::max(holder_model.slotTokensPerSecond, 1.0e-9) *
            static_cast<double>(std::max<std::uint32_t>(
                holder_model.maxBatch, 1));
        actions.routeTo(saved_seconds >= gap / drain_rate
                            ? holder
                            : least);
    }
};

/**
 * Target-backlog autoscaler (see the factory doc in
 * control_policy.hh): every tick, scale the provisioned replica
 * count toward what the observed fleet-wide token backlog needs to
 * drain within one TTFT deadline, damped by hysteresis and a
 * post-action cooldown.
 */
class TargetBacklogScalerPolicy final : public ControlPolicy
{
  public:
    std::string name() const override { return "target-backlog"; }

    std::uint32_t wants() const override { return kTick | kSpawn; }

    Seconds tickPeriod() const override { return 1.0; }

    void begin(const ControlContext &context) override
    {
        deadline_ = context.ttftDeadline > 0.0
                        ? context.ttftDeadline
                        : 2.0;
        upTicks_ = 0;
        downTicks_ = 0;
        cooldownUntil_ = 0.0;
    }

    void onTick(Seconds now, const FleetView &view,
                FleetActions &actions) override
    {
        const std::uint32_t n = view.replicaCount();
        // Provisioned capacity counts Provisioning + Warming +
        // Active: warming capacity is already bought, and spawning
        // again for the same backlog spike would oscillate.
        // Draining replicas contribute their remaining backlog
        // (someone still has to serve it) but no capacity.
        std::uint32_t provisioned = 0;
        std::uint32_t active = 0;
        std::uint32_t reference = n;
        double backlog = 0.0;
        for (std::uint32_t r = 0; r < n; ++r) {
            if (view.knownDead(r))
                continue;
            const ReplicaLifecycle lc = view.lifecycle(r);
            if (lc == ReplicaLifecycle::Retired)
                continue;
            backlog += view.observedBacklogTokens(r);
            if (lc == ReplicaLifecycle::Draining)
                continue;
            ++provisioned;
            if (lc == ReplicaLifecycle::Active) {
                ++active;
                if (reference == n)
                    reference = r;
            }
        }
        // No Active replica to measure by or clone: a freshly
        // spawned fleet is still warming — wait.
        if (reference == n)
            return;
        const ReplicaModel &model = view.model(reference);
        const double slot =
            std::max(model.slotTokensPerSecond, 1.0e-9);
        const double batch = static_cast<double>(
            std::max<std::uint32_t>(model.maxBatch, 1));
        // Sustained drain rate of one replica, in backlog (decode)
        // tokens per second.  Each admission group of maxBatch
        // requests pays one joint prefill before its G decode
        // steps, so the sustained rate is mb*G/(prefill + G*step),
        // several times below the raw full-batch step rate slot*mb
        // on prefill-heavy workloads.  G is one token, not the
        // workload's median generate length: the scaler is tuned to
        // it and stops spawning on its pinned diurnal frontier with
        // the median (see ROADMAP item 3).
        const double rate =
            batch / (std::max(model.prefillSeconds, 0.0) + 1.0 / slot);
        // Replicas needed to drain the backlog within one deadline
        // window at the reference replica's sustained rate, clamped
        // before the integer conversion: a dead-calibrated model's
        // near-zero rate puts the quotient far past 2^32.
        const auto desired = static_cast<std::uint32_t>(std::clamp(
            std::ceil(backlog / (rate * deadline_)),
            static_cast<double>(kMinReplicas),
            static_cast<double>(kMaxReplicas)));

        if (desired > provisioned) {
            downTicks_ = 0;
            ++upTicks_;
            if (upTicks_ < kHysteresisTicks ||
                now < cooldownUntil_)
                return;
            actions.spawnReplica(view.replicaSpec(reference));
            upTicks_ = 0;
            cooldownUntil_ = now + kCooldownSeconds;
        } else if (desired < provisioned) {
            upTicks_ = 0;
            ++downTicks_;
            if (downTicks_ < kHysteresisTicks ||
                now < cooldownUntil_)
                return;
            // Never drain the last routable replica: replicas still
            // warming are counted as provisioned but cannot take
            // traffic yet, and an all-masked fleet sheds arrivals.
            if (active <= 1)
                return;
            // Drain the least-loaded Active replica; ties break to
            // the highest index so spawned replicas retire before
            // the seed fleet.
            std::uint32_t victim = n;
            for (std::uint32_t r = 0; r < n; ++r) {
                if (view.knownDead(r) ||
                    view.lifecycle(r) != ReplicaLifecycle::Active)
                    continue;
                if (victim == n ||
                    view.observedOutstanding(r) <=
                        view.observedOutstanding(victim))
                    victim = r;
            }
            if (victim == n)
                return;
            actions.requestDrain(victim);
            downTicks_ = 0;
            cooldownUntil_ = now + kCooldownSeconds;
        } else {
            upTicks_ = 0;
            downTicks_ = 0;
        }
    }

  private:
    /** Fleet bounds: never below the seed's floor, capped growth. */
    static constexpr std::uint32_t kMinReplicas = 1;
    static constexpr std::uint32_t kMaxReplicas = 16;

    /** Consecutive agreeing ticks required before acting. */
    static constexpr std::uint32_t kHysteresisTicks = 2;

    /** Quiet period after any scale action. */
    static constexpr Seconds kCooldownSeconds = 5.0;

    Seconds deadline_ = 2.0;
    std::uint32_t upTicks_ = 0;
    std::uint32_t downTicks_ = 0;
    Seconds cooldownUntil_ = 0.0;
};

} // namespace

CompositeControlPolicy::CompositeControlPolicy(
    std::vector<std::shared_ptr<ControlPolicy>> children)
    : children_(std::move(children))
{
    if (children_.empty())
        throw std::invalid_argument(
            "CompositeControlPolicy: no children");
    for (const auto &child : children_) {
        if (!child)
            throw std::invalid_argument(
                "CompositeControlPolicy: null child");
    }
}

std::string
CompositeControlPolicy::name() const
{
    std::string joined;
    for (const auto &child : children_) {
        if (!joined.empty())
            joined += '+';
        joined += child->name();
    }
    return joined;
}

std::uint32_t
CompositeControlPolicy::wants() const
{
    std::uint32_t bits = kNone;
    for (const auto &child : children_)
        bits |= child->wants();
    return bits;
}

Seconds
CompositeControlPolicy::tickPeriod() const
{
    // The composite heartbeat is the fastest child's.
    Seconds period = 0.0;
    for (const auto &child : children_) {
        const Seconds p = child->tickPeriod();
        if (p > 0.0 && (period <= 0.0 || p < period))
            period = p;
    }
    return period;
}

void
CompositeControlPolicy::begin(const ControlContext &context)
{
    for (const auto &child : children_)
        child->begin(context);
}

void
CompositeControlPolicy::onArrival(const ArrivalContext &context,
                                  const FleetView &view,
                                  FleetActions &actions)
{
    for (const auto &child : children_)
        child->onArrival(context, view, actions);
}

void
CompositeControlPolicy::onPrefillComplete(std::uint32_t replica,
                                          Seconds now,
                                          const FleetView &view,
                                          FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kReplicaEvents)
            child->onPrefillComplete(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onStepComplete(std::uint32_t replica,
                                       Seconds now,
                                       const FleetView &view,
                                       FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kReplicaEvents)
            child->onStepComplete(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onReplicaIdle(std::uint32_t replica,
                                      Seconds now,
                                      const FleetView &view,
                                      FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kIdle)
            child->onReplicaIdle(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onReplicaDead(std::uint32_t replica,
                                      Seconds now,
                                      const FleetView &view,
                                      FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kDead)
            child->onReplicaDead(replica, now, view, actions);
    }
}

void
CompositeControlPolicy::onTick(Seconds now, const FleetView &view,
                               FleetActions &actions)
{
    for (const auto &child : children_) {
        if (child->wants() & kTick)
            child->onTick(now, view, actions);
    }
}

std::shared_ptr<ControlPolicy>
makeGreedyStealPolicy()
{
    return std::make_shared<GreedyStealPolicy>();
}

std::shared_ptr<ControlPolicy>
makeSloStealPolicy()
{
    return std::make_shared<SloStealPolicy>();
}

std::shared_ptr<ControlPolicy>
makePriorityPreemptPolicy()
{
    return std::make_shared<PriorityPreemptPolicy>();
}

std::shared_ptr<ControlPolicy>
makeDrainMigratePolicy()
{
    return std::make_shared<DrainMigratePolicy>();
}

std::shared_ptr<ControlPolicy>
makeAffinityPolicy()
{
    return std::make_shared<AffinityPolicy>();
}

std::shared_ptr<ControlPolicy>
makeTargetBacklogPolicy()
{
    return std::make_shared<TargetBacklogScalerPolicy>();
}

std::shared_ptr<ControlPolicy>
composeControlPolicies(
    std::vector<std::shared_ptr<ControlPolicy>> children)
{
    if (children.size() == 1)
        return children.front();
    return std::make_shared<CompositeControlPolicy>(
        std::move(children));
}

std::vector<std::string>
controlPolicyNames()
{
    std::vector<std::string> names;
    for (const RouterPolicy policy : allRouterPolicies())
        names.push_back(routerPolicyName(policy));
    names.push_back("greedy-steal");
    names.push_back("slo-steal");
    names.push_back("priority-preempt");
    names.push_back("drain-migrate");
    names.push_back("affinity");
    names.push_back("target-backlog");
    return names;
}

namespace {

std::shared_ptr<ControlPolicy>
atomByName(const std::string &name)
{
    for (const RouterPolicy policy : allRouterPolicies()) {
        if (routerPolicyName(policy) == name)
            return makeRouterPolicy(policy);
    }
    if (name == "greedy-steal")
        return makeGreedyStealPolicy();
    if (name == "slo-steal")
        return makeSloStealPolicy();
    if (name == "priority-preempt")
        return makePriorityPreemptPolicy();
    if (name == "drain-migrate")
        return makeDrainMigratePolicy();
    if (name == "affinity")
        return makeAffinityPolicy();
    if (name == "target-backlog")
        return makeTargetBacklogPolicy();
    throw std::invalid_argument(
        "controlPolicyByName: unknown policy '" + name + "'");
}

} // namespace

std::shared_ptr<ControlPolicy>
controlPolicyByName(const std::string &name)
{
    std::vector<std::shared_ptr<ControlPolicy>> children;
    std::size_t start = 0;
    while (start <= name.size()) {
        const std::size_t plus = name.find('+', start);
        const std::string atom =
            name.substr(start, plus == std::string::npos
                                   ? std::string::npos
                                   : plus - start);
        if (atom.empty())
            throw std::invalid_argument(
                "controlPolicyByName: empty atom in '" + name +
                "'");
        children.push_back(atomByName(atom));
        if (plus == std::string::npos)
            break;
        start = plus + 1;
    }
    // An empty name (or empty atom) already threw inside the loop,
    // so children is never empty here.
    return composeControlPolicies(std::move(children));
}

} // namespace hermes::sched
