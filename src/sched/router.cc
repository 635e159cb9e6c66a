#include "sched/router.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/control_policy.hh"

namespace hermes::sched {

std::string
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin:
        return "round-robin";
    case RouterPolicy::JoinShortestQueue:
        return "jsq";
    case RouterPolicy::LeastOutstandingTokens:
        return "least-tokens";
    case RouterPolicy::SloAware:
        return "slo-aware";
    case RouterPolicy::TrueJsq:
        return "true-jsq";
    case RouterPolicy::LeastActualBacklog:
        return "least-backlog";
    }
    return "?";
}

std::vector<RouterPolicy>
allRouterPolicies()
{
    return {RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastOutstandingTokens,
            RouterPolicy::SloAware,
            RouterPolicy::TrueJsq,
            RouterPolicy::LeastActualBacklog};
}

RouterPolicy
routerPolicyByName(const std::string &name)
{
    for (const RouterPolicy policy : allRouterPolicies()) {
        if (routerPolicyName(policy) == name)
            return policy;
    }
    throw std::invalid_argument(
        "routerPolicyByName: unknown policy '" + name + "'");
}

namespace {

/**
 * The six routing behaviors as one ControlPolicy (see router.hh).
 * Only the estimate policies (jsq, least-tokens, slo-aware) keep a
 * backlog model per replica; round-robin keeps its cursor and the
 * feedback policies keep nothing.
 */
class RouterControlPolicy final : public ControlPolicy
{
  public:
    explicit RouterControlPolicy(RouterPolicy policy)
        : policy_(policy)
    {
    }

    std::string name() const override
    {
        return routerPolicyName(policy_);
    }

    void begin(const ControlContext &context) override
    {
        deadline_ = context.ttftDeadline;
        backlogs_.clear();
        routed_ = 0;
    }

    void onArrival(const ArrivalContext &context,
                   const FleetView &view,
                   FleetActions &actions) override
    {
        const Seconds arrival = context.arrival;
        if (estimates())
            prune(arrival, view);
        const std::uint32_t chosen = choose(arrival, view);
        ++routed_;
        if (chosen == view.replicaCount()) {
            actions.shed();
            return;
        }
        if (estimates())
            commit(chosen, arrival, context.generateTokens,
                   view.model(chosen));
        actions.routeTo(chosen);
    }

  private:
    struct Commitment
    {
        Seconds decodeStart = 0.0; ///< Prefill done, tokens flowing.
        Seconds finish = 0.0;
        double tokens = 0.0;
    };

    /** The estimate policies' queueing model of one replica. */
    struct Backlog
    {
        /** Per batch slot: estimated instant the slot frees. */
        std::vector<Seconds> freeAt;

        /**
         * Routed requests not yet estimated-finished, in routing
         * order (prune() keeps that order, so every token sum adds
         * the same terms in the same order).
         */
        std::vector<Commitment> commitments;

        /** Start of the last joint-prefill window charged. */
        Seconds lastPrefillStart = -1.0;

        /** Requests sharing that window. */
        std::uint32_t groupSize = 0;

        /**
         * Slots that were free when the window formed: the serving
         * simulator admits a group only into free batch slots, so a
         * cold replica groups up to maxBatch while a backlogged one
         * (slots freeing one by one) prefills almost per-request.
         */
        std::uint32_t groupCapacity = 0;

        /** Whether a request arriving now would share the window. */
        bool joinsGroup(Seconds arrival) const
        {
            return arrival <= lastPrefillStart &&
                   groupSize < groupCapacity;
        }
    };

    bool estimates() const
    {
        return policy_ == RouterPolicy::JoinShortestQueue ||
               policy_ == RouterPolicy::LeastOutstandingTokens ||
               policy_ == RouterPolicy::SloAware;
    }

    /**
     * The explicit prune step, first on every estimate-policy
     * arrival: drop each replica's commitments that finish by
     * `now` (no arrival moves time backwards, so they can never
     * matter again), and give every replica seen for the first
     * time — an autoscaler may have spawned it mid-run — an empty
     * model.  Hand-built models may carry maxBatch 0; such a
     * replica still gets one slot.
     */
    void prune(Seconds now, const FleetView &view)
    {
        for (Backlog &backlog : backlogs_)
            std::erase_if(backlog.commitments,
                          [now](const Commitment &c) {
                              return c.finish <= now;
                          });
        const std::uint32_t n = view.replicaCount();
        while (backlogs_.size() < n) {
            const ReplicaModel &model = view.model(
                static_cast<std::uint32_t>(backlogs_.size()));
            backlogs_.emplace_back();
            backlogs_.back().freeAt.assign(
                std::max<std::uint32_t>(model.maxBatch, 1), 0.0);
        }
    }

    /**
     * Estimated backlog of a replica in tokens at `now`: committed
     * generate-tokens not yet produced, draining linearly over each
     * request's estimated decode interval.  Deliberately NOT
     * speed-normalized — least-outstanding-tokens measures work
     * queued, and slower replicas shed load by draining it slower.
     */
    double outstandingTokens(std::uint32_t replica, Seconds now) const
    {
        double tokens = 0.0;
        for (const Commitment &c : backlogs_[replica].commitments) {
            if (now <= c.decodeStart || c.finish <= c.decodeStart) {
                tokens += c.tokens;
            } else {
                tokens += c.tokens * (c.finish - now) /
                          (c.finish - c.decodeStart);
            }
        }
        return tokens;
    }

    /** Estimated TTFT if `arrival` were routed to `replica` now. */
    Seconds estimateTtft(std::uint32_t replica, Seconds arrival,
                         const FleetView &view) const
    {
        const Backlog &backlog = backlogs_[replica];
        const Seconds earliest = *std::min_element(
            backlog.freeAt.begin(), backlog.freeAt.end());
        const Seconds prefill =
            std::max(view.model(replica).prefillSeconds, 0.0);
        if (backlog.joinsGroup(arrival)) {
            // Joins the admission group whose joint prefill starts
            // at lastPrefillStart: slots stalled by that broadcast
            // already free no earlier than its end, so the wait IS
            // the TTFT.
            return std::max(earliest,
                            backlog.lastPrefillStart + prefill) -
                   arrival;
        }
        const Seconds start = std::max(arrival, earliest);
        return start - arrival + prefill;
    }

    /** Commit a request to a replica's backlog model. */
    void commit(std::uint32_t replica, Seconds arrival,
                std::uint32_t generate_tokens,
                const ReplicaModel &model)
    {
        Backlog &backlog = backlogs_[replica];
        auto slot = std::min_element(backlog.freeAt.begin(),
                                     backlog.freeAt.end());
        const Seconds prefill = std::max(model.prefillSeconds, 0.0);
        const double decode_seconds =
            static_cast<double>(generate_tokens) /
            std::max(model.slotTokensPerSecond, 1.0e-9);

        // The serving simulator serializes an admitted group's
        // prefill with the whole batch: while a group prefills,
        // every slot of the replica stalls.  Model that, or
        // estimates stay wildly optimistic under churn and SLO-aware
        // shedding never triggers.  Requests routed at the same
        // admission instant share ONE joint prefill (the simulator
        // prefills the group together), so only the group's first
        // commit broadcasts the stall.
        Seconds decode_start;
        if (backlog.joinsGroup(arrival)) {
            decode_start = std::max(
                *slot, backlog.lastPrefillStart + prefill);
            ++backlog.groupSize;
        } else {
            const Seconds start = std::max(arrival, *slot);
            std::uint32_t capacity = 0;
            for (const Seconds free_at : backlog.freeAt)
                capacity += free_at <= start ? 1 : 0;
            for (Seconds &free_at : backlog.freeAt)
                free_at = std::max(free_at, start) + prefill;
            backlog.lastPrefillStart = start;
            backlog.groupSize = 1;
            backlog.groupCapacity = std::max(capacity, 1u);
            decode_start = start + prefill;
        }
        *slot = decode_start + decode_seconds;
        backlog.commitments.push_back(
            Commitment{decode_start, *slot,
                       static_cast<double>(generate_tokens)});
    }

    /**
     * The Active replica with the strictly smallest score (first
     * wins ties), or view.replicaCount() when none is Active.
     */
    template <typename Score>
    static std::uint32_t leastBy(const FleetView &view, Score score)
    {
        using Value = decltype(score(0u));
        const std::uint32_t n = view.replicaCount();
        std::uint32_t chosen = n;
        Value best = std::numeric_limits<Value>::has_infinity
                         ? std::numeric_limits<Value>::infinity()
                         : std::numeric_limits<Value>::max();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (view.lifecycle(i) != ReplicaLifecycle::Active)
                continue;
            const Value value = score(i);
            if (value < best) {
                best = value;
                chosen = i;
            }
        }
        return chosen;
    }

    /**
     * The replica the policy picks for `arrival`, or
     * view.replicaCount() to shed it.  Only Active replicas are
     * ranked — how the control plane masks replicas that exist but
     * are not routable (provisioning, warming, draining, retired).
     * Dead replicas stay eligible on purpose: the estimate policies
     * have always kept routing to them (only the feedback policies
     * starve them), and that contract is pinned.
     */
    std::uint32_t choose(Seconds arrival, const FleetView &view) const
    {
        const std::uint32_t n = view.replicaCount();
        switch (policy_) {
        case RouterPolicy::RoundRobin: {
            // The cursor position may be masked: take the next
            // eligible replica at or after it, preserving the
            // interleave over the eligible set.
            const auto cursor = static_cast<std::uint32_t>(routed_ % n);
            for (std::uint32_t k = 0; k < n; ++k) {
                const std::uint32_t i = (cursor + k) % n;
                if (view.lifecycle(i) == ReplicaLifecycle::Active)
                    return i;
            }
            return n;
        }
        case RouterPolicy::TrueJsq:
            return leastBy(view, [&view](std::uint32_t i) {
                return view.observedOutstanding(i);
            });
        case RouterPolicy::LeastActualBacklog:
            return leastBy(view, [&view](std::uint32_t i) {
                return view.observedBacklogTokens(i);
            });
        case RouterPolicy::JoinShortestQueue:
            // Queue depth = routed requests not yet estimated-
            // finished (NOT busy batch slots: prefill stalls
            // saturate every slot at once, which would collapse all
            // queue depths to maxBatch and reduce JSQ to
            // always-pick-the-first-tie).  prune() left exactly
            // those.
            return leastBy(view, [this](std::uint32_t i) {
                return static_cast<std::uint32_t>(
                    backlogs_[i].commitments.size());
            });
        case RouterPolicy::LeastOutstandingTokens:
            return leastBy(view, [this, arrival](std::uint32_t i) {
                return outstandingTokens(i, arrival);
            });
        case RouterPolicy::SloAware:
            return leastTtft(arrival, view);
        }
        return n;
    }

    /**
     * SloAware: min estimated TTFT, tie-broken by least outstanding
     * tokens: under light load every replica estimates "prefill
     * only", and without the tie-break the policy degenerates into
     * packing replica 0.
     */
    std::uint32_t leastTtft(Seconds arrival, const FleetView &view) const
    {
        const std::uint32_t n = view.replicaCount();
        std::uint32_t chosen = n;
        Seconds best = std::numeric_limits<double>::infinity();
        double best_backlog = std::numeric_limits<double>::infinity();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (view.lifecycle(i) != ReplicaLifecycle::Active)
                continue;
            const Seconds ttft = estimateTtft(i, arrival, view);
            const double backlog = outstandingTokens(i, arrival);
            if (ttft < best - 1.0e-12 ||
                (ttft < best + 1.0e-12 && backlog < best_backlog)) {
                best = std::min(ttft, best);
                best_backlog = backlog;
                chosen = i;
            }
        }
        // Even the least-loaded replica would miss the deadline:
        // shed at the door instead of poisoning the tail.
        return best > deadline_ ? n : chosen;
    }

    RouterPolicy policy_;
    Seconds deadline_ = 0.0;
    std::vector<Backlog> backlogs_;
    std::uint64_t routed_ = 0; ///< RoundRobin cursor.
};

} // namespace

std::shared_ptr<ControlPolicy>
makeRouterPolicy(RouterPolicy policy)
{
    return std::make_shared<RouterControlPolicy>(policy);
}

} // namespace hermes::sched
