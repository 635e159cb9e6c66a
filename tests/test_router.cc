/**
 * @file
 * Differential pin of the built-in routing policies: every routeTo /
 * shed decision of makeRouterPolicy must match a reference router
 * that keeps every commitment it ever made and filters drained ones
 * by scanning, over a scripted fleet whose arrivals, lifecycle masks
 * and replica count move underneath it.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fake_fleet.hh"
#include "sched/control_policy.hh"

namespace hermes::fleet {
namespace {

/**
 * The routing policies' decision rules over an unpruned backlog
 * model: a replica's depth counts the commitments with
 * finish > arrival, and its token backlog skips the others.
 */
class ReferenceRouter
{
  public:
    ReferenceRouter(sched::RouterPolicy policy, Seconds deadline)
        : policy_(policy), deadline_(deadline)
    {
    }

    /** The decision for one arrival: a replica, or -1 to shed. */
    int route(Seconds arrival, std::uint32_t generate_tokens,
              const sched::FleetView &view)
    {
        while (models_.size() < view.replicaCount()) {
            sched::ReplicaModel model = view.model(
                static_cast<std::uint32_t>(models_.size()));
            model.maxBatch = std::max<std::uint32_t>(model.maxBatch, 1);
            model.slotTokensPerSecond =
                std::max(model.slotTokensPerSecond, 1.0e-9);
            model.prefillSeconds = std::max(model.prefillSeconds, 0.0);
            models_.push_back(model);
            state_.emplace_back();
            state_.back().freeAt.assign(model.maxBatch, 0.0);
        }
        for (const State &state : state_) {
            for (const Commitment &c : state.commitments)
                finishTies += c.finish == arrival ? 1 : 0;
        }
        const auto n = static_cast<std::uint32_t>(models_.size());
        const auto allowed = [&view](std::uint32_t i) {
            return view.lifecycle(i) == sched::ReplicaLifecycle::Active;
        };
        std::uint32_t chosen = n;
        double best = std::numeric_limits<double>::infinity();
        double best_backlog = std::numeric_limits<double>::infinity();
        for (std::uint32_t k = 0; k < n; ++k) {
            if (policy_ == sched::RouterPolicy::RoundRobin) {
                const std::uint32_t i =
                    static_cast<std::uint32_t>((routed_ + k) % n);
                if (allowed(i)) {
                    chosen = i;
                    break;
                }
                continue;
            }
            if (!allowed(k))
                continue;
            double score = 0.0;
            switch (policy_) {
            case sched::RouterPolicy::TrueJsq:
                score = view.observedOutstanding(k);
                break;
            case sched::RouterPolicy::LeastActualBacklog:
                score = view.observedBacklogTokens(k);
                break;
            case sched::RouterPolicy::JoinShortestQueue:
                score = outstandingRequests(k, arrival);
                break;
            case sched::RouterPolicy::LeastOutstandingTokens:
                score = outstandingTokens(k, arrival);
                break;
            default: {
                const Seconds ttft = estimateTtft(k, arrival);
                const double backlog = outstandingTokens(k, arrival);
                if (ttft < best - 1.0e-12 ||
                    (ttft < best + 1.0e-12 && backlog < best_backlog)) {
                    best = std::min(ttft, best);
                    best_backlog = backlog;
                    chosen = k;
                }
                continue;
            }
            }
            if (score < best) {
                best = score;
                chosen = k;
            }
        }
        if (policy_ == sched::RouterPolicy::SloAware && best > deadline_)
            chosen = n;
        ++routed_;
        if (chosen == n)
            return -1;
        commit(chosen, arrival, generate_tokens);
        return static_cast<int>(chosen);
    }

    /** Commitments seen with finish == arrival (prune-boundary ties). */
    std::uint64_t finishTies = 0;

    /** Commits that joined an open joint-prefill window. */
    std::uint64_t groupJoins = 0;

  private:
    struct Commitment
    {
        Seconds decodeStart = 0.0;
        Seconds finish = 0.0;
        double tokens = 0.0;
    };

    struct State
    {
        std::vector<Seconds> freeAt;
        std::vector<Commitment> commitments;
        Seconds lastPrefillStart = -1.0;
        std::uint32_t groupSize = 0;
        std::uint32_t groupCapacity = 0;

        bool joinsGroup(Seconds arrival) const
        {
            return arrival <= lastPrefillStart &&
                   groupSize < groupCapacity;
        }
    };

    std::uint32_t outstandingRequests(std::uint32_t r, Seconds now) const
    {
        std::uint32_t outstanding = 0;
        for (const Commitment &c : state_[r].commitments)
            outstanding += c.finish > now ? 1 : 0;
        return outstanding;
    }

    double outstandingTokens(std::uint32_t r, Seconds now) const
    {
        double tokens = 0.0;
        for (const Commitment &c : state_[r].commitments) {
            if (c.finish <= now)
                continue;
            if (now <= c.decodeStart || c.finish <= c.decodeStart)
                tokens += c.tokens;
            else
                tokens += c.tokens * (c.finish - now) /
                          (c.finish - c.decodeStart);
        }
        return tokens;
    }

    Seconds estimateTtft(std::uint32_t r, Seconds arrival) const
    {
        const State &state = state_[r];
        const Seconds earliest =
            *std::min_element(state.freeAt.begin(), state.freeAt.end());
        const Seconds prefill = models_[r].prefillSeconds;
        if (state.joinsGroup(arrival))
            return std::max(earliest, state.lastPrefillStart + prefill) -
                   arrival;
        return std::max(arrival, earliest) - arrival + prefill;
    }

    void commit(std::uint32_t r, Seconds arrival, std::uint32_t tokens)
    {
        State &state = state_[r];
        const sched::ReplicaModel &model = models_[r];
        auto slot =
            std::min_element(state.freeAt.begin(), state.freeAt.end());
        Seconds decode_start;
        if (state.joinsGroup(arrival)) {
            decode_start =
                std::max(*slot, state.lastPrefillStart + model.prefillSeconds);
            ++state.groupSize;
            ++groupJoins;
        } else {
            const Seconds start = std::max(arrival, *slot);
            std::uint32_t capacity = 0;
            for (const Seconds free_at : state.freeAt)
                capacity += free_at <= start ? 1 : 0;
            for (Seconds &free_at : state.freeAt)
                free_at = std::max(free_at, start) + model.prefillSeconds;
            state.lastPrefillStart = start;
            state.groupSize = 1;
            state.groupCapacity = std::max(capacity, 1u);
            decode_start = start + model.prefillSeconds;
        }
        *slot = decode_start +
                static_cast<double>(tokens) / model.slotTokensPerSecond;
        state.commitments.push_back(
            Commitment{decode_start, *slot, static_cast<double>(tokens)});
    }

    sched::RouterPolicy policy_;
    Seconds deadline_;
    std::vector<sched::ReplicaModel> models_;
    std::vector<State> state_;
    std::uint64_t routed_ = 0;
};

/**
 * A replica model whose every derived instant is a multiple of
 * 1/8 s, so estimated finishes land exactly on the arrival grid.
 */
sched::ReplicaModel
gridModel(std::uint32_t max_batch, Seconds prefill, double slot_rate)
{
    sched::ReplicaModel model;
    model.maxBatch = max_batch;
    model.prefillSeconds = prefill;
    model.slotTokensPerSecond = slot_rate;
    return model;
}

TEST(RouterPolicy, DecisionsMatchTheUnprunedReference)
{
    constexpr Seconds kDeadline = 6.0;
    constexpr std::uint32_t kArrivals = 3000;
    const sched::ReplicaLifecycle masks[] = {
        sched::ReplicaLifecycle::Active,
        sched::ReplicaLifecycle::Active,
        sched::ReplicaLifecycle::Warming,
        sched::ReplicaLifecycle::Draining,
    };
    for (const sched::RouterPolicy policy : sched::allRouterPolicies()) {
        SCOPED_TRACE(sched::routerPolicyName(policy));
        FakeFleetView view;
        view.replicas.push_back({gridModel(2, 0.5, 4.0)});
        view.replicas.push_back({gridModel(3, 0.25, 2.0)});
        view.replicas.push_back({gridModel(1, 1.0, 8.0)});

        auto routed = sched::makeRouterPolicy(policy);
        routed->begin(sched::ControlContext{kDeadline});
        ReferenceRouter reference(policy, kDeadline);
        Rng rng(17);
        Seconds arrival = 0.0;
        std::uint32_t sheds = 0;
        for (std::uint32_t a = 0; a < kArrivals; ++a) {
            // Coarse grid; a zero step puts several arrivals at one
            // instant, so joint-prefill groups form.
            arrival += 0.125 * static_cast<double>(rng.below(4));
            if (a == kArrivals / 2) {
                // A replica appended mid-run; its hand-built model
                // carries maxBatch 0.
                view.replicas.push_back({gridModel(0, 0.125, 8.0)});
            }
            if (rng.chance(0.05)) {
                const auto r = rng.below(view.replicas.size());
                view.replicas[r].lifecycle = masks[rng.below(4)];
            }
            for (auto &replica : view.replicas) {
                replica.outstanding =
                    static_cast<std::uint32_t>(rng.below(8));
                replica.backlogTokens =
                    static_cast<double>(rng.below(64));
            }
            sched::ArrivalContext context;
            context.requestId = a;
            context.arrival = arrival;
            context.generateTokens =
                1 + static_cast<std::uint32_t>(rng.below(24));

            RecordingActions actions;
            routed->onArrival(context, view, actions);
            const int expected =
                reference.route(arrival, context.generateTokens, view);
            ASSERT_EQ(actions.routes.size() + actions.sheds, 1u);
            const int got =
                actions.sheds ? -1 : static_cast<int>(actions.routes[0]);
            ASSERT_EQ(got, expected) << "arrival " << a << " at t="
                                     << arrival;
            sheds += actions.sheds;
        }
        // The script reaches the cases the prune step must get
        // right: commitments finishing exactly at an arrival, and
        // same-instant arrivals sharing one joint prefill.
        EXPECT_GT(reference.finishTies, 0u);
        EXPECT_GT(reference.groupJoins, 0u);
        // Masks toggle, so some arrival finds no Active replica.
        EXPECT_GT(sheds, 0u);
    }
}

} // namespace
} // namespace hermes::fleet
