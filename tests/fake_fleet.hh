/**
 * @file
 * A scriptable FleetView and a recording FleetActions: drive a
 * control policy's hooks directly, without a fleet kernel, and
 * assert on the decisions it makes.  Shared by the policy unit
 * tests.
 */

#ifndef HERMES_TESTS_FAKE_FLEET_HH
#define HERMES_TESTS_FAKE_FLEET_HH

#include <cstdint>
#include <vector>

#include "sched/control_policy.hh"

namespace hermes::fleet {

/** A scriptable FleetView: per-replica state set by the test. */
class FakeFleetView final : public sched::FleetView
{
  public:
    struct Replica
    {
        sched::ReplicaModel model;
        sched::ReplicaLifecycle lifecycle =
            sched::ReplicaLifecycle::Active;
        bool dead = false;
        std::uint32_t outstanding = 0;
        double backlogTokens = 0.0;
        std::uint64_t cachedTokens = 0; ///< For session 1.
        bool busy = false;
        std::vector<serving::RequestInfo> running{};
        std::vector<serving::RequestInfo> queued{};
    };

    std::vector<Replica> replicas;

    std::uint32_t replicaCount() const override
    {
        return static_cast<std::uint32_t>(replicas.size());
    }
    const sched::ReplicaModel &
    model(std::uint32_t replica) const override
    {
        return replicas[replica].model;
    }
    bool busy(std::uint32_t replica) const override
    {
        return replicas[replica].busy;
    }
    bool knownServable(std::uint32_t replica) const override
    {
        return !replicas[replica].dead;
    }
    bool knownDead(std::uint32_t replica) const override
    {
        return replicas[replica].dead;
    }
    sched::ReplicaLifecycle
    lifecycle(std::uint32_t replica) const override
    {
        return replicas[replica].lifecycle;
    }
    sched::ReplicaSpec
    replicaSpec(std::uint32_t) const override
    {
        return sched::ReplicaSpec{};
    }
    std::uint32_t queuedCount(std::uint32_t replica) const override
    {
        return replicas[replica].outstanding;
    }
    std::uint32_t
    observedOutstanding(std::uint32_t replica) const override
    {
        return replicas[replica].outstanding;
    }
    double
    observedBacklogTokens(std::uint32_t replica) const override
    {
        return replicas[replica].backlogTokens;
    }
    std::vector<serving::RequestInfo>
    runningRequests(std::uint32_t replica) const override
    {
        return replicas[replica].running;
    }
    std::vector<serving::RequestInfo>
    queuedRequests(std::uint32_t replica) const override
    {
        return replicas[replica].queued;
    }
    serving::RequestState
    requestState(std::uint32_t, std::uint64_t) const override
    {
        return serving::RequestState::Unknown;
    }
    std::uint64_t
    cachedSessionTokens(std::uint32_t replica,
                        std::uint64_t session) const override
    {
        return session == 1 ? replicas[replica].cachedTokens : 0;
    }
    Seconds ttftDeadline() const override { return 2.0; }
};

/** Records every action; each verb's calls are assertion targets. */
class RecordingActions final : public sched::FleetActions
{
  public:
    std::vector<std::uint32_t> routes;
    std::vector<sched::ReplicaSpec> spawns;
    std::vector<std::uint32_t> drains;
    std::vector<std::uint32_t> stealThieves;
    std::vector<std::uint64_t> preempted;
    std::uint32_t sheds = 0;

    void routeTo(std::uint32_t replica) override
    {
        routes.push_back(replica);
    }
    void shed() override { ++sheds; }
    std::uint32_t steal(std::uint32_t thief, std::uint32_t,
                        std::uint32_t) override
    {
        stealThieves.push_back(thief);
        return 0;
    }
    void preempt(std::uint32_t, std::uint64_t id) override
    {
        preempted.push_back(id);
    }
    void migrate(std::uint64_t, std::uint32_t) override {}
    std::uint32_t
    spawnReplica(const sched::ReplicaSpec &spec) override
    {
        spawns.push_back(spec);
        return 0;
    }
    void requestSpawn() override {}
    void requestDrain(std::uint32_t replica) override
    {
        drains.push_back(replica);
    }
};

} // namespace hermes::fleet

#endif // HERMES_TESTS_FAKE_FLEET_HH
