#include "timed_policy.hh"

#include <utility>

namespace perfbench {

namespace {

using hermes::Seconds;
using hermes::sched::FleetActions;
using hermes::sched::ReplicaSpec;

/** Forwards every verb to the kernel's surface inside a span. */
class TimedActions : public FleetActions
{
  public:
    TimedActions(FleetActions &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    routeTo(std::uint32_t replica) override
    {
        ScopedSpan span(tracer_, "control.action", replica);
        inner_.routeTo(replica);
    }

    void
    shed() override
    {
        ScopedSpan span(tracer_, "control.action");
        inner_.shed();
    }

    std::uint32_t
    steal(std::uint32_t thief, std::uint32_t victim,
          std::uint32_t max_count) override
    {
        ScopedSpan span(tracer_, "control.action", thief);
        return inner_.steal(thief, victim, max_count);
    }

    void
    preempt(std::uint32_t replica, std::uint64_t id) override
    {
        ScopedSpan span(tracer_, "control.action", id);
        inner_.preempt(replica, id);
    }

    void
    migrate(std::uint64_t id, std::uint32_t to_replica) override
    {
        ScopedSpan span(tracer_, "control.action", id);
        inner_.migrate(id, to_replica);
    }

    std::uint32_t
    spawnReplica(const ReplicaSpec &spec) override
    {
        ScopedSpan span(tracer_, "control.action");
        return inner_.spawnReplica(spec);
    }

    void
    requestSpawn() override
    {
        ScopedSpan span(tracer_, "control.action");
        inner_.requestSpawn();
    }

    void
    requestDrain(std::uint32_t replica) override
    {
        ScopedSpan span(tracer_, "control.action", replica);
        inner_.requestDrain(replica);
    }

  private:
    FleetActions &inner_;
    Tracer &tracer_;
};

} // namespace

TimedControlPolicy::TimedControlPolicy(
    std::shared_ptr<hermes::sched::ControlPolicy> inner, Tracer &tracer)
    : inner_(std::move(inner)), tracer_(tracer)
{
}

std::string
TimedControlPolicy::name() const
{
    return inner_->name();
}

std::uint32_t
TimedControlPolicy::wants() const
{
    return inner_->wants();
}

Seconds
TimedControlPolicy::tickPeriod() const
{
    return inner_->tickPeriod();
}

void
TimedControlPolicy::begin(const hermes::sched::ControlContext &context)
{
    inner_->begin(context);
}

void
TimedControlPolicy::onArrival(const hermes::sched::ArrivalContext &context,
                              const hermes::sched::FleetView &view,
                              FleetActions &actions)
{
    ScopedSpan span(tracer_, "control.arrival", context.requestId);
    TimedActions timed(actions, tracer_);
    inner_->onArrival(context, view, timed);
}

void
TimedControlPolicy::onPrefillComplete(std::uint32_t replica, Seconds now,
                                      const hermes::sched::FleetView &view,
                                      FleetActions &actions)
{
    ScopedSpan span(tracer_, "control.hook", replica);
    TimedActions timed(actions, tracer_);
    inner_->onPrefillComplete(replica, now, view, timed);
}

void
TimedControlPolicy::onStepComplete(std::uint32_t replica, Seconds now,
                                   const hermes::sched::FleetView &view,
                                   FleetActions &actions)
{
    ScopedSpan span(tracer_, "control.hook", replica);
    TimedActions timed(actions, tracer_);
    inner_->onStepComplete(replica, now, view, timed);
}

void
TimedControlPolicy::onReplicaIdle(std::uint32_t replica, Seconds now,
                                  const hermes::sched::FleetView &view,
                                  FleetActions &actions)
{
    ScopedSpan span(tracer_, "control.hook", replica);
    TimedActions timed(actions, tracer_);
    inner_->onReplicaIdle(replica, now, view, timed);
}

void
TimedControlPolicy::onReplicaDead(std::uint32_t replica, Seconds now,
                                  const hermes::sched::FleetView &view,
                                  FleetActions &actions)
{
    ScopedSpan span(tracer_, "control.hook", replica);
    TimedActions timed(actions, tracer_);
    inner_->onReplicaDead(replica, now, view, timed);
}

void
TimedControlPolicy::onTick(Seconds now, const hermes::sched::FleetView &view,
                           FleetActions &actions)
{
    ScopedSpan span(tracer_, "control.hook");
    TimedActions timed(actions, tracer_);
    inner_->onTick(now, view, timed);
}

} // namespace perfbench
