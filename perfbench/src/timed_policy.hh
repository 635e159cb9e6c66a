/**
 * @file
 * Outside-in timing of the fleet control plane.
 *
 * TimedControlPolicy wraps the configured sched::ControlPolicy and
 * forwards every call unchanged; each hook it forwards hands the inner
 * policy a FleetActions proxy that forwards every verb to the kernel's
 * real surface.  Both record spans ("control.arrival",
 * "control.hook", "control.action") on the benchmark's tracer, so the
 * arrival hook's self time excludes the time spent inside the actions
 * it called.  The wrapper only reads the clock: a fleet run under it
 * is bit-identical to the bare policy, which the benchmark checks by
 * comparing simulated digests.
 */
#ifndef PERFBENCH_TIMED_POLICY_HH
#define PERFBENCH_TIMED_POLICY_HH

#include <memory>
#include <string>

#include "sched/control_policy.hh"
#include "spans.hh"

namespace perfbench {

class TimedControlPolicy : public hermes::sched::ControlPolicy
{
  public:
    TimedControlPolicy(
        std::shared_ptr<hermes::sched::ControlPolicy> inner,
        Tracer &tracer);

    std::string name() const override;
    std::uint32_t wants() const override;
    hermes::Seconds tickPeriod() const override;
    void begin(const hermes::sched::ControlContext &context) override;
    void onArrival(const hermes::sched::ArrivalContext &context,
                   const hermes::sched::FleetView &view,
                   hermes::sched::FleetActions &actions) override;
    void onPrefillComplete(std::uint32_t replica, hermes::Seconds now,
                           const hermes::sched::FleetView &view,
                           hermes::sched::FleetActions &actions) override;
    void onStepComplete(std::uint32_t replica, hermes::Seconds now,
                        const hermes::sched::FleetView &view,
                        hermes::sched::FleetActions &actions) override;
    void onReplicaIdle(std::uint32_t replica, hermes::Seconds now,
                       const hermes::sched::FleetView &view,
                       hermes::sched::FleetActions &actions) override;
    void onReplicaDead(std::uint32_t replica, hermes::Seconds now,
                       const hermes::sched::FleetView &view,
                       hermes::sched::FleetActions &actions) override;
    void onTick(hermes::Seconds now, const hermes::sched::FleetView &view,
                hermes::sched::FleetActions &actions) override;

  private:
    std::shared_ptr<hermes::sched::ControlPolicy> inner_;
    Tracer &tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_POLICY_HH
