/**
 * @file
 * Self-tests of the benchmark's own machinery, on the quick Small
 * variants of the workloads: the timing decorator is bit-identical,
 * another seed changes the traces and still passes the invariants,
 * the invariant checks catch a broken report, the stage probe
 * replays the engine exactly, and span self time subtracts children.
 *
 * Run through perfbench/tests/test_perfbench.py, or directly:
 * .bench_build/perfbench/perfbench_selftest (exit 0 = pass).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "stage_probe.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int failures = 0;

void
check(bool condition, const std::string &what)
{
    std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
    failures += condition ? 0 : 1;
}

/** One Small pass of `name` at `seed`; digests joined, all checks ok? */
std::string
pass(const std::string &name, std::uint64_t seed, Tracer &tracer,
     bool &all_ok)
{
    WorkloadOptions options;
    options.seed = seed;
    options.threads = 2;
    options.size = Size::Small;
    auto workload = makeWorkload(name, options);
    workload->setup(tracer);
    workload->run(tracer);
    std::string joined;
    all_ok = true;
    for (const OpOutcome &outcome : workload->check()) {
        joined += outcome.digest + "\n";
        if (!outcome.ok)
            std::printf("     %s: %s\n", name.c_str(),
                        outcome.problem.c_str());
        all_ok = all_ok && outcome.ok;
    }
    return joined;
}

void
testDecoratorIsBitIdentical()
{
    for (const std::string name : {"fleet-diurnal", "multiturn-long"}) {
        Tracer off(false);
        Tracer on(true);
        bool ok_off = false;
        bool ok_on = false;
        const std::string bare = pass(name, 3, off, ok_off);
        const std::string timed = pass(name, 3, on, ok_on);
        check(ok_off && ok_on, name + ": both runs pass their checks");
        check(bare == timed,
              name + ": timing decorator leaves the digest unchanged");
        check(on.total("control.arrival").count > 0 &&
                  on.total("control.action").count > 0,
              name + ": decorator recorded arrivals and actions");
    }
}

void
testSeedChangesTraces()
{
    for (const std::string &name : workloadNames()) {
        Tracer off(false);
        bool ok_a = false;
        bool ok_b = false;
        const std::string a = pass(name, 1, off, ok_a);
        const std::string b = pass(name, 2, off, ok_b);
        check(ok_a && ok_b, name + ": seeds 1 and 2 pass the invariants");
        check(a != b, name + ": another seed changes the outputs");
        bool ok_again = false;
        check(pass(name, 1, off, ok_again) == a,
              name + ": the same seed repeats bit for bit");
    }
}

void
testInvariantsCatchBrokenReports()
{
    const hermes::serving::ScenarioConfig scenario =
        hermes::serving::scenarioByName("steady", 40, 8.0, 5);
    const auto served = hermes::serving::generateWorkload(scenario);
    hermes::serving::ServingConfig serving;
    serving.maxBatch = 4;
    auto config = hermes::fleet::uniformFleet(
        2, hermes::runtime::platformPreset("default", 2), serving,
        hermes::sched::RouterPolicy::JoinShortestQueue);
    hermes::fleet::FleetSimulator fleet(config,
                                        hermes::model::modelByName("OPT-13B"));
    const hermes::fleet::FleetReport report = fleet.run(served);
    check(fleetInvariantViolation(report, served).empty(),
          "a real report passes the invariants");

    std::size_t served_row = 0;
    while (served_row + 1 < report.requests.size() &&
           report.requests[served_row].rejected)
        ++served_row;
    check(!report.requests[served_row].rejected, "some request completed");

    auto broken = report;
    broken.replicaSeconds += 1.0;
    check(!fleetInvariantViolation(broken, served).empty(),
          "replicaSeconds drift is caught");
    broken = report;
    broken.requests[served_row].tokens += 1;
    check(!fleetInvariantViolation(broken, served).empty(),
          "a wrong token count is caught");
    broken = report;
    broken.requests[1].id = broken.requests[0].id;
    check(!fleetInvariantViolation(broken, served).empty(),
          "a request ending twice is caught");
    broken = report;
    broken.assignment[2] = -1;
    check(!fleetInvariantViolation(broken, served).empty(),
          "a shed mismatch is caught");
    broken = report;
    std::swap(broken.requests[served_row].admitted,
              broken.requests[served_row].completed);
    check(!fleetInvariantViolation(broken, served).empty(),
          "out-of-order timestamps are caught");
}

void
testStageProbeReplaysEngine()
{
    Tracer tracer(true);
    const StageProbeResult probe = runStageProbe(4, Size::Small, tracer);
    check(probe.mismatches.empty(),
          "stage probe reproduces HermesEngine::run bit for bit");
    check(probe.coverage() > 0.3 && probe.coverage() < 1.5,
          "stage probe coverage is a plausible share of the engine");
}

void
testSelfTime()
{
    Tracer tracer(true);
    const int outer = tracer.begin("outer");
    const int inner = tracer.begin("inner");
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i)
        sink = sink + 1.0;
    tracer.end(inner);
    tracer.end(outer);
    const SpanTotals o = tracer.total("outer");
    const SpanTotals n = tracer.total("inner");
    check(o.count == 1 && n.count == 1, "spans counted");
    check(o.selfSeconds >= 0.0 &&
              o.selfSeconds + n.seconds <= o.seconds * (1 + 1e-9) + 1e-12,
          "self time excludes the child span");
}

} // namespace

int
main()
{
    testSelfTime();
    testInvariantsCatchBrokenReports();
    testDecoratorIsBitIdentical();
    testSeedChangesTraces();
    testStageProbeReplaysEngine();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
