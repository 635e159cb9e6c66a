/**
 * @file
 * perfbench: host-time benchmark of the Hermes simulator.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--pinned <digests.json>] [--trace-out <path>]
 *   perfbench --list-metrics
 *
 * Untraced (--trace 0): repeats whole cold passes of the workload —
 * set-up, then the timed calls — until the timed calls have used
 * --seconds (at least one pass), and reports the set-up time, the
 * median wall and CPU time of a pass, and the process's peak RSS.
 *
 * Traced (--trace 1): one untraced pass, then one traced pass with
 * spans around every public call the benchmark makes (and the timing
 * decorator around the fleet's control policy), then the probes — the
 * stage probe on paper-grid, the cost-surface probe on multiturn-long,
 * the fidelity probe on every workload; reports the per-layer metrics.
 *
 * Every pass is checked: one canonical digest line per operation,
 * the seed-independent invariants, identical digests across passes,
 * traced against untraced, and — at the pinned seed — against the
 * pinned digests.  The last stdout line is the result object; the
 * line before it, prefixed "run-record ", describes the run.  Exit
 * code 0 only when every check passed.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/threads.hh"
#include "cost_probe.hh"
#include "spans.hh"
#include "stage_probe.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by --trace 0. */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/** Per-layer metrics, reported by --trace 1. */
const MetricSpec kPerLayer[] = {
    {"kernel.events", "count"},
    {"kernel.loop_s", "s"},
    {"kernel.events_per_s", "1/s"},
    {"fleet.calibration_s", "s"},
    {"fleet.other_s", "s"},
    {"kernel.steals", "count"},
    {"kernel.stolen_requests", "count"},
    {"workload.generate_s", "s"},
    {"fleet.construct_s", "s"},
    {"engine.accelerate.calls", "count"},
    {"engine.accelerate.s", "s"},
    {"engine.flexgen.calls", "count"},
    {"engine.flexgen.s", "s"},
    {"engine.dejavu.calls", "count"},
    {"engine.dejavu.s", "s"},
    {"engine.hermes_host.calls", "count"},
    {"engine.hermes_host.s", "s"},
    {"engine.hermes_base.calls", "count"},
    {"engine.hermes_base.s", "s"},
    {"engine.hermes.calls", "count"},
    {"engine.hermes.s", "s"},
    {"engine.tensorrt_llm.calls", "count"},
    {"engine.tensorrt_llm.s", "s"},
    {"engine.hermes.p50_ms", "ms"},
    {"engine.hermes.max_ms", "ms"},
    {"sparsity.trace_s", "s"},
    {"sched.ilp_s", "s"},
    {"sched.predictor_s", "s"},
    {"sched.mapper_s", "s"},
    {"sched.window_s", "s"},
    {"device.s", "s"},
    {"runtime.pipeline_s", "s"},
    {"engine.hermes.probe_coverage", "ratio"},
    {"serving.probe.buckets", "count"},
    {"serving.probe.engine_runs", "count"},
    {"serving.probe.s", "s"},
    {"serving.probe.s_per_bucket", "s"},
    {"serving.probe.runs_per_bucket", "ratio"},
    {"serving.warm.serial_s", "s"},
    {"serving.warm.pool_s", "s"},
    {"control.arrival.calls", "count"},
    {"control.arrival_s", "s"},
    {"control.hooks_s", "s"},
    {"control.actions_s", "s"},
    {"fidelity.fig10_mean_err_pct", "%"},
    {"fidelity.fig10_hermes_llama2_70b_err_pct", "%"},
    {"trace.overhead_s", "s"},
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null"; // run.py refuses a result with a non-number.
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
jsonString(const std::string &text)
{
    std::string quoted = "\"";
    quoted += hermes::bench::jsonEscape(text);
    quoted += '"';
    return quoted;
}

/** CPUs this process may run on (what nproc prints). */
unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return hermes::hardwareThreads();
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Pinned per-operation digests of one workload at one seed. */
struct Pinned
{
    bool present = false;
    std::vector<std::string> hashes;
};

Pinned
loadPinned(const std::string &path, const std::string &workload,
           std::uint64_t seed)
{
    Pinned pinned;
    if (path.empty())
        return pinned;
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    hermes::bench::JsonObject json;
    if (!file || !hermes::bench::JsonObject::parse(text.str(), json)) {
        std::fprintf(stderr, "perfbench: cannot read pinned digests %s\n",
                     path.c_str());
        std::exit(2);
    }
    if (static_cast<std::uint64_t>(json.number("seed")) != seed ||
        !json.has(workload))
        return pinned;
    pinned.present = true;
    std::stringstream hashes(json.str(workload));
    for (std::string hash; std::getline(hashes, hash, ',');)
        pinned.hashes.push_back(hash);
    return pinned;
}

/** Checks of one pass, against the first pass and the pinned hashes. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
};

void
judgePass(const std::vector<OpOutcome> &outcomes,
          const std::vector<std::string> &reference, const Pinned &pinned,
          const char *pass, Verdict &verdict)
{
    verdict.attempted += outcomes.size();
    if (pinned.present && pinned.hashes.size() != outcomes.size())
        verdict.problems.push_back("pinned digest count differs");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        std::string problem = outcomes[i].problem;
        if (problem.empty() && i < reference.size() &&
            outcomes[i].digest != reference[i])
            problem = std::string(pass) + " digest differs from the first "
                                          "pass: " + outcomes[i].digest;
        if (problem.empty() && pinned.present &&
            i < pinned.hashes.size() &&
            hashHex(outcomes[i].digest) != pinned.hashes[i])
            problem = "pinned digest mismatch: " + outcomes[i].digest;
        if (!problem.empty() || !outcomes[i].ok) {
            ++verdict.failed;
            verdict.problems.push_back(problem);
        }
    }
}

std::vector<std::string>
digests(const std::vector<OpOutcome> &outcomes)
{
    std::vector<std::string> lines;
    for (const OpOutcome &outcome : outcomes)
        lines.push_back(outcome.digest);
    return lines;
}

} // namespace

int
main(int argc, char **argv)
{
    hermes::bench::Args args(argc, argv);
    const bool list_metrics =
        args.flag("list-metrics", "print every metric with its unit");
    const std::string workload_name =
        args.str("workload", "", "paper-grid|fleet-diurnal|multiturn-long");
    const std::uint64_t seed = args.u64("seed", 1, "input seed");
    const double seconds =
        args.f64("seconds", 10.0, "timed seconds (at least one pass)");
    const std::uint32_t trace = args.u32("trace", 0, "0 or 1");
    const std::string pinned_path =
        args.out("pinned", "pinned digests to check (seed 1)");
    const std::string trace_path =
        args.out("trace-out", "Chrome trace-event JSON of a traced run");
    args.finish();
    if (list_metrics) {
        for (const MetricSpec &m : kEndToEnd)
            std::printf("end_to_end %s %s\n", m.name, m.unit);
        for (const MetricSpec &m : kPerLayer)
            std::printf("per_layer %s %s\n", m.name, m.unit);
        return 0;
    }
    const bool traced = trace == 1;
    if (workload_name.empty() || trace > 1 || !(seconds > 0.0)) {
        std::fprintf(stderr, "perfbench: need --workload, --seconds > 0 "
                             "and --trace 0|1 (see --help)\n");
        return 2;
    }

    // Figures from unoptimized builds must never be compared with
    // Release figures.
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    WorkloadOptions options;
    options.seed = seed;
    const unsigned nproc = affinityCpus();
    options.threads = std::min(hermes::hardwareThreads(), nproc);
    std::unique_ptr<Workload> workload;
    try {
        workload = makeWorkload(workload_name, options);
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
    const Pinned pinned = loadPinned(pinned_path, workload_name, seed);

    // ---- Untraced passes: the end-to-end metrics. ----
    Tracer off(false);
    Verdict verdict;
    std::vector<std::string> reference;
    std::vector<double> run_samples;
    std::vector<double> cpu_samples;
    // Set-up takes microseconds to milliseconds, and on a shared host
    // the speed of such short work drifts by up to 2x within seconds.
    // So set-ups are timed in windows of kSetupWindow seconds, one before
    // the first pass and one after every pass; each window yields its
    // mean set-up time, and setup_s is the median over the windows.
    // Each window leaves a fresh set-up for the next pass.
    constexpr double kSetupWindow = 0.2;
    std::vector<double> setup_windows;
    const auto time_setups = [&] {
        std::uint64_t count = 0;
        const double start = wallNow();
        double now = start;
        do {
            workload->setup(off);
            ++count;
            now = wallNow();
        } while (now - start < kSetupWindow);
        setup_windows.push_back((now - start) / static_cast<double>(count));
    };
    if (traced)
        workload->setup(off);
    else
        time_setups();

    double measured = 0.0;
    do {
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        workload->run(off);
        run_samples.push_back(wallNow() - wall0);
        cpu_samples.push_back(cpuNow() - cpu0);
        measured += run_samples.back();
        const std::vector<OpOutcome> outcomes = workload->check();
        judgePass(outcomes, reference, pinned, "untraced", verdict);
        if (reference.empty())
            reference = digests(outcomes);
        // A traced run needs one untraced pass, as the reference for
        // the traced pass's digest and for trace.overhead_s.
        if (traced)
            break;
        time_setups();
    } while (measured < seconds);
    const double rss = peakRssMib();

    std::vector<std::pair<std::string, double>> metrics;
    if (!traced) {
        metrics = {{"setup_s", median(setup_windows)},
                   {"run_s", median(run_samples)},
                   {"cpu_s", median(cpu_samples)},
                   {"peak_rss_mib", rss}};
    } else {
        // ---- One traced pass, then the probes. ----
        Tracer tracer(true);
        workload->setup(tracer);
        double traced_run = 0.0;
        {
            const double start = wallNow();
            workload->run(tracer);
            traced_run = wallNow() - start;
        }
        judgePass(workload->check(), reference, pinned, "traced", verdict);

        double events = 0.0;
        double loop = 0.0;
        double calibration = 0.0;
        double steals = 0.0;
        double stolen = 0.0;
        for (const auto &stats : workload->kernelStats()) {
            events += static_cast<double>(stats.events.popped());
            loop += stats.loopSeconds;
            calibration += stats.calibrationSeconds;
            steals += static_cast<double>(stats.steals);
            stolen += static_cast<double>(stats.stolenRequests);
        }
        const SpanTotals fleet_run = tracer.total("fleet.run");
        std::vector<double> hermes_ms;
        metrics = {
            {"kernel.events", events},
            {"kernel.loop_s", loop},
            {"kernel.events_per_s", loop > 0.0 ? events / loop : 0.0},
            {"fleet.calibration_s", calibration},
            {"fleet.other_s",
             fleet_run.count > 0 ? fleet_run.seconds - loop - calibration
                                 : 0.0},
            {"kernel.steals", steals},
            {"kernel.stolen_requests", stolen},
            {"workload.generate_s",
             tracer.total("workload.generate").seconds},
            {"fleet.construct_s", tracer.total("fleet.construct").seconds},
        };
        for (const auto kind : hermes::runtime::allEngineKinds()) {
            const std::string name = engineSpanName(kind);
            const SpanTotals totals = tracer.total(name);
            metrics.emplace_back(name + ".calls",
                                 static_cast<double>(totals.count));
            metrics.emplace_back(name + ".s", totals.seconds);
        }
        const std::vector<double> hermes_runs =
            workload->engineSeconds(hermes::runtime::EngineKind::Hermes);
        metrics.emplace_back("engine.hermes.p50_ms",
                             1e3 * median(hermes_runs));
        metrics.emplace_back(
            "engine.hermes.max_ms",
            hermes_runs.empty()
                ? 0.0
                : 1e3 * *std::max_element(hermes_runs.begin(),
                                          hermes_runs.end()));

        // Each probe runs in the traced run of the workload whose
        // run_s it explains; elsewhere its metrics read 0.
        const StageProbeResult stages =
            workload_name == "paper-grid"
                ? runStageProbe(seed, Size::Full, tracer)
                : StageProbeResult{};
        for (const std::string &point : stages.mismatches) {
            ++verdict.failed;
            verdict.problems.push_back("stage probe replay differs from "
                                       "the engine at " + point);
        }
        metrics.insert(
            metrics.end(),
            {{"sparsity.trace_s", stages.stages.trace},
             {"sched.ilp_s", stages.stages.ilp},
             {"sched.predictor_s", stages.stages.predictor},
             {"sched.mapper_s", stages.stages.mapper},
             {"sched.window_s", stages.stages.window},
             {"device.s", stages.stages.device},
             {"runtime.pipeline_s", stages.stages.pipeline},
             {"engine.hermes.probe_coverage", stages.coverage()}});

        const CostProbeResult cost =
            workload_name == "multiturn-long"
                ? runCostProbe(options, tracer)
                : CostProbeResult{};
        if (!cost.consistent) {
            ++verdict.failed;
            verdict.problems.push_back(
                "warmed cost surfaces disagree with lazy queries");
        }
        const double buckets = static_cast<double>(cost.buckets);
        const double runs = static_cast<double>(cost.engineRuns);
        metrics.insert(
            metrics.end(),
            {{"serving.probe.buckets", buckets},
             {"serving.probe.engine_runs", runs},
             {"serving.probe.s", cost.seconds},
             {"serving.probe.s_per_bucket",
              buckets > 0.0 ? cost.seconds / buckets : 0.0},
             {"serving.probe.runs_per_bucket",
              buckets > 0.0 ? runs / buckets : 0.0},
             {"serving.warm.serial_s", cost.warmSerialSeconds},
             {"serving.warm.pool_s", cost.warmPoolSeconds}});

        const SpanTotals arrival = tracer.total("control.arrival");
        metrics.insert(
            metrics.end(),
            {{"control.arrival.calls", static_cast<double>(arrival.count)},
             {"control.arrival_s", arrival.selfSeconds},
             {"control.hooks_s", tracer.total("control.hook").selfSeconds},
             {"control.actions_s",
              tracer.total("control.action").seconds}});

        const Fidelity fidelity = runFidelityProbe(seed, tracer);
        if (!fidelity.ok) {
            ++verdict.failed;
            verdict.problems.push_back("a Fig. 10 point is unsupported");
        }
        metrics.insert(
            metrics.end(),
            {{"fidelity.fig10_mean_err_pct", fidelity.meanErrPct},
             {"fidelity.fig10_hermes_llama2_70b_err_pct",
              fidelity.hermesLlama70bErrPct},
             {"trace.overhead_s", traced_run - median(run_samples)}});

        if (!trace_path.empty() && !tracer.writeChromeTrace(trace_path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
            return 2;
        }
    }

    const bool correct = verdict.failed == 0 && verdict.problems.empty();
    for (const std::string &problem : verdict.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     problem.c_str());

    std::string record = "{";
    record += "\"workload\": " + jsonString(workload_name);
    record += ", \"seed\": " + std::to_string(seed);
    record += ", \"trace\": " + std::string(traced ? "1" : "0");
    record += ", \"nproc\": " + std::to_string(nproc);
    record += ", \"calibration_threads\": " + std::to_string(options.threads);
    record += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    record += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
    std::string samples;
    for (const double sample : run_samples)
        samples += (samples.empty() ? "" : ", ") + number(sample);
    record += ", \"pass_run_s\": [" + samples + "]";
    record += ", \"digest_check\": " +
              jsonString(pinned.present ? "pinned" : "invariants");
    std::string all;
    for (const std::string &line : reference)
        all += line + "\n";
    record += ", \"digest\": " + jsonString(hashHex(all));
    std::string op_hashes;
    for (const std::string &line : reference)
        op_hashes += (op_hashes.empty() ? "" : ",") + hashHex(line);
    record += ", \"op_digests\": " + jsonString(op_hashes);
    record += "}";
    std::printf("run-record %s\n", record.c_str());

    std::string result = "{\"correct\": ";
    result += correct ? "true" : "false";
    result += ", \"attempted\": " + std::to_string(verdict.attempted);
    result += ", \"failed\": " + std::to_string(verdict.failed);
    result += ", \"metrics\": {";
    const auto &specs = traced ? std::vector<MetricSpec>(std::begin(kPerLayer),
                                                         std::end(kPerLayer))
                               : std::vector<MetricSpec>(std::begin(kEndToEnd),
                                                         std::end(kEndToEnd));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = std::find_if(
            metrics.begin(), metrics.end(),
            [&](const auto &entry) { return entry.first == specs[i].name; });
        const double value = it == metrics.end() ? NAN : it->second;
        result += (i == 0 ? "" : ", ") + jsonString(specs[i].name) +
                  ": {\"value\": " + number(value) +
                  ", \"unit\": " + jsonString(specs[i].unit) + "}";
    }
    result += "}}";
    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
}
