#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "bench_util.hh"
#include "core/workload.hh"
#include "runtime/factory.hh"
#include "timed_policy.hh"

namespace perfbench {

namespace {

using hermes::fleet::FleetReport;
using hermes::runtime::EngineKind;
using hermes::runtime::InferenceRequest;
using hermes::runtime::InferenceResult;
using hermes::runtime::SystemConfig;
using hermes::serving::ServedRequest;

/** printf into a std::string. */
template <typename... Args>
std::string
format(const char *pattern, Args... args)
{
    const int size = std::snprintf(nullptr, 0, pattern, args...);
    std::string text(static_cast<std::size_t>(size) + 1, '\0');
    std::snprintf(text.data(), text.size(), pattern, args...);
    text.pop_back();
    return text;
}

// ---- paper-grid ----------------------------------------------------

/** One engine call of the grid. */
struct GridCall
{
    std::string label;
    EngineKind kind;
    SystemConfig config;
    InferenceRequest request;
};

/** The Fig. 13 scheduling-ablation platform variants. */
SystemConfig
ablationConfig(bool partition, bool token, bool layer, bool rebalance)
{
    SystemConfig config = hermes::bench::benchPlatform();
    config.sched.offlinePartition = partition;
    config.sched.onlineAdjustment = token || layer;
    config.sched.tokenWisePrediction = token;
    config.sched.layerWisePrediction = layer;
    config.sched.windowRebalance = rebalance;
    return config;
}

std::vector<GridCall>
paperGridCalls(std::uint64_t seed, Size size)
{
    const bool full = size == Size::Full;
    std::vector<GridCall> calls;
    const auto add = [&](std::string label, EngineKind kind,
                         SystemConfig config, const char *model,
                         std::uint32_t batch, std::uint32_t prompt) {
        InferenceRequest request =
            hermes::bench::benchRequest(model, batch);
        request.promptTokens = prompt;
        request.seed = seed;
        calls.push_back(GridCall{std::move(label), kind,
                                 std::move(config), request});
    };
    const SystemConfig platform = hermes::bench::benchPlatform();
    const std::vector<const char *> models =
        full ? std::vector<const char *>{"OPT-13B", "OPT-66B",
                                         "LLaMA2-70B"}
             : std::vector<const char *>{"OPT-66B"};
    const std::vector<std::uint32_t> batches =
        full ? std::vector<std::uint32_t>{1, 16}
             : std::vector<std::uint32_t>{1};
    const std::vector<std::uint32_t> prompts =
        full ? std::vector<std::uint32_t>{128, 2048}
             : std::vector<std::uint32_t>{128};
    for (const EngineKind kind : hermes::runtime::allEngineKinds())
        for (const char *model : models)
            for (const std::uint32_t batch : batches)
                for (const std::uint32_t prompt : prompts)
                    add("grid", kind, platform, model, batch, prompt);
    if (!full)
        return calls;
    // Fig. 10 reference points (LLaMA2-70B is already in the grid).
    for (const char *model : {"LLaMA2-13B", "Falcon-40B"})
        for (const EngineKind kind :
             {EngineKind::Accelerate, EngineKind::HermesHost,
              EngineKind::HermesBase, EngineKind::Hermes})
            add("fig10", kind, platform, model, 1, 128);
    // Fig. 13 scheduling-ablation variants of Hermes.
    const std::vector<std::pair<const char *, SystemConfig>> variants = {
        {"fig13-random", ablationConfig(false, false, false, false)},
        {"fig13-partition", ablationConfig(true, false, false, false)},
        {"fig13-token-adj", ablationConfig(true, true, false, false)},
        {"fig13-layer-adj", ablationConfig(true, false, true, false)},
        {"fig13-adjustment", ablationConfig(true, true, true, false)},
        {"fig13-full", ablationConfig(true, true, true, true)},
    };
    for (const auto &[label, config] : variants)
        add(label, EngineKind::Hermes, config, "OPT-13B", 1, 128);
    return calls;
}

class PaperGrid : public Workload
{
  public:
    explicit PaperGrid(const WorkloadOptions &options) : options_(options)
    {
    }

    void
    setup(Tracer &tracer) override
    {
        {
            ScopedSpan span(tracer, "workload.generate");
            calls_ = paperGridCalls(options_.seed, options_.size);
        }
        ScopedSpan span(tracer, "engine.construct");
        engines_.clear();
        engines_.reserve(calls_.size());
        for (const GridCall &call : calls_)
            engines_.push_back(
                hermes::runtime::makeEngine(call.kind, call.config));
    }

    void
    run(Tracer &tracer) override
    {
        results_.assign(calls_.size(), InferenceResult{});
        errors_.assign(calls_.size(), std::string());
        seconds_.assign(calls_.size(), 0.0);
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            ScopedSpan span(tracer, engineSpanName(calls_[i].kind).c_str(),
                            i);
            const double start = wallNow();
            try {
                results_[i] = engines_[i]->run(calls_[i].request);
            } catch (const std::exception &error) {
                errors_[i] = error.what();
            }
            seconds_[i] = wallNow() - start;
        }
    }

    std::vector<double>
    engineSeconds(EngineKind kind) const override
    {
        std::vector<double> seconds;
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            if (calls_[i].kind == kind)
                seconds.push_back(seconds_[i]);
        }
        return seconds;
    }

    std::vector<OpOutcome>
    check() const override
    {
        std::vector<OpOutcome> outcomes(calls_.size());
        for (std::size_t i = 0; i < calls_.size(); ++i)
            outcomes[i] = checkCall(i);

        // Fig. 9 ordering on OPT-66B batch 1: Accelerate < FlexGen <
        // DejaVu < Hermes-host < Hermes-base < Hermes.
        const std::vector<EngineKind> order = {
            EngineKind::Accelerate, EngineKind::FlexGen,
            EngineKind::DejaVu,     EngineKind::HermesHost,
            EngineKind::HermesBase, EngineKind::Hermes};
        std::vector<std::size_t> ordered;
        for (const EngineKind kind : order) {
            for (std::size_t i = 0; i < calls_.size(); ++i) {
                const GridCall &call = calls_[i];
                if (call.label == "grid" && call.kind == kind &&
                    call.request.llm.name == "OPT-66B" &&
                    call.request.batch == 1 &&
                    call.request.promptTokens == 128)
                    ordered.push_back(i);
            }
        }
        bool holds = ordered.size() == order.size();
        for (std::size_t k = 1; holds && k < ordered.size(); ++k)
            holds = results_[ordered[k - 1]].tokensPerSecond <
                    results_[ordered[k]].tokensPerSecond;
        if (!holds) {
            for (const std::size_t i : ordered) {
                outcomes[i].ok = false;
                outcomes[i].problem =
                    "Fig. 9 ordering on OPT-66B batch 1 broken";
            }
        }
        return outcomes;
    }

  private:
    OpOutcome
    checkCall(std::size_t i) const
    {
        const GridCall &call = calls_[i];
        const InferenceResult &result = results_[i];
        OpOutcome outcome;
        const std::string head = format(
            "%s %s %s b=%u p=%u: ", call.label.c_str(),
            hermes::runtime::engineKindName(call.kind).c_str(),
            call.request.llm.name.c_str(), call.request.batch,
            call.request.promptTokens);
        if (!errors_[i].empty()) {
            outcome.digest = head + "threw";
            outcome.ok = false;
            outcome.problem = "threw: " + errors_[i];
            return outcome;
        }
        if (!result.supported) {
            outcome.digest = head + "N.P.";
            if (result.tokensPerSecond != 0.0) {
                outcome.ok = false;
                outcome.problem = "unsupported run reports a rate";
            }
            return outcome;
        }
        const auto &b = result.breakdown;
        outcome.digest = head + format(
            "tps=%.17g prefill=%.17g generate=%.17g fc=%.17g "
            "attention=%.17g predictor=%.17g prefill_bd=%.17g "
            "communication=%.17g others=%.17g",
            result.tokensPerSecond, result.prefillTime,
            result.generateTime, b.fc, b.attention, b.predictor,
            b.prefill, b.communication, b.others);
        const bool sane = std::isfinite(result.tokensPerSecond) &&
                          result.tokensPerSecond > 0.0 &&
                          result.prefillTime >= 0.0 &&
                          result.generateTime > 0.0;
        if (!sane) {
            outcome.ok = false;
            outcome.problem = "non-positive or non-finite timing";
        }
        return outcome;
    }

    WorkloadOptions options_;
    std::vector<GridCall> calls_;
    std::vector<std::unique_ptr<hermes::runtime::InferenceEngine>>
        engines_;
    std::vector<InferenceResult> results_;
    std::vector<std::string> errors_;
    std::vector<double> seconds_;
};

// ---- fleet workloads -------------------------------------------------

/** Shape of a fleet workload. */
struct FleetShape
{
    const char *scenario;
    std::uint32_t replicas;
    std::uint32_t requests; ///< Sessions when `sessions` is set.
    double rate;            ///< Requests (or sessions) per second.
    std::uint32_t maxBatch;
    std::uint32_t calibrationTokens;
    hermes::serving::CostModel costModel;
    std::uint64_t kvCapacityTokens;
    const char *control;
    hermes::Seconds ttftDeadline;
    bool sessions;
    /** Override the scenario's prompt lengths (mean 0 keeps them). */
    hermes::serving::LengthDistribution prompt{0, 0, 0.0, 1.0};
};

/** Every fleet workload serves this model. */
constexpr const char *kFleetModel = "OPT-13B";

hermes::serving::ScenarioConfig
scenarioConfig(const FleetShape &shape, const WorkloadOptions &options)
{
    hermes::serving::ScenarioConfig scenario =
        hermes::serving::scenarioByName(shape.scenario, shape.requests,
                                        shape.rate, options.seed);
    if (shape.prompt.mean > 0)
        scenario.prompt = shape.prompt;
    return scenario;
}

/**
 * The replicas' serving policy.  The engine's activation-trace seed
 * stays the library default: --seed draws the traffic, not the
 * hardware's physics.
 */
hermes::serving::ServingConfig
servingConfig(const FleetShape &shape)
{
    hermes::serving::ServingConfig serving;
    serving.maxBatch = shape.maxBatch;
    serving.calibrationTokens = shape.calibrationTokens;
    serving.costModel = shape.costModel;
    serving.kvCapacityTokens = shape.kvCapacityTokens;
    return serving;
}

class FleetWorkload : public Workload
{
  public:
    FleetWorkload(FleetShape shape, const WorkloadOptions &options)
        : shape_(shape), options_(options)
    {
    }

    void
    setup(Tracer &tracer) override
    {
        // Drop the last pass first, so passes never overlap in memory.
        fleet_.reset();
        report_ = FleetReport{};
        {
            ScopedSpan span(tracer, "workload.generate");
            const auto scenario = scenarioConfig(shape_, options_);
            if (shape_.sessions) {
                sessions_ =
                    hermes::serving::generateSessionWorkload(scenario);
                served_ = sessions_.requests;
            } else {
                served_ = hermes::serving::generateWorkload(scenario);
                input_ = served_;
            }
        }
        ScopedSpan span(tracer, "fleet.construct");
        hermes::fleet::FleetConfig config = hermes::fleet::uniformFleet(
            shape_.replicas, hermes::bench::benchPlatform(),
            servingConfig(shape_),
            hermes::sched::RouterPolicy::JoinShortestQueue,
            shape_.ttftDeadline);
        config.calibrationThreads = options_.threads;
        config.control =
            hermes::sched::controlPolicyByName(shape_.control);
        if (tracer.enabled())
            config.control = std::make_shared<TimedControlPolicy>(
                config.control, tracer);
        fleet_ = std::make_unique<hermes::fleet::FleetSimulator>(
            std::move(config), hermes::model::modelByName(kFleetModel));
    }

    void
    run(Tracer &tracer) override
    {
        error_.clear();
        report_ = FleetReport{};
        ScopedSpan span(tracer, "fleet.run");
        try {
            report_ = shape_.sessions ? fleet_->run(sessions_)
                                      : fleet_->run(std::move(input_));
        } catch (const std::exception &error) {
            error_ = error.what();
        }
    }

    std::vector<OpOutcome>
    check() const override
    {
        OpOutcome outcome;
        if (!error_.empty()) {
            outcome.digest = "threw";
            outcome.ok = false;
            outcome.problem = "threw: " + error_;
            return {outcome};
        }
        outcome.digest = fleetDigest(report_);
        outcome.problem = fleetInvariantViolation(report_, served_);
        outcome.ok = outcome.problem.empty();
        return {outcome};
    }

    std::vector<hermes::fleet::KernelStats>
    kernelStats() const override
    {
        return {report_.kernelStats};
    }

  private:
    FleetShape shape_;
    WorkloadOptions options_;
    hermes::serving::SessionTrace sessions_;
    std::vector<ServedRequest> served_; ///< The trace, for checks.
    std::vector<ServedRequest> input_;  ///< Moved into run().
    std::unique_ptr<hermes::fleet::FleetSimulator> fleet_;
    FleetReport report_;
    std::string error_;
};

FleetShape
diurnalShape(Size size)
{
    // 64 Hermes OPT-13B replicas fed near their sustainable rate, so
    // the diurnal peaks overload the fleet and the troughs drain it.
    FleetShape shape{"diurnal",
                     64,
                     150000,
                     150.0,
                     8,
                     8,
                     hermes::serving::CostModel::Exact,
                     0,
                     "jsq+slo-steal",
                     2.0,
                     false};
    if (size == Size::Small) {
        shape.replicas = 4;
        shape.requests = 600;
        shape.rate = 150.0 * 4 / 64;
    }
    return shape;
}

FleetShape
multiturnShape(Size size)
{
    // Two replicas and conversations whose context grows to ~20k
    // tokens: the KV budget evicts some sessions, whose next turn
    // re-prefills its whole history.  24 sessions rather than ~10:
    // with 10, which cells of the cost surface a run touches varies
    // so much with the seed that run_s spread over seeds by ~30%.
    FleetShape shape{"multiturn",
                     2,
                     24,
                     0.6,
                     8,
                     6,
                     hermes::serving::CostModel::Interp,
                     24576,
                     "affinity",
                     1.5,
                     true};
    if (size == Size::Small) {
        shape.requests = 4;
        shape.prompt = {512, 128, 0.0, 1.0};
        shape.kvCapacityTokens = 2048;
    }
    return shape;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"paper-grid", "fleet-diurnal", "multiturn-long"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadOptions &options)
{
    if (name == "paper-grid")
        return std::make_unique<PaperGrid>(options);
    if (name == "fleet-diurnal")
        return std::make_unique<FleetWorkload>(diurnalShape(options.size),
                                               options);
    if (name == "multiturn-long")
        return std::make_unique<FleetWorkload>(
            multiturnShape(options.size), options);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

ReplicaSetup
multiturnReplica(const WorkloadOptions &options)
{
    const FleetShape shape = multiturnShape(options.size);
    return ReplicaSetup{
        hermes::bench::benchPlatform(),
        hermes::model::modelByName(kFleetModel),
        servingConfig(shape),
        hermes::serving::generateSessionWorkload(
            scenarioConfig(shape, options))};
}

Fidelity
runFidelityProbe(std::uint64_t seed, Tracer &tracer)
{
    struct Reference
    {
        const char *model;
        double paper[4]; ///< Accelerate, Hermes-host, Hermes-base, Hermes.
    };
    const Reference references[] = {
        {"LLaMA2-13B", {0.91, 30.90, 11.86, 91.95}},
        {"LLaMA2-70B", {0.04, 2.45, 1.97, 13.75}},
        {"Falcon-40B", {0.07, 4.34, 5.58, 30.02}},
    };
    const EngineKind kinds[4] = {EngineKind::Accelerate,
                                 EngineKind::HermesHost,
                                 EngineKind::HermesBase, EngineKind::Hermes};
    Fidelity fidelity;
    double total = 0.0;
    int points = 0;
    for (const Reference &reference : references) {
        for (int k = 0; k < 4; ++k) {
            InferenceRequest request =
                hermes::bench::benchRequest(reference.model, 1);
            request.seed = seed;
            ScopedSpan span(tracer, "probe.fidelity", points);
            const InferenceResult result =
                hermes::runtime::makeEngine(kinds[k],
                                            hermes::bench::benchPlatform())
                    ->run(request);
            fidelity.ok = fidelity.ok && result.supported;
            const double err = 100.0 *
                               std::abs(result.tokensPerSecond -
                                        reference.paper[k]) /
                               reference.paper[k];
            total += err;
            ++points;
            if (kinds[k] == EngineKind::Hermes &&
                std::string(reference.model) == "LLaMA2-70B")
                fidelity.hermesLlama70bErrPct = err;
        }
    }
    fidelity.meanErrPct = total / points;
    return fidelity;
}

std::string
engineSpanName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Accelerate:
        return "engine.accelerate";
      case EngineKind::FlexGen:
        return "engine.flexgen";
      case EngineKind::DejaVu:
        return "engine.dejavu";
      case EngineKind::HermesHost:
        return "engine.hermes_host";
      case EngineKind::HermesBase:
        return "engine.hermes_base";
      case EngineKind::Hermes:
        return "engine.hermes";
      case EngineKind::TensorRtLlm:
        return "engine.tensorrt_llm";
    }
    return "engine.unknown";
}

std::string
fleetInvariantViolation(const FleetReport &report,
                        const std::vector<ServedRequest> &served)
{
    const std::size_t n = served.size();
    if (report.requests.size() != n || report.assignment.size() != n)
        return "report rows do not match the trace";
    if (report.completed + report.rejected != n)
        return "completed + rejected != requests";

    // Every trace id appears exactly once in the report.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> generate;
    generate.reserve(n);
    for (const ServedRequest &request : served)
        generate.emplace_back(request.id, request.generateTokens);
    std::sort(generate.begin(), generate.end());
    std::vector<std::uint64_t> seen;
    seen.reserve(n);
    for (const auto &metrics : report.requests)
        seen.push_back(metrics.id);
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < n; ++i) {
        if (seen[i] != generate[i].first)
            return format("request %llu does not end exactly once",
                          static_cast<unsigned long long>(
                              generate[i].first));
    }

    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &m = report.requests[i];
        if (report.assignment[i] < 0) {
            ++shed;
            if (!m.rejected)
                return "a shed request was served";
        }
        if (m.rejected)
            continue;
        ++completed;
        const auto it = std::lower_bound(
            generate.begin(), generate.end(),
            std::make_pair(m.id, std::uint32_t{0}));
        if (!(m.arrival <= m.admitted && m.admitted <= m.firstToken &&
              m.firstToken <= m.completed))
            return format("request %llu timestamps out of order",
                          static_cast<unsigned long long>(m.id));
        if (m.tokens != it->second)
            return format("request %llu generated %u of %u tokens",
                          static_cast<unsigned long long>(m.id),
                          m.tokens, it->second);
    }
    if (shed != report.shed)
        return "shed count != requests with assignment -1";
    if (completed != report.completed)
        return "completed count != served rows";

    double replica_seconds = 0.0;
    for (const hermes::Seconds seconds : report.replicaActiveSeconds)
        replica_seconds += seconds;
    if (replica_seconds != report.replicaSeconds)
        return "replicaSeconds != sum of replicaActiveSeconds";
    return std::string();
}

std::string
fleetDigest(const FleetReport &report)
{
    return format(
        "completed=%llu rejected=%llu shed=%llu p50_ttft=%.17g "
        "p99_ttft=%.17g p99_e2e=%.17g slo=%.17g tps=%.17g "
        "makespan=%.17g replica_seconds=%.17g",
        static_cast<unsigned long long>(report.completed),
        static_cast<unsigned long long>(report.rejected),
        static_cast<unsigned long long>(report.shed), report.p50Ttft,
        report.p99Ttft, hermes::fleet::latencyPercentile(report, 99.0),
        report.sloAttainment, report.throughputTps, report.makespan,
        report.replicaSeconds);
}

std::string
hashHex(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return format("%016llx", static_cast<unsigned long long>(hash));
}

} // namespace perfbench
