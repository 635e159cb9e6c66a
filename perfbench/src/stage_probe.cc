#include "stage_probe.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "bench_util.hh"
#include "common/rng.hh"
#include "gpu/kernels.hh"
#include "interconnect/dimm_link.hh"
#include "interconnect/pcie.hh"
#include "ndp/ndp_dimm.hh"
#include "runtime/common_costs.hh"
#include "runtime/decode_pipeline.hh"
#include "runtime/factory.hh"
#include "sched/ilp_partition.hh"
#include "sched/mapper.hh"
#include "sched/predictor.hh"
#include "sched/window_scheduler.hh"
#include "sparsity/trace.hh"

namespace perfbench {

namespace {

using namespace hermes;
using runtime::CostCategory;

/** Adds the wall time of its scope to one stage. */
class Charge
{
  public:
    explicit Charge(double &slot) : slot_(slot), start_(wallNow()) {}
    ~Charge() { slot_ += wallNow() - start_; }
    Charge(const Charge &) = delete;
    Charge &operator=(const Charge &) = delete;

  private:
    double &slot_;
    double start_;
};

/** What the replay reproduces of an engine result. */
struct Replayed
{
    Seconds prefill = 0.0;
    Seconds generate = 0.0;
    runtime::LatencyBreakdown breakdown;
};

struct LocationCounts
{
    std::uint64_t gpu = 0;
    std::vector<std::uint64_t> dimm;
};

LocationCounts
countLocations(const std::vector<std::uint8_t> &mask,
               const sched::BlockPlacement &placement)
{
    LocationCounts counts;
    counts.dimm.assign(placement.numDimms(), 0);
    for (std::uint32_t i = 0; i < placement.neurons(); ++i) {
        if (!mask[i])
            continue;
        if (placement.onGpu(i))
            ++counts.gpu;
        else
            ++counts.dimm[placement.homeDimm(i)];
    }
    return counts;
}

/**
 * HermesEngine::run, call for call, with every stage call charged to
 * its stage.  Keep in step with src/runtime/hermes_engine.cc; the
 * bit-identity check in runStageProbe catches drift.
 */
Replayed
replayHermes(const SystemConfig &config,
             const runtime::InferenceRequest &request, StageTimes &t)
{
    Replayed out;
    const model::LlmConfig &llm = request.llm;
    const std::uint32_t layers = llm.layers;
    const std::uint32_t sim_layers =
        config.simulatedLayers == 0
            ? layers
            : std::min(layers, config.simulatedLayers);
    const double layer_scale = static_cast<double>(layers) / sim_layers;
    model::LlmConfig sim_llm = llm;
    sim_llm.layers = sim_layers;

    sparsity::SparsityConfig sparsity_config = config.sparsity;
    sparsity_config.seed = request.seed;
    double trace_build = 0.0;
    const auto build_trace = [&] {
        Charge charge(trace_build);
        return sparsity::ActivationTrace(sim_llm, sparsity_config,
                                         request.batch);
    };
    sparsity::ActivationTrace trace = build_trace();
    t.trace += trace_build;

    const gpu::GpuModel gpu_model(config.gpu);
    const interconnect::PcieBus pcie(config.pcie);
    ndp::NdpDimm ndp(config.dimm);
    const interconnect::DimmLinkNetwork link_net(config.numDimms,
                                                 config.link);

    // Offline profiling.
    std::vector<std::vector<double>> attn_freq(sim_layers);
    std::vector<std::vector<double>> mlp_freq(sim_layers);
    for (std::uint32_t l = 0; l < sim_layers; ++l) {
        attn_freq[l].assign(trace.attn(l).neurons(), 0.0);
        mlp_freq[l].assign(trace.mlp(l).neurons(), 0.0);
    }
    const std::uint32_t profile_tokens =
        std::max<std::uint32_t>(request.profileTokens, 1);
    {
        Charge charge(t.trace);
        trace.reset(0);
    }
    for (std::uint32_t k = 0; k < profile_tokens; ++k) {
        {
            Charge charge(t.trace);
            trace.nextToken();
        }
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            for (const auto id : trace.attn(l).activeList)
                attn_freq[l][id] += 1.0;
            for (const auto id : trace.mlp(l).activeList)
                mlp_freq[l][id] += 1.0;
        }
    }
    for (std::uint32_t l = 0; l < sim_layers; ++l) {
        for (auto &f : attn_freq[l])
            f /= profile_tokens;
        for (auto &f : mlp_freq[l])
            f /= profile_tokens;
    }

    // Predictor setup.
    sched::PredictorConfig predictor_config;
    double predictor_build = 0.0;
    const auto build_predictor = [&] {
        Charge charge(predictor_build);
        return sched::ModelPredictor(sim_llm, predictor_config);
    };
    sched::ModelPredictor predictor = build_predictor();
    t.predictor += predictor_build;
    {
        Charge charge(t.predictor);
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            predictor.attn(l).initFromFrequency(attn_freq[l]);
            predictor.mlp(l).initFromFrequency(mlp_freq[l]);
            predictor.attn(l).setCorrelation(trace.attn(l).parent1,
                                             trace.attn(l).parent2);
            predictor.mlp(l).setCorrelation(trace.mlp(l).parent1,
                                            trace.mlp(l).parent2);
        }
    }

    // Offline partition.
    runtime::GpuResidency residency;
    {
        Charge charge(t.device);
        residency = runtime::computeResidency(config, llm, 0);
    }
    const Bytes sim_gpu_budget = static_cast<Bytes>(
        static_cast<double>(residency.hotBudget) / layer_scale);
    sched::ModelPlacement placement;
    {
        Charge charge(t.mapper);
        placement =
            sched::makeRoundRobinPlacement(sim_llm, config.numDimms);
    }
    const std::uint64_t attn_values = llm.hidden + 2ULL * llm.kvDim();
    const std::uint64_t mlp_values =
        static_cast<std::uint64_t>(llm.mlpMatrices) * llm.hidden;

    if (config.sched.offlinePartition) {
        sched::PartitionProblem problem;
        Seconds gpu_per_attn = 0.0;
        Seconds gpu_per_mlp = 0.0;
        Seconds dimm_per_attn = 0.0;
        Seconds dimm_per_mlp = 0.0;
        {
            Charge charge(t.device);
            problem.syncTime =
                runtime::activationSyncTime(pcie, llm, request.batch);
            auto gpu_marginal = [&](std::uint64_t values) {
                return gpu_model.sparseGemv(1025, values,
                                            request.batch) -
                       gpu_model.sparseGemv(1024, values,
                                            request.batch);
            };
            auto dimm_marginal = [&](std::uint64_t values,
                                     double scale) {
                return ndp.sparseGemv(1025, values, request.batch,
                                      scale)
                           .total -
                       ndp.sparseGemv(1024, values, request.batch,
                                      scale)
                           .total;
            };
            gpu_per_attn = gpu_marginal(attn_values);
            gpu_per_mlp = gpu_marginal(mlp_values);
            dimm_per_attn =
                dimm_marginal(attn_values, trace.attn(0).computeScale);
            dimm_per_mlp =
                dimm_marginal(mlp_values, trace.mlp(0).computeScale);
        }
        problem.gpuBudget = sim_gpu_budget;
        problem.dimmBudgets.assign(
            config.numDimms,
            static_cast<Bytes>(
                0.95 * static_cast<double>(config.dimm.dimm.capacity) /
                layer_scale));
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            sched::BlockProblem attn_block;
            attn_block.frequency = attn_freq[l];
            attn_block.neuronBytes = llm.attnNeuronBytes();
            attn_block.gpuTimePerNeuron = gpu_per_attn;
            attn_block.dimmTimePerNeuron = dimm_per_attn;
            problem.blocks.push_back(std::move(attn_block));

            sched::BlockProblem mlp_block;
            mlp_block.frequency = mlp_freq[l];
            mlp_block.neuronBytes = llm.mlpNeuronBytes();
            mlp_block.gpuTimePerNeuron = gpu_per_mlp;
            mlp_block.dimmTimePerNeuron = dimm_per_mlp;
            problem.blocks.push_back(std::move(mlp_block));
        }
        sched::PartitionResult partition;
        {
            Charge charge(t.ilp);
            partition = sched::IlpPartitioner().solve(problem);
        }
        Charge charge(t.mapper);
        sched::NeuronMapper::applyPartition(placement,
                                            partition.assignment);
    } else {
        Rng rng(request.seed ^ 0xfeedface);
        const double share = std::min(
            1.0, static_cast<double>(sim_gpu_budget) /
                     static_cast<double>(
                         static_cast<Bytes>(sim_layers) *
                         llm.sparseBytesPerLayer()));
        auto fill_random = [&](sched::BlockPlacement &block) {
            const auto target =
                static_cast<std::uint32_t>(share * block.neurons());
            std::vector<std::uint32_t> order(block.neurons());
            std::iota(order.begin(), order.end(), 0);
            for (std::uint32_t i = block.neurons(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            for (std::uint32_t k = 0; k < target; ++k)
                block.setOnGpu(order[k], true);
        };
        Charge charge(t.mapper);
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            fill_random(placement.attn[l]);
            fill_random(placement.mlp[l]);
        }
    }

    // Prompting stage.
    const Bytes non_resident =
        llm.totalBytes() > residency.denseBytes
            ? llm.totalBytes() - residency.denseBytes
            : 0;
    {
        Charge charge(t.device);
        Seconds prefill = runtime::streamingPrefill(
            config, llm, request.batch, request.promptTokens,
            non_resident, true, true);
        prefill += pcie.transferTime(static_cast<Bytes>(request.batch) *
                                     request.promptTokens *
                                     llm.kvBytesPerToken());
        out.prefill = prefill;
        out.breakdown.prefill = prefill;
    }

    // Token generation.
    double window_build = 0.0;
    const auto build_windows = [&] {
        Charge charge(window_build);
        return sched::WindowSet(
            sim_layers, trace.attn(0).neurons(), trace.mlp(0).neurons(),
            config.numDimms, config.sched.windowSize,
            sched::WindowSet::Policy{config.sched.windowRebalance,
                                     config.sched.oracleRebalance});
    };
    sched::WindowSet windows = build_windows();
    t.window += window_build;

    const std::uint32_t kv_heads_per_dimm =
        (llm.kvHeads + config.numDimms - 1) / config.numDimms;
    const std::uint32_t gqa_group =
        llm.kvHeads > 0 ? llm.heads / llm.kvHeads : 1;
    Seconds sync = 0.0;
    Seconds lm_head = 0.0;
    {
        Charge charge(t.device);
        sync = runtime::activationSyncTime(pcie, llm, request.batch);
        lm_head = runtime::lmHeadTime(gpu_model, llm, request.batch);
    }
    const Seconds predictor_cost =
        static_cast<double>(layers) *
        static_cast<double>(llm.attnNeuronsPerLayer() +
                            llm.mlpNeuronsPerLayer()) *
        config.predictorPerNeuron;

    double pipeline_build = 0.0;
    const auto build_pipeline = [&] {
        Charge charge(pipeline_build);
        return runtime::DecodePipeline(config.numDimms);
    };
    runtime::DecodePipeline pipeline = build_pipeline();
    t.pipeline += pipeline_build;

    std::vector<std::uint8_t> attn_pred;
    std::vector<std::uint8_t> mlp_pred;
    std::vector<std::uint32_t> hot_scores;
    std::vector<Seconds> lanes;

    // Per-DIMM sparse-GEMV lane times, charged to the device models.
    const auto lane_times = [&](const std::vector<std::uint64_t> &rows,
                                std::uint64_t row_values,
                                double compute_scale) {
        Charge charge(t.device);
        lanes.clear();
        for (const auto count : rows)
            lanes.push_back(ndp.sparseGemv(count, row_values,
                                           request.batch, compute_scale)
                                .total);
    };

    for (std::uint32_t k = 0; k < request.generateTokens; ++k) {
        {
            Charge charge(t.trace);
            trace.nextToken();
        }
        const std::uint64_t seq = request.promptTokens + k;
        {
            Charge charge(t.pipeline);
            pipeline.beginToken();
        }
        for (std::uint32_t l = 0; l < sim_layers; ++l) {
            const sparsity::BlockTrace &attn_actual = trace.attn(l);
            const sparsity::BlockTrace &mlp_actual = trace.mlp(l);
            const std::vector<std::uint8_t> *attn_parent =
                l == 0 ? nullptr : &trace.mlp(l - 1).mask;
            {
                Charge charge(t.predictor);
                predictor.attn(l).predict(attn_parent, attn_pred);
                predictor.mlp(l).predict(&attn_actual.mask, mlp_pred);
            }

            const LocationCounts qkv_counts =
                countLocations(attn_pred, placement.attn[l]);
            Seconds qkv_gpu = 0.0;
            {
                Charge charge(t.device);
                qkv_gpu = gpu_model.sparseGemv(qkv_counts.gpu,
                                               attn_values,
                                               request.batch);
            }
            lane_times(qkv_counts.dimm, attn_values,
                       attn_actual.computeScale);
            {
                Charge charge(t.pipeline);
                pipeline.splitStage(CostCategory::Fc, qkv_gpu, sync,
                                    sync, lanes);
            }

            Seconds attention = 0.0;
            {
                Charge charge(t.device);
                attention = ndp.attention(request.batch,
                                          kv_heads_per_dimm,
                                          llm.headDim(), seq, gqa_group)
                                .total;
            }
            {
                Charge charge(t.pipeline);
                pipeline.ndpStage(CostCategory::Attention, attention);
                pipeline.pcieStage(sync);
            }
            Seconds projection = 0.0;
            {
                Charge charge(t.device);
                projection = gpu_model.gemm(request.batch, llm.hidden,
                                            llm.hidden);
            }
            {
                Charge charge(t.pipeline);
                pipeline.gpuStage(CostCategory::Fc, projection);
            }

            if (config.sched.onlineAdjustment) {
                const bool token = config.sched.tokenWisePrediction;
                const bool layer = config.sched.layerWisePrediction;
                sched::AdjustmentResult adj_attn;
                sched::AdjustmentResult adj_mlp;
                {
                    Charge charge(t.predictor);
                    predictor.attn(l).hotScores(attn_parent, token,
                                                layer, hot_scores);
                }
                {
                    Charge charge(t.mapper);
                    adj_attn = sched::NeuronMapper::adjustBlock(
                        placement.attn[l], hot_scores,
                        llm.attnNeuronBytes());
                }
                {
                    Charge charge(t.predictor);
                    predictor.mlp(l).hotScores(&attn_actual.mask, token,
                                               layer, hot_scores);
                }
                {
                    Charge charge(t.mapper);
                    adj_mlp = sched::NeuronMapper::adjustBlock(
                        placement.mlp[l], hot_scores,
                        llm.mlpNeuronBytes());
                }
                const Bytes upload =
                    adj_attn.pcieBytes + adj_mlp.pcieBytes;
                if (upload > 0) {
                    Seconds transfer = 0.0;
                    {
                        Charge charge(t.device);
                        transfer = pcie.transferTime(upload);
                    }
                    Charge charge(t.pipeline);
                    pipeline.shadowedPcie(transfer);
                }
            }

            sched::WindowSet::RebalanceOutcome rebalance;
            {
                Charge charge(t.window);
                windows.observe(l, attn_actual.activeList,
                                mlp_actual.activeList);
                rebalance = windows.maybeRebalance(
                    l, placement.attn[l], placement.mlp[l],
                    llm.attnNeuronBytes(), llm.mlpNeuronBytes(),
                    link_net);
            }
            {
                Charge charge(t.pipeline);
                pipeline.shadowedDimmLink(rebalance.migrationTime);
            }

            const LocationCounts mlp_counts =
                countLocations(mlp_pred, placement.mlp[l]);
            Seconds mlp_gpu = 0.0;
            {
                Charge charge(t.device);
                mlp_gpu = gpu_model.sparseGemv(mlp_counts.gpu,
                                               mlp_values,
                                               request.batch);
            }
            lane_times(mlp_counts.dimm, mlp_values,
                       mlp_actual.computeScale);
            {
                Charge charge(t.pipeline);
                pipeline.splitStage(CostCategory::Fc, mlp_gpu, sync,
                                    sync, lanes);
            }

            Seconds merge = 0.0;
            {
                Charge charge(t.device);
                merge = ndp.merge(static_cast<Bytes>(request.batch) *
                                  llm.hidden * kFp16Bytes)
                            .total;
            }
            {
                Charge charge(t.pipeline);
                pipeline.ndpStage(CostCategory::Others, merge);
            }
            Charge charge(t.predictor);
            predictor.attn(l).update(attn_actual.mask);
            predictor.mlp(l).update(mlp_actual.mask);
        }
        Charge charge(t.pipeline);
        pipeline.endToken(layer_scale);
        pipeline.addSerial(CostCategory::Others, lm_head);
        pipeline.addSerial(CostCategory::Predictor, predictor_cost);
    }

    Charge charge(t.pipeline);
    out.generate = pipeline.totalTime();
    out.breakdown += pipeline.accumulated().toBreakdown();
    return out;
}

bool
sameBreakdown(const runtime::LatencyBreakdown &a,
              const runtime::LatencyBreakdown &b)
{
    return a.fc == b.fc && a.attention == b.attention &&
           a.predictor == b.predictor && a.prefill == b.prefill &&
           a.communication == b.communication && a.others == b.others;
}

} // namespace

StageProbeResult
runStageProbe(std::uint64_t seed, Size size, Tracer &tracer)
{
    StageProbeResult result;
    const SystemConfig config = bench::benchPlatform();
    const std::vector<const char *> models =
        size == Size::Full
            ? std::vector<const char *>{"OPT-13B", "LLaMA2-70B"}
            : std::vector<const char *>{"OPT-13B"};
    const std::vector<std::uint32_t> batches =
        size == Size::Full ? std::vector<std::uint32_t>{1, 16}
                           : std::vector<std::uint32_t>{1};
    for (const char *model : models) {
        for (const std::uint32_t batch : batches) {
            runtime::InferenceRequest request =
                bench::benchRequest(model, batch);
            request.seed = seed;
            auto engine =
                runtime::makeEngine(runtime::EngineKind::Hermes, config);
            runtime::InferenceResult reference;
            {
                ScopedSpan span(tracer, "probe.engine.hermes", batch);
                const double start = wallNow();
                reference = engine->run(request);
                result.engineSeconds += wallNow() - start;
            }
            Replayed replay;
            {
                ScopedSpan span(tracer, "probe.stages", batch);
                replay = replayHermes(config, request, result.stages);
            }
            const bool same =
                reference.supported &&
                replay.prefill == reference.prefillTime &&
                replay.generate == reference.generateTime &&
                sameBreakdown(replay.breakdown, reference.breakdown);
            if (!same) {
                char label[96];
                std::snprintf(label, sizeof(label), "%s b=%u", model,
                              batch);
                result.mismatches.push_back(label);
            }
        }
    }
    return result;
}

} // namespace perfbench
