/**
 * @file
 * The Hermes inference engine (Sec. IV, Fig. 6).
 *
 * Workflow per generated token, per transformer layer:
 *  1. the lightweight predictor forecasts the activated neurons;
 *  2. QKV generation splits between the GPU (hot neurons) and the
 *     NDP-DIMMs (cold neurons); the layer completes when the slower
 *     side finishes (Eqs. 1-3);
 *  3. attention runs on the NDP-DIMMs next to the KV cache;
 *  4. the dense projection runs on the GPU while the idle DIMMs and
 *     the idle PCIe link absorb the hot/cold swaps (Sec. IV-C2) and
 *     the window-based cold-neuron rebalancing (Sec. IV-D);
 *  5. the MLP block splits like QKV; results merge on the DIMMs.
 *
 * The prompting stage streams non-resident weights once and runs on
 * the GPU, FlexGen-style (Sec. IV-A2).
 *
 * A run is a plan plus a price.  The plan holds everything that does
 * not read the prompt length: the activation trace, the offline
 * profiling and partition (Sec. IV-B), and the whole decode
 * trajectory of the online scheduler (Sec. IV-C/D), which follows the
 * activation trace and counts tokens, never time.  It is kept as the
 * context-free stage inputs per token and layer.  Pricing adds the
 * prompting stage and replays those stages on the decode pipeline
 * with the attention stage at the request's context.  The engine
 * memoizes its last plan, so re-running a request at another context
 * (the serving layer's cost buckets) only re-prices it.
 *
 * Scheduling toggles in SystemConfig::sched select the Fig. 13
 * ablation variants (Hermes-random / -partition / -token- /
 * -layer-adjustment / -adjustment / full).
 */

#ifndef HERMES_RUNTIME_HERMES_ENGINE_HH
#define HERMES_RUNTIME_HERMES_ENGINE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "gpu/kernels.hh"
#include "interconnect/pcie.hh"
#include "ndp/ndp_dimm.hh"
#include "runtime/engine.hh"
#include "runtime/system_config.hh"

namespace hermes::runtime {

/**
 * Full Hermes system: GPU + NDP-DIMMs + scheduler.  `run()` is a pure
 * function of the request and the configuration; the memoized plan
 * and the device models' bandwidth memo make an instance not
 * thread-safe, so use one engine per thread.
 */
class HermesEngine : public InferenceEngine
{
  public:
    explicit HermesEngine(SystemConfig config,
                          std::string name = "Hermes");

    std::string name() const override { return name_; }

    bool supports(const InferenceRequest &request) const override;

    InferenceResult run(const InferenceRequest &request) override;

    const SystemConfig &config() const { return config_; }

  private:
    /** Context-free inputs of one layer's decode stages. */
    struct LayerStep
    {
        Seconds qkvGpu = 0.0;
        std::vector<Seconds> qkvLanes;
        Seconds promotion = 0.0; ///< Hot-neuron upload over PCIe.
        Seconds migration = 0.0; ///< Window rebalancing, DIMM-links.
        Seconds mlpGpu = 0.0;
        std::vector<Seconds> mlpLanes;
    };

    /** Everything a run computes without reading promptTokens. */
    struct Plan
    {
        /** generateTokens x simulated layers, token-major. */
        std::vector<LayerStep> steps;
        std::uint32_t simLayers = 0;
        double layerScale = 1.0;
        Bytes nonResident = 0; ///< Weights streamed during prompting.
        Seconds sync = 0.0;
        Seconds projection = 0.0;
        Seconds merge = 0.0;
        Seconds lmHead = 0.0;
        Seconds predictorScan = 0.0; ///< Host-side, per token.
        StatSet stats;
    };

    /** Build the plan of `request`, whose promptTokens is ignored. */
    Plan plan(const InferenceRequest &request);

    /** Prompting stage plus the plan's decode replay at context. */
    InferenceResult price(const Plan &plan,
                          const InferenceRequest &request);

    SystemConfig config_;
    std::string name_;
    gpu::GpuModel gpu_;
    interconnect::PcieBus pcie_;
    ndp::NdpDimm ndp_; ///< Memoizes its DRAM bandwidth probes.

    /** The last plan and its request, promptTokens zeroed. */
    std::optional<Plan> plan_;
    InferenceRequest planKey_;
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_HERMES_ENGINE_HH
