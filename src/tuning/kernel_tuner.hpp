#pragma once
/// \file kernel_tuner.hpp
/// \brief KernelTuner-equivalent frequency sweep (the paper's §III-C).
///
/// Mirrors KernelTuner's tune_kernel(kernel_name, kernel_source,
/// problem_size, params) surface: the "kernel source" is a launcher callback
/// that executes the kernel once on a device, `params` holds the tunable
/// lists (here the device-wise "core_freq_mhz" parameter the paper sweeps),
/// and the tuner brute-forces the search space, measuring time-to-solution
/// and energy per configuration through the NVML sensor surface.
///
/// A higher-level helper sweeps every SPH function of a recorded workload
/// trace and returns the best-EDP clock table (Fig. 2's producer).

#include "core/controller.hpp"
#include "core/frequency_table.hpp"
#include "gpusim/device.hpp"
#include "sim/workload.hpp"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace gsph::tuning {

/// One evaluated configuration.
struct TuneConfig {
    std::map<std::string, double> params;
    double time_s = 0.0;
    double energy_j = 0.0;
    double edp = 0.0;
};

enum class Objective { kTime, kEnergy, kEdp, kEd2p };

/// Search strategy for the offline sweep (mirror of the online tuner's
/// core::TuneStrategy, kept separate to avoid a layering knot):
///   kExhaustive  price every frequency (KernelTuner's brute_force)
///   kModel       probe 3 clocks, fit the analytic freq model
///                (tuning/freq_model.hpp), confirm the predicted optimum
///                with one full-rate sample, fall back to exhaustive when
///                the fit is degenerate or the confirmation misses
enum class SweepStrategy { kExhaustive, kModel };

const char* to_string(SweepStrategy strategy);
/// Parses "exhaustive"/"model" (throws std::invalid_argument otherwise).
SweepStrategy sweep_strategy_from_string(const std::string& name);

struct TuneResult {
    std::string kernel_name;
    std::vector<TuneConfig> configs; ///< evaluation order
    /// Model-strategy choice inside `configs` (-1: none, use best()).
    /// Exhaustive results leave it -1; the model path pins its confirmed
    /// configuration here so noisy single-iteration probes can never
    /// shadow the confirmed optimum.
    int chosen_index = -1;
    /// Total kernel launches spent (warmups included) — the sweep's cost.
    long launches = 0;
    bool model_fallback = false; ///< model path degraded to exhaustive

    const TuneConfig& best(Objective objective) const;
    /// The model-chosen config when set, best(objective) otherwise.
    const TuneConfig& chosen_or_best(Objective objective) const;
};

/// Knobs of the model-steered search (probe / fit / confirm).
struct ModelSweepOptions {
    /// Measured launches per probe clock (each probe also pays one warmup).
    /// Probes only seed the fit, so one launch is enough; the confirmation
    /// runs at the tuner's full iteration count.
    int probe_iterations = 1;
    /// Accept the confirmation when measured EDP is within this relative
    /// tolerance of the model's prediction; otherwise fall back to the
    /// exhaustive sweep (correctness is never traded for speed).
    double confirm_tolerance = 0.10;
};

class KernelTuner {
public:
    /// Executes the kernel under test once on the given device.
    using Launcher = std::function<void(gpusim::GpuDevice&)>;

    /// `spec`: the device model the sweep runs on; `iterations`: launches
    /// per configuration (KernelTuner benchmarks each configuration several
    /// times and averages).  Configurations are priced in order on the
    /// calling thread, each on its own fresh device: a simulated
    /// configuration costs well under a microsecond of host time, less
    /// than handing it to a worker thread.
    explicit KernelTuner(gpusim::GpuDeviceSpec spec, int iterations = 7);

    /// Brute-force search over the values in `params`.  The only
    /// recognized parameter is "core_freq_mhz", applied through
    /// nvmlDeviceSetApplicationsClocks-equivalent clock locking (this
    /// reproduction only tunes the clock, matching the paper's usage); any
    /// other key throws std::invalid_argument naming the key, instead of
    /// silently pricing identical configurations, and an empty `params`
    /// (nothing to sweep) throws too.  `result.configs` keeps the order of
    /// the "core_freq_mhz" list.
    TuneResult tune_kernel(const std::string& kernel_name, const Launcher& launcher,
                           std::int64_t problem_size,
                           const std::map<std::string, std::vector<double>>& params);

    /// Model-steered variant of tune_kernel for the one tunable this
    /// reproduction sweeps ("core_freq_mhz"): probe the band edges and
    /// midpoint, fit the analytic freq model (freq_model.hpp), confirm the
    /// predicted optimum with one full-rate measurement, and return a
    /// result whose `chosen_index` points at the confirmed configuration.
    /// Costs 3 probes + 1 confirmation instead of `frequencies.size()` full
    /// configurations (14 vs 56 launches for the default 7-point band /
    /// 7-iteration tuner: 25%).  Degenerate fits, failed confirmations, and
    /// bands too small to probe fall back to the exhaustive sweep with
    /// `model_fallback` set; `launches` always reports the true total cost.
    TuneResult tune_kernel_model(const std::string& kernel_name,
                                 const Launcher& launcher, std::int64_t problem_size,
                                 const std::vector<double>& frequencies,
                                 const ModelSweepOptions& options = {});

    const gpusim::GpuDeviceSpec& spec() const { return spec_; }
    int iterations() const { return iterations_; }

private:
    TuneConfig price_clock(const Launcher& launcher, double core_mhz,
                           int iterations) const;

    gpusim::GpuDeviceSpec spec_;
    int iterations_;
};

/// The paper's frequency band: 1005..1410 MHz in 7 steps (A100); "we have
/// not experimented with frequencies below 1005 MHz".
std::vector<double> paper_frequency_band(const gpusim::GpuDeviceSpec& spec);

/// Per-function sweep outcome.
struct FunctionSweepEntry {
    sph::SphFunction fn;
    double best_edp_mhz = 0.0;
    double best_energy_mhz = 0.0;
    TuneResult result;
};

/// One function's kernel-under-test, distilled from a trace: the per-step
/// work averaged over the trace's steps and scaled to its particles-per-GPU.
struct SweepCandidate {
    sph::SphFunction fn;
    gpusim::KernelWork kernel;
};

/// Everything sweep_sph_functions needs besides the trace and device.
struct SweepOptions {
    std::vector<double> frequencies; ///< empty: paper_frequency_band(spec)
    /// Read by nothing: sweeps run serially; kept only because perfbench sets it.
    int n_threads = 1;
    SweepStrategy strategy = SweepStrategy::kExhaustive;
    int iterations = 7; ///< measured launches per full-rate configuration
    ModelSweepOptions model;
};

/// The trace -> kernels-under-test distillation behind sweep_sph_functions,
/// exposed so the tuning service can record one span per function's sweep.
/// Returns candidates in function order; functions with no recorded work
/// are skipped.  Throws on an empty trace.
std::vector<SweepCandidate> sweep_candidates(const sim::WorkloadTrace& trace);

/// Sweep a single candidate.  Deterministic in (candidate, spec, options).
FunctionSweepEntry sweep_one_function(const SweepCandidate& candidate,
                                      const gpusim::GpuDeviceSpec& spec,
                                      const SweepOptions& options);

/// Sweep every SPH function that appears in `trace` over
/// `options.frequencies` (empty: paper band), with the per-step work of
/// that function as the kernel under test, scaled to the trace's
/// particles-per-GPU.  Returns the per-function sweep results (Fig. 2) in
/// function order; the functions are swept one after another on the
/// calling thread.
std::vector<FunctionSweepEntry> sweep_sph_functions(const sim::WorkloadTrace& trace,
                                                    const gpusim::GpuDeviceSpec& spec,
                                                    const SweepOptions& options = {});

/// Reduce a sweep to the ManDyn clock table (best EDP per function).
core::FrequencyTable table_from_sweep(const std::vector<FunctionSweepEntry>& sweep,
                                      double default_mhz);

/// Decision provenance for the controller built from the same sweep: the
/// candidate set the table chose from and the sweep's best per-call EDP per
/// function, so every audited clock change carries its predicted EDP (the
/// ledger later joins the realized EDP for prediction-error analysis).
core::ControllerAuditInfo
audit_info_from_sweep(const std::vector<FunctionSweepEntry>& sweep);

} // namespace gsph::tuning
