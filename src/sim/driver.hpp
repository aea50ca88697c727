#pragma once
/// \file driver.hpp
/// \brief The instrumented time-stepping driver.
///
/// Replays a WorkloadTrace on a simulated cluster: every rank drives one
/// GPU; per-function hooks fire before/after each function exactly where
/// SPH-EXA's profiling hooks sit (the paper's §III-B), which is where the
/// core library attaches energy probes and the ManDyn frequency controller.
///
/// The run reproduces the full job lifecycle the paper's Fig. 3 depends on:
/// Slurm accounting starts at job start, a setup phase (job launch +
/// allocation, GPUs idle) precedes the loop, and PMT-style measurement
/// covers only the time-stepping loop.

#include "checkpoint/checkpoint.hpp"
#include "gpusim/device.hpp"
#include "sim/comm.hpp"
#include "sim/node.hpp"
#include "sim/workload.hpp"
#include "slurmsim/slurm.hpp"
#include "util/trace.hpp"

#include <array>
#include <functional>
#include <string>

namespace gsph::sim {

struct RunConfig {
    int n_ranks = 1;
    int n_steps = -1; ///< -1: use the trace's step count
    /// Read by nothing: ranks step serially; kept only because perfbench sets it.
    int n_threads = 0;
    /// Job launch + application initialization before the loop (GPUs idle);
    /// Slurm accounts for it, PMT does not (paper §IV-A).
    double setup_s = 45.0;
    double teardown_s = 2.0;
    /// Per-rank, per-step multiplicative work jitter (load imbalance).
    double rank_jitter = 0.02;
    gpusim::ClockPolicy clock_policy = gpusim::ClockPolicy::kLockedAppClock;
    /// Static application clock; <= 0 keeps the system default (baseline).
    double app_clock_mhz = -1.0;
    bool enable_rank0_trace = false; ///< record rank-0 clock/power traces
    /// Bind the cluster's devices to the NVML layer for the duration of the
    /// run (required by NVML-based hooks and PMT's nvml back-end).
    bool bind_nvml = true;

    // --- checkpoint/restart (the CLI's --checkpoint-every / --resume) ------
    /// Write a checkpoint after every N completed steps (0: off).  The final
    /// step is never checkpointed — a run that finishes needs no resume.
    int checkpoint_every = 0;
    /// Directory for checkpoint files; required when checkpoint_every > 0.
    std::string checkpoint_dir;
    /// hex64 canonical-config hash stored in each manifest and verified on
    /// resume (empty: no cross-run identity check).
    std::string config_hash;
    /// Resume from this validated snapshot: all simulated state (devices,
    /// counters, accounting, aggregates) is restored before the first
    /// executed step, making the run bit-identical to one never interrupted.
    /// Not owned; must outlive run_instrumented.
    const checkpoint::Snapshot* resume = nullptr;
    /// Extra save/restore participants (policy internals, fault-injector
    /// RNG, metrics, tracers) snapshotted at every checkpoint and restored
    /// on resume.  Not owned; must outlive run_instrumented.
    const checkpoint::StateRegistry* checkpoint_participants = nullptr;
};

/// Hooks fire on the calling thread, one rank at a time and in rank order:
/// before_function(r), the function's kernels on rank r, after_function(r),
/// then rank r + 1.  A hook may therefore read what the previous rank's
/// after-hook wrote within the same call, and needs no locking.
struct RunHooks {
    /// Fired before a function executes on a rank; the ManDyn controller
    /// sets application clocks here.
    std::function<void(int rank, gpusim::GpuDevice&, sph::SphFunction)> before_function;
    /// Fired after the function's kernels (and attributed communication)
    /// completed on the rank.
    std::function<void(int rank, gpusim::GpuDevice&, sph::SphFunction,
                       const gpusim::KernelResult&)>
        after_function;
    std::function<void(int step)> after_step;
};

struct FunctionAggregate {
    double time_s = 0.0;         ///< mean over ranks of summed durations
    double gpu_energy_j = 0.0;   ///< summed over ranks
    double cpu_energy_j = 0.0;   ///< apportioned by duration share
    double other_energy_j = 0.0; ///< apportioned by duration share
    long calls = 0;
    double clock_time_product = 0.0; ///< sum of mean_clock * duration

    double mean_clock_mhz() const
    {
        return time_s > 0.0 ? clock_time_product / time_s : 0.0;
    }
};

struct RunResult {
    std::string system_name;
    std::string workload_name;
    int n_ranks = 0;
    int n_steps = 0;

    double loop_start_s = 0.0;
    double loop_end_s = 0.0;
    double total_wall_s = 0.0;
    double makespan_s() const { return loop_end_s - loop_start_s; }

    std::array<FunctionAggregate, sph::kSphFunctionCount> per_function{};

    // Ground-truth loop-window energies (joules, summed over all nodes).
    double gpu_energy_j = 0.0;
    double cpu_energy_j = 0.0;    ///< CPU package
    double memory_energy_j = 0.0; ///< node DRAM
    double other_energy_j = 0.0;  ///< aux (NIC/fans/board)
    double node_energy_j = 0.0;

    // Instrument readings.
    double pmt_loop_energy_j = 0.0; ///< node sensor over the loop window
    slurmsim::JobRecord slurm;      ///< whole-job accounting

    util::TimeSeries rank0_clock_trace; ///< MHz vs device time (Fig. 9)
    std::vector<double> step_start_times; ///< rank-0 step boundaries
    int checkpoints_written = 0; ///< checkpoints committed during this run

    double edp() const { return node_energy_j * makespan_s(); }
    double gpu_edp() const { return gpu_energy_j * makespan_s(); }

    const FunctionAggregate& fn(sph::SphFunction f) const
    {
        return per_function[static_cast<std::size_t>(f)];
    }
};

/// Execute `trace` on `system` with `config.n_ranks` ranks.
RunResult run_instrumented(const SystemSpec& system, const WorkloadTrace& trace,
                           const RunConfig& config, const RunHooks& hooks = {});

/// Deterministic per-(rank, step, call) load-imbalance jitter in
/// [1 - j, 1 + j].  The three indices are mixed through successive
/// SplitMix64 rounds, so streams stay decorrelated for any index magnitude
/// (the earlier shift-XOR packing collided once call >= 2^16 or
/// step >= 2^24).  Exposed for the golden-value regression test.
double work_jitter(double j, int rank, int step, int call);

} // namespace gsph::sim
