#pragma once
/// \file layers.hpp
/// \brief The harness's timed wrappers around greensph's public calls,
///        shared by the workloads.

#include "core/policy.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"

#include <array>
#include <string>
#include <vector>

namespace perfbench {

class Metrics;

/// Host time of physics recording, split by SPH function.
struct SphTimes {
    std::array<double, gsph::sph::kSphFunctionCount> fn_s{};
    double decomposition_s = 0.0; ///< the SFC halo analysis after the steps
    double total_s = 0.0;
    double particle_steps = 0.0;
    double neighbors_per_particle = 0.0; ///< last recording's final state
    /// Fills the sph.* per-layer metrics.
    void report(Metrics& metrics) const;
};

/// Element-wise median over the traced iterations' recordings.
SphTimes median_of(const std::vector<SphTimes>& samples);

/// The same trace sim::record_trace returns, recorded through the public
/// SphSimulation::step observer so each function's host time is measured.
gsph::sim::WorkloadTrace record_observed(const gsph::sim::WorkloadSpec& spec,
                                         SphTimes& times);

/// Records through sim::record_trace, or through record_observed into
/// `times` when it is non-null; either way inside an "sph" span.
gsph::sim::WorkloadTrace record(const gsph::sim::WorkloadSpec& spec, SphTimes* times);

/// Host time spent inside the hooks a policy installs, and (when
/// `per_call` is set) the before->after-hook time of every (rank, function)
/// call, which on the serial driver path is the gpusim execution.
struct HookStats {
    bool per_call = false;
    double hook_s = 0.0;
    long hook_calls = 0;
    std::vector<double> call_us;
    std::vector<double> before_end_s; ///< per rank, internal
};

/// core::run_with_policy with the policy's hooks wrapped to fill `stats`.
gsph::sim::RunResult run_policy_timed(const gsph::sim::SystemSpec& system,
                                      const gsph::sim::WorkloadTrace& trace,
                                      gsph::sim::RunConfig config,
                                      gsph::core::FrequencyPolicy& policy,
                                      HookStats& stats);

/// Content hash of a trace (its canonical serialization).
std::string trace_digest(const gsph::sim::WorkloadTrace& trace);
/// Bit-exact makespan, GPU and node energy, node and GPU EDP of a run.
std::string run_digest(const gsph::sim::RunResult& result);

/// Median host time to build and join a util::ThreadPool of `threads`.
double pool_build_us(int threads, int samples);

} // namespace perfbench
