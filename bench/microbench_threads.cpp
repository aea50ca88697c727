/// Host-side cost of two paths that run on one thread.
///
/// Two subjects:
///   - an 8-rank instrumented run under the native-DVFS governor: the
///     driver steps its ranks one after another on the calling thread,
///   - a 7-frequency KernelTuner sweep of one heavy SPH kernel: the tuner
///     prices its clocks one after another on the calling thread.
///
/// Neither uses worker threads: a rank's kernel or a configuration costs
/// well under a microsecond of host time, less than handing it to a
/// worker.  These numbers are the yardstick for any proposal to run
/// either path on threads.

#include "core/policy.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"
#include "tuning/kernel_tuner.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace gsph;

const sim::WorkloadTrace& shared_trace()
{
    static const sim::WorkloadTrace trace = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = 4;
        spec.real_nside = 10;
        return sim::record_trace(spec);
    }();
    return trace;
}

void BM_RunInstrumented(benchmark::State& state)
{
    const auto& trace = shared_trace();
    sim::RunConfig cfg;
    cfg.n_ranks = 8;
    cfg.setup_s = 0.0;
    cfg.teardown_s = 0.0;
    cfg.bind_nvml = false; // no NVML hooks; keeps concurrent runs legal
    // Native DVFS re-prices the governor every 10 ms tick: the dominant
    // host cost scales with simulated time, i.e. with rank count.
    cfg.clock_policy = gpusim::ClockPolicy::kNativeDvfs;
    for (auto _ : state) {
        auto result = sim::run_instrumented(sim::mini_hpc(), trace, cfg);
        benchmark::DoNotOptimize(result);
    }
}

void BM_TunerSweep(benchmark::State& state)
{
    const auto& trace = shared_trace();
    const auto spec = sim::mini_hpc().gpu;
    const auto band = tuning::paper_frequency_band(spec);
    // The heaviest per-step kernel: MomentumEnergy.
    gpusim::KernelWork kernel;
    for (const auto& fr : trace.steps.front().functions) {
        if (fr.fn == sph::SphFunction::kMomentumEnergy) {
            kernel = gpusim::scaled(fr.work, trace.work_scale());
            break;
        }
    }
    tuning::KernelTuner tuner(spec, /*iterations=*/7);
    for (auto _ : state) {
        auto result = tuner.tune_kernel(
            "MomentumEnergy",
            [&kernel](gpusim::GpuDevice& dev) { dev.execute(kernel); },
            kernel.threads, {{"core_freq_mhz", band}});
        benchmark::DoNotOptimize(result);
    }
}

} // namespace

BENCHMARK(BM_RunInstrumented)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TunerSweep)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
