/// Serial-vs-parallel determinism: the parallel execution engine promises
/// bit-identical results for any thread count.  Every test here runs the
/// same work at n_threads = 1 (the exact legacy path) and n_threads = 8
/// (more threads than most hosts have cores — the pool machinery is
/// exercised regardless) and compares with operator== on doubles.  The
/// driver steps its ranks serially for every n_threads; its tests pin that
/// a thread count changes neither its results nor its hook order.

#include "core/policy.hpp"
#include "core/profiler.hpp"
#include "sim/driver.hpp"
#include "telemetry/run_tracer.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace gsph {
namespace {

const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 20e6;
        spec.n_steps = 3;
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return t;
}

void expect_identical(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.n_ranks, b.n_ranks);
    EXPECT_EQ(a.n_steps, b.n_steps);
    // Bit-identical, not merely close: EXPECT_DOUBLE_EQ demands equal
    // doubles within 0 ULP when the values match exactly, but use EQ on
    // the raw values to make the contract explicit.
    EXPECT_EQ(a.loop_start_s, b.loop_start_s);
    EXPECT_EQ(a.loop_end_s, b.loop_end_s);
    EXPECT_EQ(a.total_wall_s, b.total_wall_s);
    EXPECT_EQ(a.gpu_energy_j, b.gpu_energy_j);
    EXPECT_EQ(a.cpu_energy_j, b.cpu_energy_j);
    EXPECT_EQ(a.memory_energy_j, b.memory_energy_j);
    EXPECT_EQ(a.other_energy_j, b.other_energy_j);
    EXPECT_EQ(a.node_energy_j, b.node_energy_j);
    EXPECT_EQ(a.pmt_loop_energy_j, b.pmt_loop_energy_j);
    EXPECT_EQ(a.slurm.consumed_energy_j, b.slurm.consumed_energy_j);
    ASSERT_EQ(a.step_start_times.size(), b.step_start_times.size());
    for (std::size_t i = 0; i < a.step_start_times.size(); ++i) {
        EXPECT_EQ(a.step_start_times[i], b.step_start_times[i]);
    }
    for (std::size_t f = 0; f < static_cast<std::size_t>(sph::kSphFunctionCount); ++f) {
        const auto& fa = a.per_function[f];
        const auto& fb = b.per_function[f];
        EXPECT_EQ(fa.time_s, fb.time_s) << "fn " << f;
        EXPECT_EQ(fa.gpu_energy_j, fb.gpu_energy_j) << "fn " << f;
        EXPECT_EQ(fa.cpu_energy_j, fb.cpu_energy_j) << "fn " << f;
        EXPECT_EQ(fa.clock_time_product, fb.clock_time_product) << "fn " << f;
        EXPECT_EQ(fa.calls, fb.calls) << "fn " << f;
    }
}

sim::RunConfig config(int n_threads, int n_ranks = 4)
{
    sim::RunConfig cfg;
    cfg.n_ranks = n_ranks;
    cfg.n_threads = n_threads;
    cfg.setup_s = 2.0;
    cfg.rank_jitter = 0.02;
    return cfg;
}

TEST(ParallelDeterminism, PlainRunMatchesSerial)
{
    const auto serial = sim::run_instrumented(sim::mini_hpc(), trace(), config(1));
    const auto parallel = sim::run_instrumented(sim::mini_hpc(), trace(), config(8));
    expect_identical(serial, parallel);
}

TEST(ParallelDeterminism, NativeDvfsRunMatchesSerial)
{
    auto make = [&](int n_threads) {
        auto cfg = config(n_threads);
        cfg.clock_policy = gpusim::ClockPolicy::kNativeDvfs;
        return sim::run_instrumented(sim::mini_hpc(), trace(), cfg);
    };
    expect_identical(make(1), make(8));
}

TEST(ParallelDeterminism, StaticPolicyRunMatchesSerial)
{
    auto make = [&](int n_threads) {
        auto cfg = config(n_threads);
        auto policy = core::make_static_policy(1110.0);
        return core::run_with_policy(sim::mini_hpc(), trace(), cfg, *policy);
    };
    expect_identical(make(1), make(8));
}

TEST(ParallelDeterminism, ManDynWithProfilerAndTracerMatchesSerial)
{
    // The hardest case: ManDyn's before-hook retargets clocks, the
    // profiler's hooks read PMT sensors around every call, and the tracer
    // records spans — all per-rank state mutated from hook callbacks.
    // Hooks fire on the driving thread in rank order, so everything stays
    // bit-identical and the span streams are equal event-for-event.
    auto make = [&](int n_threads, std::size_t* event_count, double* profiled_j) {
        auto cfg = config(n_threads);
        core::FrequencyTable table(1410.0);
        table.set(sph::SphFunction::kXMass, 1005.0);
        table.set(sph::SphFunction::kMomentumEnergy, 1410.0);
        table.set(sph::SphFunction::kTimestep, 1005.0);
        auto policy = core::make_mandyn_policy(table, sim::mini_hpc().gpu.vendor);
        sim::RunHooks hooks;
        core::EnergyProfiler profiler(cfg.n_ranks);
        profiler.attach(hooks);
        telemetry::RunTracer tracer(cfg.n_ranks);
        tracer.attach(hooks);
        auto result = core::run_with_policy(sim::mini_hpc(), trace(), cfg, *policy, hooks);
        *event_count = tracer.tracer().event_count();
        *profiled_j = profiler.total_gpu_energy_j();
        return result;
    };
    std::size_t events_1 = 0, events_8 = 0;
    double joules_1 = 0.0, joules_8 = 0.0;
    const auto serial = make(1, &events_1, &joules_1);
    const auto parallel = make(8, &events_8, &joules_8);
    expect_identical(serial, parallel);
    EXPECT_EQ(events_1, events_8);
    EXPECT_EQ(joules_1, joules_8);
    EXPECT_GT(joules_1, 0.0);
}

TEST(ParallelDeterminism, HooksInterleavePerRankOnEveryThreadCount)
{
    // Pinned thread counts, so that a host with one CPU (where n_threads = 0
    // resolves to 1) still compares a multi-thread run against the serial
    // one.  Each entry is (rank, +1 for before / -1 for after).
    auto record = [&](int n_threads) {
        std::vector<std::pair<int, int>> events;
        sim::RunHooks hooks;
        hooks.before_function = [&](int rank, gpusim::GpuDevice&, sph::SphFunction) {
            events.emplace_back(rank, +1);
        };
        hooks.after_function = [&](int rank, gpusim::GpuDevice&, sph::SphFunction,
                                   const gpusim::KernelResult&) {
            events.emplace_back(rank, -1);
        };
        sim::run_instrumented(sim::mini_hpc(), trace(), config(n_threads), hooks);
        return events;
    };
    const auto serial = record(1);
    const auto threaded = record(4);
    EXPECT_EQ(serial, threaded);

    // Strict interleave: before(r), after(r), then rank r + 1, wrapping to
    // rank 0 at the next function call.
    const int n_ranks = config(1).n_ranks;
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size() % static_cast<std::size_t>(2 * n_ranks), 0u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const int expected_rank = static_cast<int>((i / 2) % static_cast<std::size_t>(n_ranks));
        const int expected_kind = i % 2 == 0 ? +1 : -1;
        ASSERT_EQ(serial[i], std::make_pair(expected_rank, expected_kind)) << "event " << i;
    }
}

} // namespace
} // namespace gsph
