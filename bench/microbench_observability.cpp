/// Live observability plane cost: digest observation, ring appends,
/// Prometheus rendering, and — the acceptance metric — the end-to-end
/// overhead the plane adds to an instrumented run.
///
/// The bar is < 1% step-time overhead with the sampler attached and the
/// exporter serving scrapes.  The replay engine compresses each modeled
/// multi-second step into microseconds of host time, so the honest
/// denominator is the *modeled* step duration: the plane's absolute
/// per-step host cost is exactly what a real deployment pays per step,
/// and a real step lasts result.makespan_s() / n_steps seconds.
/// BM_RunWithObservability measures a full run with the plane on
/// (sampler hooks + exporter thread + a concurrent scraper hitting
/// /metrics) against the plane-off baseline measured in the same
/// process, and reports:
///   overhead_pct       = plane cost per step / modeled step   (the bar)
///   host_overhead_pct  = plane cost per run / compressed host run,
///                        for transparency — the worst-case ratio when
///                        every modeled second is replayed in ~5 ns.

#include "core/policy.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"
#include "telemetry/digest.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/ring.hpp"
#include "telemetry/sampler.hpp"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

namespace {

using namespace gsph;

const sim::WorkloadTrace& shared_trace()
{
    static const sim::WorkloadTrace trace = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = 20;
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return trace;
}

void BM_DigestObserve(benchmark::State& state)
{
    telemetry::LogHistogram hist;
    double v = 1e-6;
    for (auto _ : state) {
        hist.observe(v);
        v = v * 1.0001 + 1e-9; // sweep across buckets
        if (v > 1e3) v = 1e-6;
    }
    benchmark::DoNotOptimize(hist);
}

void BM_DigestQuantile(benchmark::State& state)
{
    telemetry::LogHistogram hist;
    for (int i = 0; i < 100000; ++i) hist.observe(1e-6 * (1 + i % 997));
    for (auto _ : state) {
        benchmark::DoNotOptimize(hist.quantile(99.0));
    }
}

void BM_RingAppend(benchmark::State& state)
{
    telemetry::RingSeries ring(512);
    double t = 0.0;
    for (auto _ : state) {
        t += 0.25;
        ring.append(t, 300.0 + t);
    }
    benchmark::DoNotOptimize(ring);
}

void BM_PrometheusRender(benchmark::State& state)
{
    auto& reg = telemetry::MetricsRegistry::global();
    reg.reset();
    for (int i = 0; i < 32; ++i) {
        reg.counter("bench.counter." + std::to_string(i)).inc(i);
        reg.gauge("bench.gauge." + std::to_string(i)).set(i);
    }
    auto& digest = reg.digest("bench.digest");
    for (int i = 0; i < 10000; ++i) digest.observe(1.0 + i % 131);
    for (auto _ : state) {
        const std::string body = telemetry::render_prometheus(reg.snapshot());
        benchmark::DoNotOptimize(body);
    }
    reg.reset();
}

sim::RunResult run_once(telemetry::LiveSampler* sampler)
{
    auto policy = core::make_static_policy(1200.0);
    sim::RunConfig cfg;
    cfg.n_ranks = 4;
    cfg.setup_s = 0.0;
    cfg.teardown_s = 0.0;
    cfg.bind_nvml = false;
    sim::RunHooks hooks;
    if (sampler) sampler->attach(hooks);
    return core::run_with_policy(sim::mini_hpc(), shared_trace(), cfg, *policy, hooks);
}

struct BaselineStats {
    double run_s = 0.0;           // mean host wall seconds, plane off
    double modeled_step_s = 0.0;  // modeled (simulated) seconds per step
    int n_steps = 0;
};

/// Plane-off reference, measured once in-process so the overhead number
/// compares like with like; also captures the modeled step duration used
/// as the acceptance denominator.
const BaselineStats& baseline_stats()
{
    static const BaselineStats stats = [] {
        BaselineStats s;
        auto warm = run_once(nullptr); // warm caches
        s.n_steps = static_cast<int>(warm.step_start_times.size());
        if (s.n_steps > 0) s.modeled_step_s = warm.makespan_s() / s.n_steps;
        const int reps = 5;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) run_once(nullptr);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        s.run_s = dt.count() / reps;
        return s;
    }();
    return stats;
}

void BM_RunBaseline(benchmark::State& state)
{
    for (auto _ : state) {
        auto result = run_once(nullptr);
        benchmark::DoNotOptimize(result);
    }
}

/// Plane fully on: sampler hooks feeding digests/rings/detector, exporter
/// serving, and a scraper thread rendering /metrics every millisecond of
/// host time — already far denser than any real Prometheus cadence
/// relative to the compressed replay, without degenerating into a mutex
/// stress test.  overhead_pct is the acceptance metric (must stay < 1).
void BM_RunWithObservability(benchmark::State& state)
{
    const BaselineStats& base = baseline_stats();
    telemetry::MetricsRegistry::global().reset();

    double total_s = 0.0;
    std::int64_t iterations = 0;
    for (auto _ : state) {
        telemetry::LiveSampler sampler(4);
        telemetry::MetricsExporter exporter({/*port=*/0}, &sampler);
        exporter.start();
        std::atomic<bool> stop_scraper{false};
        std::thread scraper([&] {
            // render_now() is strictly more work than serving a buffered
            // body to a socket, with no network flakiness.
            while (!stop_scraper.load(std::memory_order_acquire)) {
                exporter.render_now();
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        const auto t0 = std::chrono::steady_clock::now();
        auto result = run_once(&sampler);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        total_s += dt.count();
        ++iterations;
        stop_scraper.store(true, std::memory_order_release);
        scraper.join();
        exporter.stop();
        benchmark::DoNotOptimize(result);
    }
    if (iterations > 0 && base.run_s > 0.0 && base.n_steps > 0 &&
        base.modeled_step_s > 0.0) {
        const double mean_s = total_s / static_cast<double>(iterations);
        const double plane_per_step_s =
            (mean_s - base.run_s) / static_cast<double>(base.n_steps);
        state.counters["baseline_ms"] = 1e3 * base.run_s;
        state.counters["observed_ms"] = 1e3 * mean_s;
        state.counters["plane_us_per_step"] = 1e6 * plane_per_step_s;
        state.counters["modeled_step_ms"] = 1e3 * base.modeled_step_s;
        state.counters["overhead_pct"] =
            100.0 * plane_per_step_s / base.modeled_step_s;
        state.counters["host_overhead_pct"] =
            100.0 * (mean_s - base.run_s) / base.run_s;
    }
    telemetry::MetricsRegistry::global().reset();
}

} // namespace

BENCHMARK(BM_DigestObserve)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_DigestQuantile)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RingAppend)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_PrometheusRender)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunBaseline)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunWithObservability)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
