/// Tuning-service bench: cold-sweep vs cache-hit latency and the
/// policy-from-artifact contract, behind the CI perf-regression gate.
///
/// Submits the paper sweep (miniHPC A100, subsonic turbulence 450^3) to an
/// in-process TuningService twice — the first submission sweeps, the second
/// must be served from the artifact store — then replays the run twice:
/// once with the inline-swept ManDyn policy and once with the policy
/// rebuilt from the stored artifact.  Emits the artifact the gate consumes:
///
///   BENCH_service.json   run summary of the *policy-from* run
///
/// CI runs greensph_report with --baseline
/// bench/baselines/bench_service_baseline.json, which exits 2 when the
/// policy-from run's energy or EDP drifted beyond tolerance.  On top of the
/// report gate, this binary itself exits 1 when the service loses its
/// reason to exist: a cache hit less than 10x faster than the cold sweep,
/// or a policy-from EDP more than 1% away from the inline-tuned run's
/// (the substrate is deterministic, so they are expected to be identical).
/// Refresh the baseline by copying a blessed BENCH_service.json over
/// bench/baselines/.
///
/// Usage: bench_service [output-dir]   (default: current directory)

#include "common.hpp"

#include "service/tuning_service.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_summary.hpp"
#include "tuning/kernel_tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace gsph;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

sim::RunResult replay(const sim::SystemSpec& system,
                      const sim::WorkloadTrace& trace,
                      core::FrequencyTable table, core::ControllerAuditInfo audit)
{
    auto policy = core::make_mandyn_policy(std::move(table), std::move(audit),
                                           system.gpu.vendor);
    sim::RunConfig cfg;
    cfg.n_ranks = 2;
    cfg.setup_s = 10.0;
    return core::run_with_policy(system, trace, cfg, *policy);
}

} // namespace

int main(int argc, char** argv)
{
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    bench::print_header(
        "Tuning-service bench - cache-hit latency and policy-from fidelity",
        "Tuning-as-a-service: sweep once, reuse everywhere",
        "Deterministic artifacts; compare with greensph_report --baseline");

    const auto system = sim::mini_hpc();
    const auto trace = bench::turbulence_trace(bench::kParticles450,
                                               /*n_steps=*/4, /*real_nside=*/8);

    service::TuneRequest request;
    request.device = system.gpu;
    request.trace = trace;
    // Sweep the full supported-clock grid (15 MHz apart, as nvidia-smi
    // exposes it), not just the paper's 7 coarse points: that is what a
    // production tuning request looks like, and what makes re-sweeping
    // worth a service in the first place.
    for (double mhz = 1005.0; mhz <= 1410.0; mhz += 15.0) {
        request.band.push_back(mhz);
    }

    telemetry::MetricsRegistry::global().reset();
    service::ServiceConfig cfg;
    cfg.producer = "bench_service";
    service::TuningService service(cfg);

    // Cold submission: runs the full exhaustive sweep.
    auto start = std::chrono::steady_clock::now();
    const std::string artifact_text = service.tune(request);
    const double cold_s = seconds_since(start);

    // Cache hits: identical re-submissions served from the store.  Averaged
    // over a batch so the measurement is not timer-resolution noise.
    constexpr int kHits = 100;
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kHits; ++i) {
        if (service.tune(request) != artifact_text) {
            std::cerr << "FAIL: cache hit served a different artifact\n";
            return 1;
        }
    }
    const double hit_s = std::max(seconds_since(start) / kHits, 1e-9);
    const double speedup = cold_s / hit_s;

    if (service.sweeps_run() != 1) {
        std::cerr << "FAIL: " << service.sweeps_run()
                  << " sweeps for identical submissions (want 1)\n";
        return 1;
    }

    // Fidelity: the run driven by the artifact-rebuilt policy vs the run
    // driven by the inline-swept policy.
    tuning::SweepOptions sweep_options;
    sweep_options.frequencies = request.band;
    const auto sweep = tuning::sweep_sph_functions(trace, system.gpu, sweep_options);
    const auto inline_run = replay(
        system, trace, tuning::table_from_sweep(sweep, system.gpu.default_app_clock_mhz),
        tuning::audit_info_from_sweep(sweep));

    const auto artifact = service::PolicyArtifact::parse(artifact_text);
    const auto policy_from_run =
        replay(system, trace, service::table_from_artifact(artifact),
               service::audit_info_from_artifact(artifact));

    const double edp_drift =
        policy_from_run.gpu_edp() / inline_run.gpu_edp() - 1.0;

    util::Table table({"Metric", "Value"});
    table.add_row({"cold submit (sweep) [s]", util::format_fixed(cold_s, 6)});
    table.add_row({"cache-hit submit [s]", util::format_fixed(hit_s, 6)});
    table.add_row({"speedup", util::format_fixed(speedup, 1) + "x"});
    table.add_row({"sweep launches", std::to_string(artifact.sample_launches)});
    table.add_row({"inline GPU EDP [Js]",
                   util::format_fixed(inline_run.gpu_edp(), 3)});
    table.add_row({"policy-from GPU EDP [Js]",
                   util::format_fixed(policy_from_run.gpu_edp(), 3)});
    table.add_row({"EDP drift", bench::pct(edp_drift)});
    table.print(std::cout);

    const std::string summary_path = out_dir + "/BENCH_service.json";
    telemetry::RunSummaryContext ctx;
    ctx.policy = "ManDyn/policy-from";
    if (!telemetry::write_run_summary(summary_path, policy_from_run, ctx)) {
        std::cerr << "error: failed to write " << summary_path << "\n";
        return 1;
    }
    std::cout << "Wrote " << summary_path << "\n";

    // The service's contract (ISSUE acceptance bar).
    bool ok = true;
    if (speedup < 10.0) {
        std::cerr << "FAIL: cache hit only " << util::format_fixed(speedup, 1)
                  << "x faster than the cold sweep (limit 10x)\n";
        ok = false;
    }
    if (std::abs(edp_drift) > 0.01) {
        std::cerr << "FAIL: policy-from EDP drifted " << bench::pct(edp_drift)
                  << " from the inline-tuned run (limit 1%)\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
