/// Attribution bench: the fixed-seed run behind the CI perf-regression
/// gate.
///
/// Runs a deterministic ManDyn configuration (miniHPC, subsonic
/// turbulence, 2 ranks, 20 steps) with the attribution ledger attached and
/// emits the two machine-readable artifacts the gate consumes:
///
///   BENCH_attribution.json         run summary (greensph.run_summary/v1)
///   BENCH_attribution_ledger.jsonl attribution ledger (greensph.ledger/v1)
///
/// CI then runs greensph_report with --summary BENCH_attribution.json,
/// --ledger BENCH_attribution_ledger.jsonl and
/// --baseline bench/baselines/bench_attribution_baseline.json,
/// which exits 2 when energy or EDP drifted more than 5% from the
/// committed baseline.  The simulation substrate is deterministic, so any
/// drift is a code change, not noise.  Refresh the baseline by copying a
/// blessed BENCH_attribution.json over bench/baselines/.
///
/// Usage: bench_attribution [output-dir]   (default: current directory)

#include "common.hpp"

#include "telemetry/ledger.hpp"
#include "telemetry/run_summary.hpp"
#include "tuning/kernel_tuner.hpp"

#include <cstdlib>

using namespace gsph;

int main(int argc, char** argv)
{
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    bench::print_header(
        "Attribution bench - fixed-seed run for the CI regression gate",
        "Figures 5/7 (per-kernel energy and EDP under ManDyn)",
        "Deterministic artifacts; compare with greensph_report --baseline");

    const auto system = sim::mini_hpc();
    const auto trace = bench::turbulence_trace(50e6, /*n_steps=*/20,
                                               /*real_nside=*/8);
    const auto sweep = tuning::sweep_sph_functions(trace, system.gpu);
    auto policy = core::make_mandyn_policy(
        tuning::table_from_sweep(sweep, system.gpu.default_app_clock_mhz),
        tuning::audit_info_from_sweep(sweep), system.gpu.vendor);

    sim::RunConfig cfg;
    cfg.n_ranks = 2;
    cfg.setup_s = 10.0;
    telemetry::AttributionLedger ledger(cfg.n_ranks);
    sim::RunHooks hooks;
    ledger.attach(hooks);
    const auto result =
        core::run_with_policy(system, trace, cfg, *policy, hooks);

    util::Table table({"Metric", "Value"});
    table.add_row({"makespan [s]", util::format_fixed(result.makespan_s(), 3)});
    table.add_row({"GPU energy [J]", util::format_fixed(result.gpu_energy_j, 3)});
    table.add_row({"node energy [J]", util::format_fixed(result.node_energy_j, 3)});
    table.add_row({"node EDP [Js]", util::format_fixed(result.edp(), 3)});
    table.add_row({"attributed [J]",
                   util::format_fixed(ledger.attributed_energy_j(), 3)});
    table.add_row({"buckets", std::to_string(ledger.buckets().size())});
    table.add_row({"decisions", std::to_string(ledger.decision_count())});
    table.print(std::cout);

    const std::string summary_path = out_dir + "/BENCH_attribution.json";
    const std::string ledger_path = out_dir + "/BENCH_attribution_ledger.jsonl";
    telemetry::RunSummaryContext ctx;
    ctx.policy = policy->name();
    if (!telemetry::write_run_summary(summary_path, result, ctx)) {
        std::cerr << "error: failed to write " << summary_path << "\n";
        return 1;
    }
    telemetry::Json header = telemetry::Json::object();
    header["system"] = system.name;
    header["workload"] = "SubsonicTurbulence";
    header["policy"] = policy->name();
    header["ranks"] = cfg.n_ranks;
    header["steps"] = trace.steps.size();
    if (!ledger.write_jsonl(ledger_path, header)) {
        std::cerr << "error: failed to write " << ledger_path << "\n";
        return 1;
    }
    std::cout << "\nWrote " << summary_path << " and " << ledger_path << "\n";
    return 0;
}
