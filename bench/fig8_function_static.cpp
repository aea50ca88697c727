/// Reproduces Fig. 8: per-function (a) execution time, (b) energy, (c) EDP
/// when statically down-scaling the GPU frequency; Subsonic Turbulence at
/// 450^3 particles on a single miniHPC A100, normalized to 1410 MHz.

#include "common.hpp"

#include "util/thread_pool.hpp"

using namespace gsph;

int main()
{
    bench::print_header(
        "Fig. 8 - Per-function time/energy/EDP vs static clock (450^3)",
        "Figure 8 (a), (b), (c)",
        "Expected shape: at 1005 MHz, MomentumEnergy and IADVelocityDivCurl\n"
        "slow by >20% with energy savings limited to ~13-19% (EDP flat or\n"
        "worse); every other function gains >= 10% EDP.");

    const auto trace = bench::turbulence_trace(bench::kParticles450, 10, 10);
    sim::RunConfig cfg;
    cfg.n_ranks = 1;
    cfg.setup_s = 10.0;
    // The five runs (baseline + four static clocks) are independent, so
    // they execute concurrently; bind_nvml stays off because the NVML
    // binding is process-global and baseline/static policies never read it.
    cfg.bind_nvml = false;

    const std::vector<double> freqs = {1320.0, 1215.0, 1110.0, 1005.0};
    sim::RunResult baseline;
    std::vector<sim::RunResult> runs(freqs.size());
    util::ThreadPool::shared().parallel_for(1 + freqs.size(), [&](std::size_t i) {
        if (i == 0) {
            auto policy = core::make_baseline_policy();
            baseline = core::run_with_policy(sim::mini_hpc(), trace, cfg, *policy);
        }
        else {
            auto policy = core::make_static_policy(freqs[i - 1]);
            runs[i - 1] = core::run_with_policy(sim::mini_hpc(), trace, cfg, *policy);
        }
    });

    util::CsvWriter csv({"function", "clock_mhz", "time_ratio", "energy_ratio", "edp_ratio"});
    for (const char* panel : {"(a) execution time", "(b) energy", "(c) EDP"}) {
        std::vector<std::string> headers = {"Function"};
        for (double f : freqs) headers.push_back(util::format_fixed(f, 0) + " MHz");
        util::Table table(headers);

        for (int fn_i = 0; fn_i < sph::kSphFunctionCount; ++fn_i) {
            const auto fn = static_cast<sph::SphFunction>(fn_i);
            if (baseline.fn(fn).calls == 0) continue;
            if (sph::is_collective(fn)) continue; // comm-dominated, off-figure
            std::vector<std::string> row = {sph::to_string(fn)};
            for (std::size_t r = 0; r < runs.size(); ++r) {
                const auto ratios = core::function_ratios(baseline, runs[r]);
                for (const auto& fr : ratios) {
                    if (fr.fn != fn) continue;
                    const double v = panel[1] == 'a'   ? fr.time_ratio
                                     : panel[1] == 'b' ? fr.energy_ratio
                                                       : fr.edp_ratio;
                    row.push_back(bench::ratio(v));
                    if (panel[1] == 'a') {
                        csv.add_row({sph::to_string(fn), util::format_fixed(freqs[r], 0),
                                     bench::ratio(fr.time_ratio),
                                     bench::ratio(fr.energy_ratio),
                                     bench::ratio(fr.edp_ratio)});
                    }
                }
            }
            table.add_row(row);
        }
        std::cout << panel << " normalized to 1410 MHz:\n";
        table.print(std::cout);
        std::cout << '\n';
    }

    bench::write_artifact(csv, "fig8_function_static.csv");
    return 0;
}
