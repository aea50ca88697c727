/// Reproduces Fig. 2: GPU frequencies per function optimized for the best
/// EDP outcome, Subsonic Turbulence, 450^3 particles, KernelTuner sweep
/// over the 1005-1410 MHz band on the miniHPC A100.
///
/// --tune-strategy exhaustive|model selects the sweep strategy: exhaustive
/// (default) prices every clock in the band; model probes three clocks,
/// fits the analytic frequency model, and confirms only its predicted
/// optimum (~25% of the launches; see src/tuning/kernel_tuner.hpp).

#include "common.hpp"

#include "tuning/kernel_tuner.hpp"

#include <cstring>

using namespace gsph;

int main(int argc, char** argv)
{
    auto strategy = tuning::SweepStrategy::kExhaustive;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tune-strategy") == 0 && i + 1 < argc) {
            strategy = tuning::sweep_strategy_from_string(argv[++i]);
        }
        else {
            std::cerr << "usage: fig2_kerneltuner [--tune-strategy exhaustive|model]\n";
            return 2;
        }
    }

    bench::print_header(
        "Fig. 2 - Best-EDP GPU frequency per SPH function (KernelTuner)",
        "Figure 2",
        "Brute-force sweep of the compute clock per kernel; expected shape:\n"
        "compute-bound pair kernels (MomentumEnergy, IADVelocityDivCurl) keep\n"
        "high clocks, light/memory-bound functions sit at the 1005 MHz floor.");

    const auto trace = bench::turbulence_trace(bench::kParticles450, 8, 10);
    const auto spec = sim::mini_hpc().gpu;
    const auto band = tuning::paper_frequency_band(spec);

    std::cout << "Sweep band:";
    for (double f : band) std::cout << ' ' << util::format_fixed(f, 0);
    std::cout << " MHz  (strategy: " << tuning::to_string(strategy) << ")\n\n";

    tuning::SweepOptions options;
    options.frequencies = band;
    options.strategy = strategy;
    const auto sweep = tuning::sweep_sph_functions(trace, spec, options);

    util::Table table({"Function", "Best-EDP clock [MHz]", "Best-energy clock [MHz]",
                       "Launches", "EDP vs 1410", "Energy vs 1410", "Time vs 1410"});
    util::CsvWriter csv({"function", "best_edp_mhz", "best_energy_mhz", "launches",
                         "edp_ratio", "energy_ratio", "time_ratio"});

    long total_launches = 0;
    for (const auto& entry : sweep) {
        total_launches += entry.result.launches;
        // Ratios of the chosen config vs the max-clock config.  The model
        // strategy only prices its probes and the confirmed optimum, so the
        // max-clock config may be absent — the ratios then read "-".
        const tuning::TuneConfig* at_max = nullptr;
        const tuning::TuneConfig* chosen = nullptr;
        for (const auto& c : entry.result.configs) {
            const double f = c.params.at("core_freq_mhz");
            if (f == band.back()) at_max = &c;
            if (f == entry.best_edp_mhz) chosen = &c;
        }
        std::string edp_ratio = "-", energy_ratio = "-", time_ratio = "-";
        if (at_max && chosen) {
            edp_ratio = bench::ratio(chosen->edp / at_max->edp);
            energy_ratio = bench::ratio(chosen->energy_j / at_max->energy_j);
            time_ratio = bench::ratio(chosen->time_s / at_max->time_s);
        }

        table.add_row({sph::to_string(entry.fn),
                       util::format_fixed(entry.best_edp_mhz, 0),
                       util::format_fixed(entry.best_energy_mhz, 0),
                       std::to_string(entry.result.launches), edp_ratio,
                       energy_ratio, time_ratio});
        csv.add_row({sph::to_string(entry.fn), util::format_fixed(entry.best_edp_mhz, 0),
                     util::format_fixed(entry.best_energy_mhz, 0),
                     std::to_string(entry.result.launches), edp_ratio, energy_ratio,
                     time_ratio});
    }
    table.print(std::cout);
    std::cout << "\nTotal kernel launches: " << total_launches << "\n";

    std::cout << "\nManDyn frequency table derived from this sweep:\n"
              << tuning::table_from_sweep(sweep, spec.default_app_clock_mhz).serialize();

    bench::write_artifact(csv, "fig2_kerneltuner.csv");
    return 0;
}
