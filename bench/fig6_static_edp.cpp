/// Reproduces Fig. 6: effect of statically down-scaling the GPU frequency
/// on the EDP of Subsonic Turbulence for different particle counts per GPU
/// (450^3 down to 200^3) on a single miniHPC A100.

#include "common.hpp"

#include "util/thread_pool.hpp"

using namespace gsph;

int main()
{
    bench::print_header(
        "Fig. 6 - Normalized EDP vs static GPU frequency and problem size",
        "Figure 6",
        "Expected shape: EDP (normalized to the 1410 MHz run of the same\n"
        "size) decreases as the clock drops; the under-utilized 200^3 case\n"
        "drops fastest and favours the lowest clocks (e.g. 1110 MHz).");

    const std::vector<int> sides = {450, 400, 350, 300, 250, 200};
    const std::vector<double> freqs = {1410, 1320, 1215, 1110, 1005};

    // One physics trace reused for every size: only the scale changes.
    const auto base_trace = bench::turbulence_trace(bench::kParticles450, 8, 10);

    std::vector<std::string> headers = {"Clock [MHz]"};
    for (int side : sides) headers.push_back(std::to_string(side) + "^3");
    util::Table table(headers);
    util::CsvWriter csv({"clock_mhz", "nside", "edp_ratio", "time_ratio", "energy_ratio"});

    // Every (clock, size) point is an independent single-rank run, so the
    // whole grid prices concurrently on the shared thread pool.  The NVML
    // binding is process-global, so concurrent runs must skip it — safe
    // here because baseline/static policies configure clocks through
    // RunConfig and never touch the management library.
    auto run_point = [&](int side, double clock_mhz) {
        sim::WorkloadTrace trace = base_trace;
        trace.particles_per_gpu = static_cast<double>(side) * side * side;
        sim::RunConfig cfg;
        cfg.n_ranks = 1;
        cfg.setup_s = 10.0;
        cfg.bind_nvml = false;
        auto policy = clock_mhz > 0.0 ? core::make_static_policy(clock_mhz)
                                      : core::make_baseline_policy();
        return core::run_with_policy(sim::mini_hpc(), trace, cfg, *policy);
    };

    // Baselines per size at 1410, then the full frequency grid.
    std::vector<sim::RunResult> baselines(sides.size());
    std::vector<sim::RunResult> grid(freqs.size() * sides.size());
    const std::size_t n_points = baselines.size() + grid.size();
    util::ThreadPool::shared().parallel_for(n_points, [&](std::size_t i) {
        if (i < baselines.size()) {
            baselines[i] = run_point(sides[i], /*clock_mhz=*/-1.0);
        }
        else {
            const std::size_t g = i - baselines.size();
            grid[g] = run_point(sides[g % sides.size()], freqs[g / sides.size()]);
        }
    });

    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        std::vector<std::string> row = {util::format_fixed(freqs[fi], 0)};
        for (std::size_t s = 0; s < sides.size(); ++s) {
            const sim::RunResult& r = grid[fi * sides.size() + s];
            const double edp_ratio = r.gpu_edp() / baselines[s].gpu_edp();
            row.push_back(bench::ratio(edp_ratio));
            csv.add_row({util::format_fixed(freqs[fi], 0), std::to_string(sides[s]),
                         bench::ratio(edp_ratio),
                         bench::ratio(r.makespan_s() / baselines[s].makespan_s()),
                         bench::ratio(r.gpu_energy_j / baselines[s].gpu_energy_j)});
        }
        table.add_row(row);
    }
    table.print(std::cout);

    std::cout << "\n(Each column is normalized to its own 1410 MHz baseline.)\n";
    bench::write_artifact(csv, "fig6_static_edp.csv");
    return 0;
}
