/// The physics workload: one iteration is an in-process
/// `greensph run --policy mandyn --ranks 8`, once for subsonic turbulence
/// and once for the Evrard collapse (which adds the gravity/octree path):
/// sim::record_trace, tuning::sweep_sph_functions, then the ManDyn run.

#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"

#include "tuning/kernel_tuner.hpp"
#include "util/checksum.hpp"

namespace perfbench {

using namespace gsph;

namespace {

struct PhysicsLayers {
    SphTimes sph;
    std::vector<double> sweep_ms;
    long launches = 0;
    double run_s = 0.0;
    HookStats hooks;
};

} // namespace

WorkloadResult run_physics(const Options& opt)
{
    const sim::SystemSpec system = sim::mini_hpc();
    constexpr int kRanks = 8;
    std::vector<sim::WorkloadSpec> specs;
    for (const auto kind :
         {sim::WorkloadKind::kSubsonicTurbulence, sim::WorkloadKind::kEvrardCollapse}) {
        sim::WorkloadSpec spec;
        spec.kind = kind;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = opt.tiny() ? 2 : 10;
        spec.real_nside = opt.tiny() ? 6 : 10;
        spec.seed = derive_seed(opt.seed, specs.size() + 1);
        specs.push_back(spec);
    }

    std::vector<PhysicsLayers> traced_iterations;
    BatchWorkload w;
    w.name = "physics";
    w.iterate = [&](int threads, bool traced) {
        PhysicsLayers layers;
        layers.hooks.per_call = traced && threads == 1;
        std::string digest;
        for (const sim::WorkloadSpec& spec : specs) {
            const sim::WorkloadTrace trace = record(spec, traced ? &layers.sph : nullptr);

            tuning::SweepOptions sweep_options;
            sweep_options.n_threads = threads;
            double start = wall_s();
            std::vector<tuning::FunctionSweepEntry> sweep;
            {
                Span span("tuning.sweep_sph_functions", "tuning");
                sweep = tuning::sweep_sph_functions(trace, system.gpu, sweep_options);
            }
            layers.sweep_ms.push_back((wall_s() - start) * 1e3);
            for (const auto& entry : sweep) layers.launches += entry.result.launches;

            const core::FrequencyTable table =
                tuning::table_from_sweep(sweep, system.gpu.default_app_clock_mhz);
            sim::RunConfig cfg;
            cfg.n_ranks = kRanks;
            cfg.setup_s = 45.0;
            cfg.n_steps = spec.n_steps;
            cfg.n_threads = threads;
            sim::RunResult result;
            {
                Span span("sim.run_instrumented", "sim");
                auto policy = core::make_mandyn_policy(
                    table, tuning::audit_info_from_sweep(sweep), system.gpu.vendor);
                start = wall_s();
                result = traced ? run_policy_timed(system, trace, cfg, *policy, layers.hooks)
                                : core::run_with_policy(system, trace, cfg, *policy);
                layers.run_s += wall_s() - start;
            }
            digest += trace_digest(trace) + '/' +
                      util::hex64(util::fnv1a64(table.serialize())) + '/' +
                      run_digest(result) + ';';
        }
        if (traced) traced_iterations.push_back(std::move(layers));
        return digest;
    };
    w.setup = [&] {
        w.reference = w.iterate(1, false);
        if (opt.corrupt) w.reference[0] ^= 1; // a damaged reference copy
    };
    w.report_layers = [&](Metrics& m) {
        // The last traced iteration is the 1-thread leg.
        const PhysicsLayers& serial = traced_iterations.back();
        std::vector<PhysicsLayers> pooled(traced_iterations.begin(),
                                          traced_iterations.end() - 1);
        std::vector<SphTimes> sph;
        std::vector<double> sweep_ms, run_s, hook_s;
        for (const PhysicsLayers& it : pooled) {
            sph.push_back(it.sph);
            for (double ms : it.sweep_ms) sweep_ms.push_back(ms);
            run_s.push_back(it.run_s);
            hook_s.push_back(it.hooks.hook_s);
        }
        median_of(sph).report(m);
        m.set("tuning.exhaustive_sweep_ms", median(sweep_ms));
        m.set("tuning.launches_exhaustive", static_cast<double>(pooled.front().launches));
        m.set("driver.mandyn_exhaustive_s", median(run_s));
        m.set("core.hook_s", median(hook_s));
        m.set("core.hook_calls", static_cast<double>(pooled.front().hooks.hook_calls));
        m.set("driver.self_s", median(run_s) - median(hook_s));
        m.set("gpusim.call_us", median(serial.hooks.call_us));
    };
    return run_batch(opt, w);
}

} // namespace perfbench
