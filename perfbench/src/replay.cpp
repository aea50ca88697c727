/// The replay workload: traces recorded in set-up are replayed with
/// sim::run_instrumented under every clock policy (baseline, static 1005
/// MHz, the DVFS governor, ManDyn from exhaustive and model sweeps, online
/// ManDyn exhaustive and model) on the miniHPC, CSCS and LUMI systems.  No
/// physics runs in the timed loop: this is gpusim, the driver step loop,
/// the policy hooks, the clock back-ends and the tuning sweeps.

#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"

#include "core/online_tuner.hpp"
#include "tuning/kernel_tuner.hpp"
#include "util/checksum.hpp"

#include <map>
#include <memory>

namespace perfbench {

using namespace gsph;

namespace {

const std::vector<std::string> kPolicies = {
    "baseline",     "static_1005",       "dvfs",         "mandyn_exhaustive",
    "mandyn_model", "online_exhaustive", "online_model",
};

struct ReplayLayers {
    std::map<std::string, double> run_s; ///< by policy, summed over systems/traces
    std::map<std::string, std::vector<double>> sweep_ms; ///< by strategy
    std::map<std::string, long> launches;                ///< by strategy
    long model_fallbacks = 0;
    long baseline_rank_calls = 0;
    HookStats hooks;
};

struct Built {
    std::unique_ptr<core::FrequencyPolicy> policy;
    core::OnlineManDynPolicy* online = nullptr;
    std::string table_digest;
};

Built build_policy(const std::string& name, const sim::SystemSpec& system,
                   const sim::WorkloadTrace& trace, int threads, ReplayLayers& layers)
{
    Built built;
    if (name == "baseline") built.policy = core::make_baseline_policy();
    else if (name == "static_1005") built.policy = core::make_static_policy(1005.0);
    else if (name == "dvfs") built.policy = core::make_native_dvfs_policy();
    else if (name.rfind("mandyn_", 0) == 0) {
        const std::string strategy = name.substr(7);
        tuning::SweepOptions options;
        options.n_threads = threads;
        options.strategy = tuning::sweep_strategy_from_string(strategy);
        const double start = wall_s();
        std::vector<tuning::FunctionSweepEntry> sweep;
        {
            Span span("tuning.sweep_sph_functions", "tuning");
            sweep = tuning::sweep_sph_functions(trace, system.gpu, options);
        }
        layers.sweep_ms[strategy].push_back((wall_s() - start) * 1e3);
        for (const auto& entry : sweep) {
            layers.launches[strategy] += entry.result.launches;
            if (entry.result.model_fallback) ++layers.model_fallbacks;
        }
        const core::FrequencyTable table =
            tuning::table_from_sweep(sweep, system.gpu.default_app_clock_mhz);
        built.table_digest = util::hex64(util::fnv1a64(table.serialize()));
        built.policy = core::make_mandyn_policy(table, tuning::audit_info_from_sweep(sweep),
                                                system.gpu.vendor);
    }
    else {
        core::OnlineTunerConfig cfg;
        cfg.candidate_clocks = tuning::paper_frequency_band(system.gpu);
        cfg.strategy = name == "online_model" ? core::TuneStrategy::kModel
                                              : core::TuneStrategy::kExhaustive;
        auto online = core::make_online_mandyn_policy(cfg, system.gpu.vendor);
        built.online = online.get();
        built.policy = std::move(online);
    }
    return built;
}

} // namespace

WorkloadResult run_replay(const Options& opt)
{
    const std::vector<sim::SystemSpec> systems = {sim::mini_hpc(), sim::cscs_a100(),
                                                  sim::lumi_g()};
    const int ranks = opt.tiny() ? 2 : 16;
    std::vector<sim::WorkloadSpec> specs;
    for (const auto kind :
         {sim::WorkloadKind::kSubsonicTurbulence, sim::WorkloadKind::kEvrardCollapse}) {
        sim::WorkloadSpec spec;
        spec.kind = kind;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = opt.tiny() ? 2 : 10;
        spec.real_nside = opt.tiny() ? 6 : 10;
        spec.seed = derive_seed(opt.seed, specs.size() + 11);
        specs.push_back(spec);
    }

    std::vector<sim::WorkloadTrace> traces;
    SphTimes setup_sph;
    std::vector<ReplayLayers> traced_iterations;
    BatchWorkload w;
    w.name = "replay";
    w.iterate = [&](int threads, bool traced) {
        ReplayLayers layers;
        layers.hooks.per_call = traced && threads == 1;
        std::string digest;
        for (const sim::SystemSpec& system : systems) {
            for (const sim::WorkloadTrace& trace : traces) {
                for (const std::string& name : kPolicies) {
                    Built built = build_policy(name, system, trace, threads, layers);
                    sim::RunConfig cfg;
                    cfg.n_ranks = ranks;
                    cfg.setup_s = 45.0;
                    cfg.n_threads = threads;
                    const double start = wall_s();
                    sim::RunResult result;
                    {
                        Span span("sim.run_instrumented", "sim");
                        result = traced ? run_policy_timed(system, trace, cfg,
                                                           *built.policy, layers.hooks)
                                        : core::run_with_policy(system, trace, cfg,
                                                                *built.policy);
                    }
                    layers.run_s[name] += wall_s() - start;
                    if (name == "baseline") {
                        for (const auto& fn : result.per_function) {
                            layers.baseline_rank_calls += fn.calls;
                        }
                    }
                    if (built.online) {
                        built.table_digest = util::hex64(util::fnv1a64(
                            built.online->learned_table(system.gpu.default_app_clock_mhz)
                                .serialize()));
                    }
                    digest += built.table_digest + '/' + run_digest(result) + ';';
                }
            }
        }
        if (traced) traced_iterations.push_back(std::move(layers));
        return digest;
    };
    w.setup = [&] {
        traces.clear();
        setup_sph = SphTimes{};
        for (const sim::WorkloadSpec& spec : specs) {
            traces.push_back(record(spec, opt.trace ? &setup_sph : nullptr));
        }
        w.reference = w.iterate(1, false);
        if (opt.corrupt) w.reference[0] ^= 1; // a damaged reference copy
    };
    w.report_layers = [&](Metrics& m) {
        setup_sph.report(m);
        const ReplayLayers& serial = traced_iterations.back();
        const std::vector<ReplayLayers> pooled(traced_iterations.begin(),
                                               traced_iterations.end() - 1);
        std::vector<double> total_run_s, hook_s, calls_per_s;
        std::map<std::string, std::vector<double>> per_policy, sweep_ms;
        for (const ReplayLayers& it : pooled) {
            double run = 0.0;
            for (const auto& [name, s] : it.run_s) {
                per_policy[name].push_back(s);
                run += s;
            }
            total_run_s.push_back(run);
            hook_s.push_back(it.hooks.hook_s);
            calls_per_s.push_back(static_cast<double>(it.baseline_rank_calls) /
                                  it.run_s.at("baseline"));
            for (const auto& [strategy, ms] : it.sweep_ms) {
                sweep_ms[strategy].insert(sweep_ms[strategy].end(), ms.begin(), ms.end());
            }
        }
        for (const std::string& name : kPolicies) {
            m.set("driver." + name + "_s", median(per_policy[name]));
        }
        m.set("driver.rank_calls_per_s", median(calls_per_s));
        m.set("core.hook_s", median(hook_s));
        m.set("core.hook_calls", static_cast<double>(pooled.front().hooks.hook_calls));
        m.set("driver.self_s", median(total_run_s) - median(hook_s));
        m.set("gpusim.call_us", median(serial.hooks.call_us));
        m.set("tuning.exhaustive_sweep_ms", median(sweep_ms["exhaustive"]));
        m.set("tuning.model_sweep_ms", median(sweep_ms["model"]));
        const auto& launches = pooled.front().launches;
        const double exhaustive = static_cast<double>(launches.at("exhaustive"));
        const double model = static_cast<double>(launches.at("model"));
        m.set("tuning.launches_exhaustive", exhaustive);
        m.set("tuning.launches_model", model);
        m.set("tuning.model_launch_ratio", model / exhaustive);
        m.set("tuning.model_fallbacks", static_cast<double>(pooled.front().model_fallbacks));
    };
    return run_batch(opt, w);
}

} // namespace perfbench
