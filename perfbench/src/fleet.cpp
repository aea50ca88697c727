/// The fleet workload: the trace is recorded in set-up; one iteration is
/// fleet::run_fleet under the uncapped, uniform and negotiated policies on
/// fleets larger than bench_fleet's (scheduler, power coordinator and the
/// per-node step loop).  An iteration covers several seeded job mixes, so
/// the host work per iteration varies little from seed to seed.

#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"

#include "fleet/fleet.hpp"

namespace perfbench {

using namespace gsph;

namespace {

struct FleetLayers {
    std::array<double, 3> policy_s{};
    long rounds = 0;
    double node_steps = 0.0;
    double total_s = 0.0;
};

const std::array<fleet::FleetPolicy, 3> kFleetPolicies = {
    fleet::FleetPolicy::kUncapped, fleet::FleetPolicy::kUniformCap,
    fleet::FleetPolicy::kNegotiated};

} // namespace

WorkloadResult run_fleet(const Options& opt)
{
    const sim::SystemSpec system = sim::cscs_a100();
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = 50e6;
    spec.n_steps = opt.tiny() ? 2 : 4;
    spec.real_nside = opt.tiny() ? 6 : 8;
    spec.seed = derive_seed(opt.seed, 21);

    const int n_mixes = opt.tiny() ? 1 : 4;
    std::vector<fleet::FleetConfig> mixes;
    double budget_w = 0.0;
    SphTimes setup_sph;
    std::vector<FleetLayers> traced_iterations;
    std::vector<std::array<double, 3>> node_edp; ///< last iteration, per mix

    BatchWorkload w;
    w.name = "fleet";
    w.iterate = [&](int threads, bool traced) {
        FleetLayers layers;
        std::string digest;
        node_edp.assign(mixes.size(), {});
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            for (std::size_t p = 0; p < kFleetPolicies.size(); ++p) {
                fleet::FleetConfig run_cfg = mixes[m];
                run_cfg.policy = kFleetPolicies[p];
                run_cfg.budget_w =
                    kFleetPolicies[p] == fleet::FleetPolicy::kUncapped ? 0.0 : budget_w;
                run_cfg.n_threads = threads;
                const double start = wall_s();
                fleet::FleetResult result;
                {
                    Span span(std::string("fleet.run_fleet ") +
                                  fleet::to_string(run_cfg.policy),
                              "fleet");
                    result = fleet::run_fleet(run_cfg);
                }
                layers.policy_s[p] = wall_s() - start;
                layers.total_s += layers.policy_s[p];
                layers.rounds += result.rounds;
                for (const fleet::JobSpec& job : run_cfg.jobs) {
                    layers.node_steps += static_cast<double>(job.n_nodes) * job.n_steps;
                }
                node_edp[m][p] = result.node_edp();
                digest += bits(result.makespan_s) + ':' + bits(result.node_energy_j) + ':' +
                          bits(result.gpu_energy_j) + ':' + bits(result.node_edp()) + ':' +
                          std::to_string(result.rounds) + ':' +
                          std::to_string(result.jobs_completed) + ':' +
                          std::to_string(result.deadline_misses) + ';';
            }
        }
        if (traced) traced_iterations.push_back(layers);
        return digest;
    };
    w.setup = [&] {
        setup_sph = SphTimes{};
        fleet::FleetConfig cfg;
        cfg.system = system;
        cfg.trace = record(spec, opt.trace ? &setup_sph : nullptr);
        cfg.n_nodes = opt.tiny() ? 8 : 192;

        fleet::JobMixConfig mix;
        mix.n_jobs = opt.tiny() ? 4 : 72;
        mix.max_nodes_per_job = opt.tiny() ? 2 : 8;
        mix.min_steps = 2;
        mix.max_steps = 6;
        mix.est_step_s = fleet::estimate_step_s(system, cfg.trace);
        mix.mean_interarrival_s = 0.5 * mix.est_step_s;
        mix.overhead_s = cfg.setup_s + cfg.teardown_s;
        mix.deadline_slack = 3.0;
        mixes.clear();
        for (int m = 0; m < n_mixes; ++m) {
            mix.seed = derive_seed(opt.seed, 22 + static_cast<std::uint64_t>(m));
            cfg.jobs = fleet::generate_jobs(mix);
            mixes.push_back(cfg);
        }

        const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0, system,
                                            cfg.n_nodes);
        budget_w = 0.45 * cfg.n_nodes * probe.node_tdp_w();
        w.reference = w.iterate(1, false);
        if (opt.corrupt) w.reference[0] ^= 1; // a damaged reference copy
    };
    w.extra_checks = [&](Checks& checks) {
        for (const auto& edp : node_edp) {
            checks.attempt();
            checks.expect(edp[2] < edp[1], "negotiated node EDP is not below uniform");
        }
    };
    w.report_layers = [&](Metrics& m) {
        setup_sph.report(m);
        const std::vector<FleetLayers> pooled(traced_iterations.begin(),
                                              traced_iterations.end() - 1);
        std::array<std::vector<double>, 3> policy_s;
        std::vector<double> round_ms, node_steps_per_s;
        for (const FleetLayers& it : pooled) {
            for (std::size_t p = 0; p < 3; ++p) policy_s[p].push_back(it.policy_s[p]);
            round_ms.push_back(it.total_s * 1e3 / static_cast<double>(it.rounds));
            node_steps_per_s.push_back(it.node_steps / it.total_s);
        }
        m.set("fleet.uncapped_s", median(policy_s[0]));
        m.set("fleet.uniform_s", median(policy_s[1]));
        m.set("fleet.negotiated_s", median(policy_s[2]));
        m.set("fleet.rounds", static_cast<double>(pooled.front().rounds));
        m.set("fleet.round_ms", median(round_ms));
        m.set("fleet.node_steps_per_s", median(node_steps_per_s));
    };
    return run_batch(opt, w);
}

} // namespace perfbench
