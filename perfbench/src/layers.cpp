#include "layers.hpp"

#include "harness.hpp"
#include "spans.hpp"

#include "sph/decomposition.hpp"
#include "util/checksum.hpp"
#include "util/thread_pool.hpp"

#include <stdexcept>

namespace perfbench {

using namespace gsph;

SphTimes median_of(const std::vector<SphTimes>& samples)
{
    const auto med = [&](auto field) {
        std::vector<double> values;
        for (const SphTimes& t : samples) values.push_back(field(t));
        return median(values);
    };
    SphTimes out;
    for (std::size_t f = 0; f < out.fn_s.size(); ++f) {
        out.fn_s[f] = med([f](const SphTimes& t) { return t.fn_s[f]; });
    }
    out.decomposition_s = med([](const SphTimes& t) { return t.decomposition_s; });
    out.total_s = med([](const SphTimes& t) { return t.total_s; });
    out.particle_steps = med([](const SphTimes& t) { return t.particle_steps; });
    out.neighbors_per_particle =
        med([](const SphTimes& t) { return t.neighbors_per_particle; });
    return out;
}

void SphTimes::report(Metrics& metrics) const
{
    const auto fn = [this](sph::SphFunction f) {
        return fn_s[static_cast<std::size_t>(f)];
    };
    using F = sph::SphFunction;
    const double named = fn(F::kFindNeighbors) + fn(F::kXMass) +
                         fn(F::kNormalizationGradh) + fn(F::kIadVelocityDivCurl) +
                         fn(F::kMomentumEnergy) + fn(F::kGravity) +
                         fn(F::kDomainDecompAndSync);
    metrics.set("sph.record_s", total_s);
    metrics.set("sph.find_neighbors_s", fn(F::kFindNeighbors));
    metrics.set("sph.xmass_s", fn(F::kXMass));
    metrics.set("sph.normalization_gradh_s", fn(F::kNormalizationGradh));
    metrics.set("sph.iad_s", fn(F::kIadVelocityDivCurl));
    metrics.set("sph.momentum_energy_s", fn(F::kMomentumEnergy));
    metrics.set("sph.gravity_s", fn(F::kGravity));
    metrics.set("sph.domain_decomp_s", fn(F::kDomainDecompAndSync));
    metrics.set("sph.other_s", total_s - named);
    metrics.set("sph.particle_steps_per_s", total_s > 0.0 ? particle_steps / total_s : 0.0);
    metrics.set("sph.neighbors_per_particle", neighbors_per_particle);
}

sim::WorkloadTrace record_observed(const sim::WorkloadSpec& spec, SphTimes& times)
{
    // Mirrors sim::record_trace step for step; the physics checks compare
    // the two traces' content hashes on every iteration.
    if (spec.n_steps <= 0) throw std::invalid_argument("record_observed: n_steps <= 0");
    const double start = wall_s();
    sph::SphSimulation simulation = sim::make_simulation(spec);

    sim::WorkloadTrace trace;
    trace.workload_name = sim::to_string(spec.kind);
    trace.kind = spec.kind;
    trace.n_particles_real = static_cast<double>(simulation.particles().size());
    trace.particles_per_gpu = spec.particles_per_gpu;
    trace.steps.reserve(static_cast<std::size_t>(spec.n_steps));

    for (int s = 0; s < spec.n_steps; ++s) {
        sim::StepRecord record;
        double last = wall_s();
        simulation.step([&](sph::SphFunction fn, const gpusim::KernelWork& work) {
            const double now = wall_s();
            times.fn_s[static_cast<std::size_t>(fn)] += now - last;
            record.functions.push_back(sim::FunctionRecord{fn, work});
            last = wall_s();
        });
        trace.steps.push_back(std::move(record));
    }
    const double decomp_start = wall_s();
    trace.halo_surface_prefactor =
        sph::analyze_sfc_decomposition(simulation, 8).surface_prefactor;
    const double stop = wall_s();
    times.decomposition_s += stop - decomp_start;
    times.total_s += stop - start;
    times.particle_steps += trace.n_particles_real * spec.n_steps;
    times.neighbors_per_particle = simulation.mean_neighbor_count();
    return trace;
}

sim::WorkloadTrace record(const sim::WorkloadSpec& spec, SphTimes* times)
{
    Span span("sph.record_trace", "sph");
    return times ? record_observed(spec, *times) : sim::record_trace(spec);
}

sim::RunResult run_policy_timed(const sim::SystemSpec& system,
                                const sim::WorkloadTrace& trace, sim::RunConfig config,
                                core::FrequencyPolicy& policy, HookStats& stats)
{
    policy.configure(config);
    sim::RunHooks inner;
    policy.attach(inner, config.n_ranks);
    stats.before_end_s.assign(static_cast<std::size_t>(config.n_ranks), 0.0);

    // The driver fires every hook on its driving thread, so the counters
    // need no synchronization.
    sim::RunHooks wrapped;
    wrapped.before_function = [&stats, &inner](int rank, gpusim::GpuDevice& dev,
                                               sph::SphFunction fn) {
        const double t0 = wall_s();
        if (inner.before_function) {
            inner.before_function(rank, dev, fn);
            ++stats.hook_calls;
        }
        const double t1 = wall_s();
        if (inner.before_function) stats.hook_s += t1 - t0;
        stats.before_end_s[static_cast<std::size_t>(rank)] = t1;
    };
    wrapped.after_function = [&stats, &inner](int rank, gpusim::GpuDevice& dev,
                                              sph::SphFunction fn,
                                              const gpusim::KernelResult& res) {
        const double t0 = wall_s();
        if (stats.per_call) {
            stats.call_us.push_back(
                (t0 - stats.before_end_s[static_cast<std::size_t>(rank)]) * 1e6);
        }
        if (inner.after_function) {
            inner.after_function(rank, dev, fn, res);
            ++stats.hook_calls;
            stats.hook_s += wall_s() - t0;
        }
    };
    if (inner.after_step) {
        wrapped.after_step = [&stats, &inner](int step) {
            const double t0 = wall_s();
            inner.after_step(step);
            ++stats.hook_calls;
            stats.hook_s += wall_s() - t0;
        };
    }
    return sim::run_instrumented(system, trace, config, wrapped);
}

std::string trace_digest(const sim::WorkloadTrace& trace)
{
    return util::hex64(util::fnv1a64(trace.serialize()));
}

std::string run_digest(const sim::RunResult& result)
{
    return bits(result.makespan_s()) + ':' + bits(result.gpu_energy_j) + ':' +
           bits(result.node_energy_j) + ':' + bits(result.edp()) + ':' +
           bits(result.gpu_edp());
}

double pool_build_us(int threads, int samples)
{
    std::vector<double> times;
    for (int i = 0; i < samples; ++i) {
        const double start = wall_s();
        {
            util::ThreadPool pool(threads);
        }
        times.push_back((wall_s() - start) * 1e6);
    }
    return median(times);
}

} // namespace perfbench
