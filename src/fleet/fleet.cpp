#include "fleet/fleet.hpp"

#include "faults/fault_injector.hpp"
#include "gpusim/kernel_work.hpp"
#include "sim/driver.hpp" // work_jitter
#include "sim/node.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracectx.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

namespace gsph::fleet {

std::vector<JobSpec> generate_jobs(const JobMixConfig& mix)
{
    if (mix.n_jobs <= 0) throw std::invalid_argument("generate_jobs: n_jobs");
    if (mix.max_nodes_per_job <= 0 || mix.min_steps <= 0 ||
        mix.max_steps < mix.min_steps) {
        throw std::invalid_argument("generate_jobs: bad mix shape");
    }
    util::SplitMix64 sm(mix.seed);
    // 53-bit mantissa uniform in [0, 1).
    auto uniform = [&]() { return static_cast<double>(sm.next() >> 11) * 0x1.0p-53; };

    std::vector<JobSpec> jobs;
    double arrival = 0.0;
    for (int j = 0; j < mix.n_jobs; ++j) {
        JobSpec spec;
        spec.id = j;
        spec.name = "fleetjob-" + std::to_string(j);
        spec.n_nodes =
            1 + static_cast<int>(uniform() * static_cast<double>(mix.max_nodes_per_job));
        spec.n_nodes = std::min(spec.n_nodes, mix.max_nodes_per_job);
        spec.n_steps = mix.min_steps +
                       static_cast<int>(uniform() *
                                        static_cast<double>(mix.max_steps - mix.min_steps + 1));
        spec.n_steps = std::min(spec.n_steps, mix.max_steps);
        spec.work_scale =
            mix.work_scale_min + uniform() * (mix.work_scale_max - mix.work_scale_min);
        if (j > 0) arrival += 2.0 * mix.mean_interarrival_s * uniform();
        spec.arrival_s = arrival;
        spec.est_runtime_s =
            spec.n_steps * mix.est_step_s * mix.est_margin + mix.overhead_s;
        spec.deadline_s = spec.arrival_s + spec.est_runtime_s * mix.deadline_slack;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

double estimate_step_s(const sim::SystemSpec& system,
                       const sim::WorkloadTrace& trace)
{
    if (trace.steps.empty()) return 0.0;
    gpusim::GpuDevice dev(system.gpu);
    dev.set_application_clocks(system.gpu.memory_clock_mhz,
                               system.gpu.default_app_clock_mhz);
    const double scale = trace.work_scale();
    for (const sim::StepRecord& step : trace.steps) {
        for (const sim::FunctionRecord& fr : step.functions) {
            dev.execute(gpusim::scaled(fr.work, scale));
        }
    }
    return dev.now() / static_cast<double>(trace.steps.size());
}

namespace {

/// A placed job between start and finish.
struct RunningJob {
    JobSpec spec;
    std::vector<int> nodes; ///< ascending fleet node indices
    double start_s = 0.0;
    double t_s = 0.0; ///< job-local clock; all its nodes are synced here
    int steps_done = 0;
    std::unique_ptr<slurmsim::Job> slurm;
    /// Per (node slot * gpus_per_node + local gpu) energy at job start, for
    /// the GPU-only share in the outcome.
    std::vector<double> gpu_baseline_j;
};

/// Fleet bookkeeping for one node (the sim::Node holds the physics).
struct NodeState {
    double free_at = 0.0;
    bool busy = false;
    double est_free_at = 0.0;
    double demand_w = 0.0;      ///< measured node power over the last step
    double prev_energy_j = 0.0; ///< demand-measurement window start
    double prev_time_s = 0.0;
    double clock_s = 0.0; ///< node-local time (monotone per node)
};

} // namespace

FleetResult run_fleet(const FleetConfig& config)
{
    if (config.n_nodes <= 0) throw std::invalid_argument("run_fleet: n_nodes");
    if (config.trace.steps.empty()) {
        throw std::invalid_argument("run_fleet: empty workload trace");
    }
    config.system.validate();

    // Jobs in arrival order; indices below refer to this sorted vector.
    std::vector<JobSpec> jobs = config.jobs;
    std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
        return a.arrival_s < b.arrival_s;
    });

    const int gpn = config.system.gpus_per_node;
    std::vector<std::unique_ptr<sim::Node>> nodes;
    nodes.reserve(static_cast<std::size_t>(config.n_nodes));
    for (int n = 0; n < config.n_nodes; ++n) {
        nodes.push_back(std::make_unique<sim::Node>(config.system, n));
    }

    const PowerCoordinator coordinator(config.policy, config.budget_w, config.system,
                                       config.n_nodes, config.coordinator_headroom);
    const core::FrequencyTable clock_table =
        config.mandyn_table ? *config.mandyn_table
                            : core::reference_a100_turbulence_table();
    const bool per_kernel_clocks = config.policy == FleetPolicy::kNegotiated;

    const int max_threads = util::ThreadPool::resolve_threads(config.n_threads);

    // Deterministic fleet trace identity: derived from the config hash, so
    // re-runs (and every --threads N) produce the same trace/span ids.
    telemetry::SpanTracer* tracer = config.tracer;
    const telemetry::TraceContext fleet_ctx =
        telemetry::TraceContext::origin("fleet|" + config.config_hash);
    std::set<int> open_job_spans; ///< job ids with a begun lifetime span
    if (tracer) {
        tracer->set_process_name(0, "greensph fleet");
        tracer->set_thread_name(0, 0, "scheduler");
    }

    auto& registry = telemetry::MetricsRegistry::global();
    auto& g_queue_depth = registry.gauge("fleet.queue_depth");
    auto& g_nodes_busy = registry.gauge("fleet.nodes_busy");
    auto& g_jobs_running = registry.gauge("fleet.jobs_running");
    auto& g_cluster_power = registry.gauge("fleet.cluster_power_w");
    auto& g_budget = registry.gauge("fleet.budget_w");
    auto& g_deadline_misses = registry.gauge("fleet.deadline_misses");

    std::vector<NodeState> state(static_cast<std::size_t>(config.n_nodes));
    std::vector<std::size_t> queue; ///< waiting job indices, arrival order
    std::size_t next_arrival = 0;
    std::vector<RunningJob> running;
    std::vector<FleetJobOutcome> outcomes;
    double wait_sum = 0.0;
    int deadline_misses = 0;
    int jobs_completed = 0;
    int round = 0;
    bool paused = false;

    // Everything above is plain construction; a resumed run overwrites all
    // of it below, after collect_sections is defined.
    auto collect_sections = [&](int completed_rounds) {
        std::vector<checkpoint::Section> sections;
        {
            checkpoint::StateWriter w;
            w.put_i64("round", completed_rounds);
            w.put_u64("next_arrival", next_arrival);
            std::vector<std::uint64_t> q(queue.begin(), queue.end());
            w.put_u64_vec("queue", q);
            w.put_f64("wait_sum", wait_sum);
            w.put_i64("deadline_misses", deadline_misses);
            w.put_i64("jobs_completed", jobs_completed);
            for (int n = 0; n < config.n_nodes; ++n) {
                const NodeState& s = state[static_cast<std::size_t>(n)];
                const std::string p = "node." + std::to_string(n) + ".";
                w.put_f64(p + "free_at", s.free_at);
                w.put_bool(p + "busy", s.busy);
                w.put_f64(p + "est_free_at", s.est_free_at);
                w.put_f64(p + "demand_w", s.demand_w);
                w.put_f64(p + "prev_energy_j", s.prev_energy_j);
                w.put_f64(p + "prev_time_s", s.prev_time_s);
                w.put_f64(p + "clock_s", s.clock_s);
            }
            w.put_u64("n_running", running.size());
            for (std::size_t r = 0; r < running.size(); ++r) {
                const RunningJob& rj = running[r];
                const std::string p = "run." + std::to_string(r) + ".";
                // Identify the job by its index in the sorted job vector, so
                // the resumed process (which regenerates the identical job
                // mix) can recover the full spec.
                const auto it = std::find_if(jobs.begin(), jobs.end(),
                                             [&](const JobSpec& j) {
                                                 return j.id == rj.spec.id;
                                             });
                w.put_u64(p + "job_index",
                          static_cast<std::uint64_t>(it - jobs.begin()));
                std::vector<std::uint64_t> nn;
                for (int i : rj.nodes) nn.push_back(static_cast<std::uint64_t>(i));
                w.put_u64_vec(p + "nodes", nn);
                w.put_f64(p + "start_s", rj.start_s);
                w.put_f64(p + "t_s", rj.t_s);
                w.put_i64(p + "steps_done", rj.steps_done);
                w.put_f64_vec(p + "gpu_baseline_j", rj.gpu_baseline_j);
            }
            w.put_u64("n_outcomes", outcomes.size());
            for (std::size_t k = 0; k < outcomes.size(); ++k) {
                const FleetJobOutcome& o = outcomes[k];
                const std::string p = "done." + std::to_string(k) + ".";
                w.put_str(p + "job_id", o.record.job_id);
                w.put_str(p + "job_name", o.record.job_name);
                w.put_f64(p + "elapsed_s", o.record.elapsed_s);
                w.put_f64(p + "consumed_energy_j", o.record.consumed_energy_j);
                w.put_i64(p + "n_nodes", o.record.n_nodes);
                w.put_bool(p + "completed", o.record.completed);
                w.put_f64(p + "arrival_s", o.arrival_s);
                w.put_f64(p + "start_s", o.start_s);
                w.put_f64(p + "finish_s", o.finish_s);
                w.put_f64(p + "deadline_s", o.deadline_s);
                w.put_bool(p + "missed_deadline", o.missed_deadline);
                w.put_f64(p + "gpu_energy_j", o.gpu_energy_j);
            }
            sections.push_back({"fleet", w.str()});
        }
        for (int n = 0; n < config.n_nodes; ++n) {
            sim::Node& node = *nodes[static_cast<std::size_t>(n)];
            checkpoint::StateWriter c;
            node.cpu().save_state(c);
            sections.push_back({"fleet.cpu." + std::to_string(n), c.str()});
            for (int g = 0; g < node.gpu_count(); ++g) {
                checkpoint::StateWriter w;
                node.gpu(g).save_state(w);
                sections.push_back(
                    {"fleet.gpu." + std::to_string(n * gpn + g), w.str()});
            }
            checkpoint::StateWriter p;
            node.counters().save_state(p);
            sections.push_back({"fleet.pm." + std::to_string(n), p.str()});
        }
        for (std::size_t r = 0; r < running.size(); ++r) {
            checkpoint::StateWriter w;
            running[r].slurm->save_state(w);
            sections.push_back({"fleet.job." + std::to_string(r) + ".slurm", w.str()});
        }
        if (config.checkpoint_participants) {
            for (auto& section : config.checkpoint_participants->save_all()) {
                sections.push_back(std::move(section));
            }
        }
        return sections;
    };

    if (config.resume) {
        const checkpoint::Snapshot& snap = *config.resume;
        const checkpoint::StateReader f = snap.reader("fleet");
        round = static_cast<int>(f.get_i64("round"));
        next_arrival = static_cast<std::size_t>(f.get_u64("next_arrival"));
        queue.clear();
        for (std::uint64_t q : f.get_u64_vec("queue")) {
            queue.push_back(static_cast<std::size_t>(q));
        }
        wait_sum = f.get_f64("wait_sum");
        deadline_misses = static_cast<int>(f.get_i64("deadline_misses"));
        jobs_completed = static_cast<int>(f.get_i64("jobs_completed"));
        for (int n = 0; n < config.n_nodes; ++n) {
            NodeState& s = state[static_cast<std::size_t>(n)];
            const std::string p = "node." + std::to_string(n) + ".";
            s.free_at = f.get_f64(p + "free_at");
            s.busy = f.get_bool(p + "busy");
            s.est_free_at = f.get_f64(p + "est_free_at");
            s.demand_w = f.get_f64(p + "demand_w");
            s.prev_energy_j = f.get_f64(p + "prev_energy_j");
            s.prev_time_s = f.get_f64(p + "prev_time_s");
            s.clock_s = f.get_f64(p + "clock_s");
        }
        for (int n = 0; n < config.n_nodes; ++n) {
            sim::Node& node = *nodes[static_cast<std::size_t>(n)];
            node.cpu().restore_state(
                snap.reader("fleet.cpu." + std::to_string(n)));
            for (int g = 0; g < node.gpu_count(); ++g) {
                node.gpu(g).restore_state(
                    snap.reader("fleet.gpu." + std::to_string(n * gpn + g)));
            }
            node.counters().restore_state(
                snap.reader("fleet.pm." + std::to_string(n)));
        }
        const auto n_running = f.get_u64("n_running");
        running.clear();
        for (std::uint64_t r = 0; r < n_running; ++r) {
            const std::string p = "run." + std::to_string(r) + ".";
            RunningJob rj;
            rj.spec = jobs.at(static_cast<std::size_t>(f.get_u64(p + "job_index")));
            for (std::uint64_t i : f.get_u64_vec(p + "nodes")) {
                rj.nodes.push_back(static_cast<int>(i));
            }
            rj.start_s = f.get_f64(p + "start_s");
            rj.t_s = f.get_f64(p + "t_s");
            rj.steps_done = static_cast<int>(f.get_i64(p + "steps_done"));
            rj.gpu_baseline_j = f.get_f64_vec(p + "gpu_baseline_j");
            std::vector<const pmcounters::PmCounters*> counters;
            for (int i : rj.nodes) {
                counters.push_back(&nodes[static_cast<std::size_t>(i)]->counters());
            }
            rj.slurm = std::make_unique<slurmsim::Job>(
                "job" + std::to_string(rj.spec.id), rj.spec.name, std::move(counters));
            rj.slurm->restore_state(
                snap.reader("fleet.job." + std::to_string(r) + ".slurm"));
            running.push_back(std::move(rj));
        }
        const auto n_outcomes = f.get_u64("n_outcomes");
        outcomes.clear();
        for (std::uint64_t k = 0; k < n_outcomes; ++k) {
            const std::string p = "done." + std::to_string(k) + ".";
            FleetJobOutcome o;
            o.record.job_id = f.get_str(p + "job_id");
            o.record.job_name = f.get_str(p + "job_name");
            o.record.elapsed_s = f.get_f64(p + "elapsed_s");
            o.record.consumed_energy_j = f.get_f64(p + "consumed_energy_j");
            o.record.n_nodes = static_cast<int>(f.get_i64(p + "n_nodes"));
            o.record.completed = f.get_bool(p + "completed");
            o.arrival_s = f.get_f64(p + "arrival_s");
            o.start_s = f.get_f64(p + "start_s");
            o.finish_s = f.get_f64(p + "finish_s");
            o.deadline_s = f.get_f64(p + "deadline_s");
            o.missed_deadline = f.get_bool(p + "missed_deadline");
            o.gpu_energy_j = f.get_f64(p + "gpu_energy_j");
            outcomes.push_back(std::move(o));
        }
        if (config.checkpoint_participants) {
            config.checkpoint_participants->restore_all(snap);
        }
    }

    std::optional<checkpoint::CheckpointWriter> ckpt_writer;
    if (config.checkpoint_every > 0 && !config.checkpoint_dir.empty()) {
        ckpt_writer.emplace(config.checkpoint_dir, config.config_hash);
    }

    // ---- round loop -----------------------------------------------------
    while (true) {
        // (1) admission: jobs that have arrived by the fleet time frontier.
        double frontier = 0.0;
        for (const NodeState& s : state) frontier = std::max(frontier, s.clock_s);
        const double round_t0 = frontier;
        int admitted = 0;
        while (next_arrival < jobs.size() &&
               jobs[next_arrival].arrival_s <= frontier) {
            queue.push_back(next_arrival++);
            ++admitted;
        }
        if (queue.empty() && running.empty()) {
            if (next_arrival >= jobs.size()) break; // drained: done
            // Fleet idle but jobs still to come: fast-forward to the next
            // arrival batch (placement start times do the clock jump).
            const double t0 = jobs[next_arrival].arrival_s;
            while (next_arrival < jobs.size() &&
                   jobs[next_arrival].arrival_s <= t0) {
                queue.push_back(next_arrival++);
                ++admitted;
            }
        }

        // (2) schedule the waiting queue onto nodes.
        std::vector<JobSpec> waiting;
        for (std::size_t q : queue) waiting.push_back(jobs[q]);
        std::vector<NodeAvail> avail(state.size());
        for (std::size_t n = 0; n < state.size(); ++n) {
            avail[n] = {state[n].free_at, state[n].busy, state[n].est_free_at};
        }
        const std::vector<Placement> placements = schedule(waiting, avail);
        std::vector<bool> placed(queue.size(), false);
        for (const Placement& p : placements) {
            const std::size_t job_index = queue[p.queue_index];
            const JobSpec& spec = jobs[job_index];
            placed[p.queue_index] = true;

            RunningJob rj;
            rj.spec = spec;
            rj.nodes = p.nodes;
            rj.start_s = p.start_s;
            std::vector<const pmcounters::PmCounters*> counters;
            for (int i : rj.nodes) {
                sim::Node& node = *nodes[static_cast<std::size_t>(i)];
                NodeState& s = state[static_cast<std::size_t>(i)];
                if (p.start_s > s.clock_s) node.sync_to(p.start_s);
                s.clock_s = std::max(s.clock_s, p.start_s);
                counters.push_back(&node.counters());
            }
            rj.slurm = std::make_unique<slurmsim::Job>(
                "job" + std::to_string(spec.id), spec.name, std::move(counters));
            rj.slurm->start(p.start_s); // accounting covers setup, as Slurm does

            // Launch/setup phase: host-heavy, GPUs idle at default clocks.
            const double run_from = p.start_s + config.setup_s;
            for (int i : rj.nodes) {
                sim::Node& node = *nodes[static_cast<std::size_t>(i)];
                NodeState& s = state[static_cast<std::size_t>(i)];
                node.sync_to(run_from, /*cpu_utilization=*/0.5,
                             /*mem_activity=*/0.35);
                for (int g = 0; g < node.gpu_count(); ++g) {
                    gpusim::GpuDevice& dev = node.gpu(g);
                    dev.set_clock_policy(gpusim::ClockPolicy::kLockedAppClock);
                    dev.set_application_clocks(config.system.gpu.memory_clock_mhz,
                                               config.system.gpu.default_app_clock_mhz);
                    rj.gpu_baseline_j.push_back(dev.energy_j());
                }
                s.busy = true;
                s.clock_s = run_from;
                s.est_free_at = p.start_s + spec.est_runtime_s;
                s.demand_w = 0.0; // unknown until the first step completes
                s.prev_energy_j = node.counters().node_energy_j();
                s.prev_time_s = run_from;
            }
            rj.t_s = run_from;
            wait_sum += p.start_s - spec.arrival_s;
            if (tracer) {
                // One Gantt row per job: placement to teardown.
                const int tid = 1 + spec.id;
                const telemetry::TraceContext job_ctx =
                    fleet_ctx.child("job " + std::to_string(spec.id));
                tracer->set_thread_name(0, tid, spec.name);
                tracer->begin(0, tid, spec.name, p.start_s, "fleet.job",
                              {{"trace_id", job_ctx.trace_id()},
                               {"span_id", job_ctx.span_id()},
                               {"nodes", std::to_string(rj.nodes.size())},
                               {"steps", std::to_string(spec.n_steps)}});
                open_job_spans.insert(spec.id);
            }
            running.push_back(std::move(rj));
        }
        std::vector<std::size_t> still_waiting;
        for (std::size_t qi = 0; qi < queue.size(); ++qi) {
            if (!placed[qi]) still_waiting.push_back(queue[qi]);
        }
        queue = std::move(still_waiting);

        // (3) negotiate: budget -> per-node caps -> per-GPU limits.
        std::vector<bool> busy(state.size());
        std::vector<double> demand(state.size());
        for (std::size_t n = 0; n < state.size(); ++n) {
            busy[n] = state[n].busy;
            demand[n] = state[n].demand_w;
        }
        const std::vector<double> caps = coordinator.apportion(busy, demand);
        for (std::size_t n = 0; n < state.size(); ++n) {
            sim::Node& node = *nodes[n];
            const double limit = coordinator.gpu_limit_w(caps[n]);
            for (int g = 0; g < node.gpu_count(); ++g) {
                node.gpu(g).set_power_limit_w(limit);
            }
        }

        // (4) one workload step per running job, parallel over (job, node)
        // work items.  Each item drives only its own node's devices and
        // writes no shared floats, so the result is identical for any
        // thread count; the merge below runs serially in fixed order.
        struct Item {
            std::size_t job;
            int slot;
        };
        std::vector<Item> items;
        for (std::size_t r = 0; r < running.size(); ++r) {
            for (int slot = 0; slot < static_cast<int>(running[r].nodes.size());
                 ++slot) {
                items.push_back({r, slot});
            }
        }
        auto body = [&](std::size_t it) {
            RunningJob& rj = running[items[it].job];
            const int slot = items[it].slot;
            sim::Node& node = *nodes[static_cast<std::size_t>(rj.nodes
                                         [static_cast<std::size_t>(slot)])];
            const sim::StepRecord& step =
                config.trace.steps[static_cast<std::size_t>(rj.steps_done) %
                                   config.trace.steps.size()];
            const double scale = config.trace.work_scale() * rj.spec.work_scale;
            int call = 0;
            for (const sim::FunctionRecord& fr : step.functions) {
                for (int g = 0; g < node.gpu_count(); ++g) {
                    gpusim::GpuDevice& dev = node.gpu(g);
                    if (per_kernel_clocks) {
                        dev.set_application_clocks(
                            config.system.gpu.memory_clock_mhz,
                            clock_table.get(fr.fn));
                    }
                    const int rank_key = rj.spec.id * 65536 + slot * gpn + g;
                    const double jit = sim::work_jitter(config.rank_jitter,
                                                        rank_key, rj.steps_done,
                                                        call);
                    dev.execute(gpusim::scaled(fr.work, scale * jit));
                }
                ++call;
            }
        };
        util::ThreadPool::shared().parallel_for(items.size(), body, max_threads);

        // (5) serial merge: intra-job barrier, sampler catch-up, demand.
        for (RunningJob& rj : running) {
            double t_end = rj.t_s;
            for (int i : rj.nodes) {
                t_end = std::max(t_end,
                                 nodes[static_cast<std::size_t>(i)]->max_gpu_time());
            }
            for (int i : rj.nodes) {
                sim::Node& node = *nodes[static_cast<std::size_t>(i)];
                NodeState& s = state[static_cast<std::size_t>(i)];
                node.sync_to(t_end);
                s.clock_s = t_end;
                const double e = node.counters().node_energy_j();
                const double dt = t_end - s.prev_time_s;
                const double de = e - s.prev_energy_j;
                if (dt > 0.0 && de >= 0.0) s.demand_w = de / dt;
                s.prev_energy_j = e;
                s.prev_time_s = t_end;
            }
            rj.t_s = t_end;
            ++rj.steps_done;
        }

        // (6) completions, in running order.
        std::vector<RunningJob> still_running;
        for (RunningJob& rj : running) {
            if (rj.steps_done < rj.spec.n_steps) {
                still_running.push_back(std::move(rj));
                continue;
            }
            const double t_fin = rj.t_s + config.teardown_s;
            double gpu_energy = 0.0;
            std::size_t b = 0;
            for (int i : rj.nodes) {
                sim::Node& node = *nodes[static_cast<std::size_t>(i)];
                node.sync_to(t_fin);
                for (int g = 0; g < node.gpu_count(); ++g, ++b) {
                    gpu_energy += node.gpu(g).energy_j() - rj.gpu_baseline_j[b];
                }
            }
            rj.slurm->finish(t_fin);

            FleetJobOutcome o;
            o.record = rj.slurm->record();
            o.arrival_s = rj.spec.arrival_s;
            o.start_s = rj.start_s;
            o.finish_s = t_fin;
            o.deadline_s = rj.spec.deadline_s;
            o.missed_deadline = rj.spec.deadline_s > 0.0 && t_fin > rj.spec.deadline_s;
            o.gpu_energy_j = gpu_energy;
            if (o.missed_deadline) ++deadline_misses;
            ++jobs_completed;
            outcomes.push_back(std::move(o));
            if (tracer && open_job_spans.erase(rj.spec.id) > 0) {
                tracer->end(0, 1 + rj.spec.id, t_fin);
            }

            for (int i : rj.nodes) {
                sim::Node& node = *nodes[static_cast<std::size_t>(i)];
                NodeState& s = state[static_cast<std::size_t>(i)];
                for (int g = 0; g < node.gpu_count(); ++g) {
                    node.gpu(g).set_power_limit_w(0.0);
                    node.gpu(g).reset_application_clocks();
                }
                s.busy = false;
                s.free_at = t_fin;
                s.clock_s = t_fin;
                s.est_free_at = t_fin;
                s.demand_w = 0.0;
            }
        }
        running = std::move(still_running);

        // (7) observability, checkpoint, fault window, pause.
        int n_busy = 0;
        double busy_power = 0.0;
        for (const NodeState& s : state) {
            if (s.busy) {
                ++n_busy;
                busy_power += s.demand_w;
            }
        }
        const double cluster_power =
            busy_power + static_cast<double>(config.n_nodes - n_busy) *
                             coordinator.node_idle_w();
        g_queue_depth.set(static_cast<double>(queue.size()));
        g_nodes_busy.set(static_cast<double>(n_busy));
        g_jobs_running.set(static_cast<double>(running.size()));
        g_cluster_power.set(cluster_power);
        g_budget.set(config.budget_w);
        g_deadline_misses.set(static_cast<double>(deadline_misses));

        double round_t1 = round_t0;
        for (const NodeState& s : state) round_t1 = std::max(round_t1, s.clock_s);
        if (tracer) {
            // All timestamps are simulated seconds; the serial phases are
            // instantaneous in sim time, so they nest as zero-width spans at
            // the round start.  Emitted after the fact so the args can carry
            // the round's observed counts.
            const telemetry::TraceContext round_ctx =
                fleet_ctx.child("round " + std::to_string(round));
            tracer->begin(0, 0, "fleet.round", round_t0, "fleet",
                          {{"trace_id", round_ctx.trace_id()},
                           {"span_id", round_ctx.span_id()},
                           {"round", std::to_string(round)}});
            tracer->begin(0, 0, "fleet.admit", round_t0, "fleet",
                          {{"jobs", std::to_string(admitted)}});
            tracer->end(0, 0, round_t0);
            tracer->begin(0, 0, "fleet.schedule", round_t0, "fleet",
                          {{"placed", std::to_string(placements.size())},
                           {"waiting", std::to_string(queue.size())}});
            tracer->end(0, 0, round_t0);
            tracer->begin(0, 0, "fleet.apportion", round_t0, "fleet",
                          {{"policy", to_string(config.policy)},
                           {"budget_w", std::to_string(config.budget_w)}});
            tracer->end(0, 0, round_t0);
            tracer->end(0, 0, round_t1); // fleet.round
            tracer->counter(0, "fleet.queue_depth", round_t1,
                            static_cast<double>(queue.size()));
            tracer->counter(0, "fleet.cluster_power_w", round_t1, cluster_power);
        }
        if (config.monitor) {
            FleetSample sample;
            sample.round = round + 1;
            sample.policy = to_string(config.policy);
            sample.budget_w = config.budget_w;
            sample.frontier_s = round_t1;
            sample.queue_depth = queue.size();
            sample.jobs_running = static_cast<int>(running.size());
            sample.nodes_busy = n_busy;
            sample.cluster_power_w = cluster_power;
            sample.jobs_completed = jobs_completed;
            sample.deadline_misses = deadline_misses;
            if (tracer) sample.trace_id = fleet_ctx.trace_id();
            for (int n = 0; n < config.n_nodes; ++n) {
                const NodeState& s = state[static_cast<std::size_t>(n)];
                sample.nodes.push_back({n, s.busy, s.demand_w,
                                        caps[static_cast<std::size_t>(n)],
                                        s.clock_s});
            }
            config.monitor->publish(std::move(sample));
        }

        ++round;
        if (ckpt_writer && round % config.checkpoint_every == 0) {
            ckpt_writer->write(round, collect_sections(round));
        }
        faults::notify_step_end(round - 1);
        if (config.stop_after_rounds > 0 && round >= config.stop_after_rounds &&
            (!queue.empty() || !running.empty() || next_arrival < jobs.size())) {
            paused = true;
            break;
        }
    }

    // ---- finale: bring every node to the common end time ----------------
    double final_t = 0.0;
    for (const NodeState& s : state) final_t = std::max(final_t, s.clock_s);
    for (int n = 0; n < config.n_nodes; ++n) {
        sim::Node& node = *nodes[static_cast<std::size_t>(n)];
        NodeState& s = state[static_cast<std::size_t>(n)];
        if (final_t > s.clock_s) node.sync_to(final_t);
        s.clock_s = final_t;
    }
    if (tracer) {
        // Paused runs leave jobs mid-flight; close their spans at the pause
        // frontier so the exported trace stays balanced.
        for (int id : open_job_spans) tracer->end(0, 1 + id, final_t);
        open_job_spans.clear();
    }

    FleetResult result;
    result.n_nodes = config.n_nodes;
    result.n_gpus = config.n_nodes * gpn;
    result.rounds = round;
    result.paused = paused;
    if (ckpt_writer) result.checkpoints_written = ckpt_writer->checkpoints_written();
    result.makespan_s = final_t;
    for (int n = 0; n < config.n_nodes; ++n) {
        sim::Node& node = *nodes[static_cast<std::size_t>(n)];
        result.node_energy_j += node.counters().node_energy_j();
        for (int g = 0; g < node.gpu_count(); ++g) {
            result.gpu_energy_j += node.gpu(g).energy_j();
        }
    }
    result.jobs_completed = jobs_completed;
    result.deadline_misses = deadline_misses;
    result.total_wait_s = wait_sum;
    result.jobs = std::move(outcomes);
    return result;
}

std::string format_fleet_sacct(const FleetResult& result)
{
    std::vector<slurmsim::JobRecord> records;
    records.reserve(result.jobs.size());
    for (const FleetJobOutcome& o : result.jobs) records.push_back(o.record);
    return slurmsim::format_sacct(records);
}

} // namespace gsph::fleet
