#include "harness.hpp"

#include "layers.hpp"
#include "spans.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double wall_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_s()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so it would report the launcher's peak when that was larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double host_steal_s()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double ticks[8] = {};
    stat >> cpu;
    for (double& t : ticks) stat >> t;
    return cpu == "cpu" ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

int pinned_threads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return n;
    }
    return 1;
}

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    // Two SplitMix64 rounds over (seed, stream).
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    for (int round = 0; round < 2; ++round) {
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
    }
    return z;
}

std::string bits(double value)
{
    std::uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof raw);
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(raw));
    return buffer;
}

// --- metric catalogs --------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_catalog()
{
    static const std::vector<MetricSpec> catalog = {
        {"setup_s", "s"},          {"iter_s", "s"},          {"iter_cpu_s", "s"},
        {"hit_p50_us", "us"},      {"hit_p99_us", "us"},     {"miss_p50_ms", "ms"},
        {"miss_p90_ms", "ms"},     {"requests_per_s", "1/s"}, {"peak_rss_mb", "MB"},
        {"failed_frac", "ratio"},
    };
    return catalog;
}

const std::vector<MetricSpec>& per_layer_catalog()
{
    static const std::vector<MetricSpec> catalog = {
        // sph: physics recording, per function (SphSimulation::step observer)
        {"sph.record_s", "s"},
        {"sph.find_neighbors_s", "s"},
        {"sph.xmass_s", "s"},
        {"sph.normalization_gradh_s", "s"},
        {"sph.iad_s", "s"},
        {"sph.momentum_energy_s", "s"},
        {"sph.gravity_s", "s"},
        {"sph.domain_decomp_s", "s"},
        {"sph.other_s", "s"},
        {"sph.particle_steps_per_s", "1/s"},
        {"sph.neighbors_per_particle", "count"},
        // sim driver, core policy hooks, gpusim kernel model
        {"driver.baseline_s", "s"},
        {"driver.static_1005_s", "s"},
        {"driver.dvfs_s", "s"},
        {"driver.mandyn_exhaustive_s", "s"},
        {"driver.mandyn_model_s", "s"},
        {"driver.online_exhaustive_s", "s"},
        {"driver.online_model_s", "s"},
        {"driver.rank_calls_per_s", "1/s"},
        {"driver.self_s", "s"},
        {"core.hook_s", "s"},
        {"core.hook_calls", "count"},
        {"gpusim.call_us", "us"},
        // tuning sweeps and the util thread pool
        {"tuning.exhaustive_sweep_ms", "ms"},
        {"tuning.model_sweep_ms", "ms"},
        {"tuning.launches_exhaustive", "count"},
        {"tuning.launches_model", "count"},
        {"tuning.model_launch_ratio", "ratio"},
        {"tuning.model_fallbacks", "count"},
        {"pool.build_us", "us"},
        // tuning service and its HTTP front-end
        {"service.parse_us", "us"},
        {"service.trace_serialize_us", "us"},
        {"service.request_key_us", "us"},
        {"service.tune_hit_us", "us"},
        {"service.tune_miss_ms", "ms"},
        {"service.store_get_mem_us", "us"},
        {"service.store_get_disk_us", "us"},
        {"service.store_put_ms", "ms"},
        {"service.store_hit_ratio", "ratio"},
        {"service.sweeps", "count"},
        {"service.misses", "count"},
        {"http.hit_p50_us", "us"},
        {"http.hit_p99_us", "us"},
        {"http.miss_p50_ms", "ms"},
        {"http.miss_p90_ms", "ms"},
        {"http.requests_per_s", "1/s"},
        {"http.hit_overhead_us", "us"},
        {"http.get_policy_p50_us", "us"},
        {"http.request_bytes", "bytes"},
        {"http.response_bytes", "bytes"},
        // fleet simulator
        {"fleet.uncapped_s", "s"},
        {"fleet.uniform_s", "s"},
        {"fleet.negotiated_s", "s"},
        {"fleet.rounds", "count"},
        {"fleet.round_ms", "ms"},
        {"fleet.node_steps_per_s", "1/s"},
        // host threads, per batch workload
        {"physics.thread_speedup", "ratio"},
        {"replay.thread_speedup", "ratio"},
        {"fleet.thread_speedup", "ratio"},
        // the traced run itself
        {"trace.iter_s", "s"},
        {"trace.overhead", "ratio"},
        {"trace.coverage", "ratio"},
        {"failed_frac", "ratio"},
    };
    return catalog;
}

// --- Metrics ----------------------------------------------------------------

Metrics::Metrics(const std::vector<MetricSpec>& catalog)
{
    for (const MetricSpec& spec : catalog) {
        index_[spec.name] = entries_.size();
        entries_.push_back({spec, 0.0, false});
    }
}

void Metrics::set(const std::string& name, double value)
{
    const auto it = index_.find(name);
    if (it == index_.end()) throw std::logic_error("metric not in catalog: " + name);
    entries_[it->second].value = value;
    entries_[it->second].measured = true;
}

double Metrics::get(const std::string& name) const
{
    const auto it = index_.find(name);
    return it == index_.end() ? 0.0 : entries_[it->second].value;
}

void Metrics::print_table(const std::string& title) const
{
    std::cout << title << "\n";
    for (const Entry& e : entries_) {
        std::cout << "  " << std::left << std::setw(30) << e.spec.name << std::right
                  << std::setw(18);
        if (e.measured) {
            std::ostringstream value;
            value << std::setprecision(6) << e.value;
            std::cout << value.str();
        }
        else {
            std::cout << "-";
        }
        std::cout << "  " << e.spec.unit << "\n";
    }
}

std::string Metrics::json() const
{
    std::ostringstream os;
    os << std::setprecision(17) << '{';
    bool first = true;
    for (const Entry& e : entries_) {
        if (!first) os << ", ";
        first = false;
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        os << '"' << e.spec.name << "\": {\"value\": " << v << ", \"unit\": \""
           << e.spec.unit << "\", \"measured\": " << (e.measured ? "true" : "false")
           << '}';
    }
    os << '}';
    return os.str();
}

// --- Checks -----------------------------------------------------------------

bool Checks::expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failed_;
        if (failed_ <= 5) std::cerr << "check failed: " << what << "\n";
    }
    return ok;
}

// --- timed loop -------------------------------------------------------------

LoopSamples timed_loop(double seconds, int min_iterations,
                       const std::function<void()>& run,
                       const std::function<void()>& check)
{
    LoopSamples samples;
    const double steal_start = host_steal_s();
    const double start = wall_s();
    while (static_cast<int>(samples.wall_s.size()) < min_iterations ||
           wall_s() - start < seconds) {
        const double c0 = cpu_s();
        const double w0 = wall_s();
        run();
        samples.wall_s.push_back(wall_s() - w0);
        samples.cpu_s.push_back(cpu_s() - c0);
        check();
    }
    samples.loop_s = wall_s() - start;
    samples.steal_s = host_steal_s() - steal_start;
    return samples;
}

std::string LoopSamples::steal_note(int threads) const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << steal_s << " s stolen, "
       << std::setprecision(1) << 100.0 * steal_s / (loop_s * threads)
       << " % of the loop's CPU capacity";
    return os.str();
}

double timed_setup(int repeats, const std::function<void()>& setup)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        const double start = wall_s();
        setup();
        times.push_back(wall_s() - start);
    }
    return median(times);
}

// --- batch workloads --------------------------------------------------------

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinIterations = 3;

std::string fixed(double value, int digits)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << value;
    return os.str();
}

} // namespace

WorkloadResult run_batch(const Options& opt, BatchWorkload& w)
{
    WorkloadResult out{Metrics(opt.trace ? per_layer_catalog() : end_to_end_catalog()),
                       {},
                       {},
                       {}};
    std::string digest;
    const auto check = [&] {
        out.checks.attempt();
        out.checks.expect(digest == w.reference,
                          w.name + " outputs differ from the 1-thread reference");
        if (w.extra_checks) w.extra_checks(out.checks);
    };
    const auto iterate = [&](int threads, bool traced) {
        Span span(w.name + ".iteration", "harness");
        try {
            digest = w.iterate(threads, traced);
        }
        catch (const std::exception& e) { // counts as a failed operation
            digest = std::string("exception: ") + e.what();
        }
    };

    if (!opt.trace) {
        const double setup_s = timed_setup(opt.tiny() ? 1 : kSetupRepeats, w.setup);
        const LoopSamples loop = timed_loop(
            opt.seconds, kMinIterations, [&] { iterate(opt.threads, false); }, check);
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("iter_s", median(loop.wall_s));
        out.metrics.set("iter_cpu_s", median(loop.cpu_s));
        out.metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics.set("failed_frac", out.checks.failed_frac());
        out.iter_samples = loop.wall_s;
        out.notes.push_back({"iterations", std::to_string(loop.wall_s.size())});
        out.notes.push_back({"iter_s quartiles",
                             fixed(quantile(loop.wall_s, 0.25), 6) + " / " +
                                 fixed(quantile(loop.wall_s, 0.75), 6)});
        out.notes.push_back({"host steal", loop.steal_note(opt.threads)});
        return out;
    }

    w.setup();
    const LoopSamples untraced = timed_loop(
        opt.seconds / 2, kMinIterations, [&] { iterate(opt.threads, false); }, check);

    spans().enable(true);
    std::vector<double> coverage;
    const LoopSamples traced = timed_loop(
        opt.seconds / 2, kMinIterations,
        [&] { iterate(opt.threads, true); },
        [&] {
            const std::vector<SpanRecord> all = spans().snapshot();
            for (auto it = all.rbegin(); it != all.rend(); ++it) {
                if (it->name == w.name + ".iteration") {
                    coverage.push_back(child_coverage(all, it->id));
                    break;
                }
            }
            check();
        });

    // The 1-thread leg: one traced iteration on the serial paths.
    const double start = wall_s();
    iterate(1, true);
    const double serial_s = wall_s() - start;
    check();

    const double untraced_s = median(untraced.wall_s);
    const double traced_s = median(traced.wall_s);
    w.report_layers(out.metrics);
    out.metrics.set(w.name + ".thread_speedup", serial_s / traced_s);
    out.metrics.set("pool.build_us", pool_build_us(opt.threads, 50));
    out.metrics.set("trace.iter_s", traced_s);
    out.metrics.set("trace.overhead", traced_s / untraced_s - 1.0);
    out.metrics.set("trace.coverage", median(coverage));
    out.metrics.set("failed_frac", out.checks.failed_frac());
    out.notes.push_back({"untraced iter_s", fixed(untraced_s, 6) + " s over " +
                                                std::to_string(untraced.wall_s.size()) +
                                                " iterations"});
    out.notes.push_back({"traced iter_s", fixed(traced_s, 6) + " s over " +
                                              std::to_string(traced.wall_s.size()) +
                                              " iterations"});
    out.notes.push_back({"1-thread iteration", fixed(serial_s, 6) + " s"});
    out.notes.push_back({"host steal (traced)", traced.steal_note(opt.threads)});
    return out;
}

} // namespace perfbench
