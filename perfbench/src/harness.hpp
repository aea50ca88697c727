#pragma once
/// \file harness.hpp
/// \brief Shared plumbing of the benchmark harness: options, host-side
///        clocks, metric tables, output checks and the timed loop.
///
/// Every workload follows one shape.  Set-up (inputs from the seed, the
/// 1-thread reference results, daemons, pre-filled stores) runs several
/// times and is reported as `setup_s`; the timed loop then runs whole
/// iterations until `--seconds` have passed and reports medians.  Every
/// iteration's outputs are compared against the reference, and each failed
/// comparison counts in `failed_frac`.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Host threads handed to every greensph call; pinned to nproc.
    int threads = 1;
    /// "full" for measurements, "tiny" for the smoke test.
    std::string size = "full";
    bool tiny() const { return size == "tiny"; }
    /// Corrupt one artifact copy on purpose (smoke test of the checks).
    bool corrupt = false;
    std::string out_dir = ".bench_out";
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

// --- host clocks ------------------------------------------------------------

double wall_s();        ///< steady clock, seconds
double cpu_s();         ///< process CPU time (user + sys, all threads)
double peak_rss_mb();   ///< peak resident set of the process
int pinned_threads();   ///< CPUs this process may run on (nproc)
/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// (/proc/stat "steal"); the main source of run-to-run noise on a VM.
double host_steal_s();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Deterministic 64-bit stream derived from (seed, stream id).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Bit-exact rendering of a double, for output digests.
std::string bits(double value);

// --- metrics ----------------------------------------------------------------

struct MetricSpec {
    std::string name;
    std::string unit;
};

/// Every metric the harness can print, in print order: the end-to-end set
/// (tracing off) and the per-layer set (the traced run).
const std::vector<MetricSpec>& end_to_end_catalog();
const std::vector<MetricSpec>& per_layer_catalog();

/// A metric table seeded from a catalog: every name prints, those a
/// workload does not measure print as "-" and report 0 in the JSON line.
class Metrics {
public:
    explicit Metrics(const std::vector<MetricSpec>& catalog);
    /// Throws std::logic_error for a name outside the catalog.
    void set(const std::string& name, double value);
    double get(const std::string& name) const;

    void print_table(const std::string& title) const;
    std::string json() const; ///< {"name": {"value": v, "unit": u}, ...}

private:
    struct Entry {
        MetricSpec spec;
        double value = 0.0;
        bool measured = false;
    };
    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> index_;
};

// --- output checks ----------------------------------------------------------

/// Counts operations and failed output checks.  An operation that throws,
/// answers with a non-200 status or fails a comparison is one failure.
class Checks {
public:
    void attempt(long n = 1) { attempted_ += n; }
    /// Records a failure when !ok; the first few are described on stderr.
    bool expect(bool ok, const std::string& what);

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }
    double failed_frac() const
    {
        return attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
    }

private:
    long attempted_ = 0;
    long failed_ = 0;
};

// --- the timed loop ---------------------------------------------------------

struct LoopSamples {
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    double steal_s = 0.0; ///< host steal over the whole loop
    double loop_s = 0.0;  ///< wall time of the whole loop
    /// "<steal> s stolen, <share> % of the loop's CPU capacity".
    std::string steal_note(int threads) const;
};

/// Runs run() until `seconds` of wall time have passed and at least
/// `min_iterations` ran; samples each call's wall and CPU time.  check()
/// follows every run() outside the sampled time.
LoopSamples timed_loop(double seconds, int min_iterations,
                       const std::function<void()>& run,
                       const std::function<void()>& check);

/// Runs `setup` `repeats` times and returns the median wall time.
double timed_setup(int repeats, const std::function<void()>& setup);

// --- workloads --------------------------------------------------------------

/// What a workload run hands back to main().
struct WorkloadResult {
    Metrics metrics;
    Checks checks;
    /// Extra lines for the human-readable report and the run record
    /// (tracing overhead, span shares, inputs used).
    std::vector<std::pair<std::string, std::string>> notes;
    /// Every timed iteration's wall time, in run order (run record only).
    std::vector<double> iter_samples;
};

/// A batch workload (physics, replay, fleet): iterations that return a
/// digest of their outputs, compared bit for bit with a 1-thread reference.
struct BatchWorkload {
    std::string name;
    /// Builds the inputs from the seed and computes the reference digest.
    std::function<void()> setup;
    /// One iteration on `threads` host threads; `traced` records spans and
    /// per-layer statistics.  Returns the digest of the outputs.
    std::function<std::string(int threads, bool traced)> iterate;
    std::string reference;
    /// Extra output checks on the last iteration (beyond the digest).
    std::function<void(Checks&)> extra_checks;
    /// Per-layer medians over the traced iterations (and the 1-thread leg).
    std::function<void(Metrics&)> report_layers;
};

/// Runs a batch workload: the end-to-end loop, or with opt.trace an
/// untraced and a traced loop of half the time each, then one traced
/// 1-thread iteration for `<name>.thread_speedup`.
WorkloadResult run_batch(const Options& opt, BatchWorkload& workload);

/// Each workload fills the end-to-end table (tracing off) or, with
/// opt.trace, the per-layer table from a traced run.
WorkloadResult run_physics(const Options& opt);
WorkloadResult run_replay(const Options& opt);
WorkloadResult run_service(const Options& opt);
WorkloadResult run_fleet(const Options& opt);

} // namespace perfbench
