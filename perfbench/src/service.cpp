/// The service workload: an in-process service::TuningDaemon with a disk
/// store, driven over loopback HTTP by two client threads in a closed loop
/// (each `tune --submit` or `run --policy-from` caller waits for its reply).
///
/// Set-up records the trace `greensph run` records by default, starts the
/// daemon and pre-fills it with a known population of requests larger than
/// the 64-entry memory tier, so repeats hit both the memory and the disk
/// tier.  One iteration is a batch of a fixed composition: 95 % repeats of
/// the population (one in five of them `GET /policy/<key>`) and 5 % never
/// seen requests, each with a band of the same size, so every miss sweeps
/// the same number of clocks and writes one durable artifact.

#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"

#include "service/daemon.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

namespace perfbench {

using namespace gsph;

namespace {

constexpr int kClients = 2;
constexpr int kBandPoints = 7;
constexpr std::size_t kMemoryTier = 64;

enum class OpKind { kHit, kGet, kMiss };

struct Op {
    OpKind kind = OpKind::kHit;
    int key = -1;            ///< population index (hit, get)
    std::string body;        ///< POST body (miss only; hits share bodies)
    std::string miss_key;    ///< expected artifact key (miss)
    // filled by the client thread that served the op
    double latency_s = 0.0;
    int status = 0;
    std::string response;
    std::size_t request_bytes = 0;
};

struct Latencies {
    std::vector<double> hit_us, get_us, miss_ms;
    double request_bytes = 0.0, response_bytes = 0.0;
    long hits = 0;
    long ops = 0;
    double busy_s = 0.0; ///< summed batch wall time
};

class ServiceBench {
public:
    explicit ServiceBench(const Options& opt) : opt_(opt) {}
    ~ServiceBench() { stop(); }
    ServiceBench(const ServiceBench&) = delete;
    ServiceBench& operator=(const ServiceBench&) = delete;

    void setup(int repeat, SphTimes* sph)
    {
        stop();
        sim::WorkloadSpec spec; // `greensph run`'s default recording
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = opt_.tiny() ? 2 : 10;
        spec.real_nside = opt_.tiny() ? 6 : 10;
        spec.seed = derive_seed(opt_.seed, 31);
        trace_ = record(spec, sph);

        store_dir_ = opt_.out_dir + "/service-store-" + std::to_string(::getpid()) + "-" +
                     std::to_string(repeat);
        std::filesystem::remove_all(store_dir_);
        std::filesystem::create_directories(store_dir_);
        service::DaemonConfig cfg;
        cfg.service.n_threads = opt_.threads;
        cfg.service.store_dir = store_dir_;
        cfg.service.cache_entries = kMemoryTier;
        cfg.service.producer = "perfbench";
        daemon_ = std::make_unique<service::TuningDaemon>(cfg);
        {
            Span span("service.TuningDaemon.start", "service");
            daemon_->start();
        }

        offset_mhz_ = static_cast<double>(derive_seed(opt_.seed, 33) % 1024) / 8192.0;
        next_identity_ = 0;
        misses_issued_ = 0;
        population_.clear();
        bodies_.clear();
        keys_.clear();
        expected_.clear();
        const int population = kMemoryTier + (opt_.tiny() ? 8 : 32);
        for (int i = 0; i < population; ++i) {
            population_.push_back(fresh_request());
            bodies_.push_back(population_.back().to_json().dump());
            telemetry::HttpClientResponse response;
            const bool ok = telemetry::http_request("127.0.0.1", daemon_->port(), "POST",
                                                    "/tune", bodies_.back(), response);
            if (!ok || response.status != 200) {
                throw std::runtime_error("pre-fill request failed: " + response.error);
            }
            keys_.push_back(service::request_key(population_.back()));
            if (service::PolicyArtifact::parse(response.body).key != keys_.back()) {
                throw std::runtime_error("pre-fill artifact has the wrong key");
            }
            expected_.push_back(response.body); // the first sweep's bytes
        }
        prefill_sweeps_ = daemon_->service().sweeps_run();
    }

    void stop()
    {
        if (daemon_) daemon_->stop();
        daemon_.reset();
        if (!store_dir_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(store_dir_, ec);
            std::filesystem::remove_all(store_dir_ + "-probe", ec);
        }
    }

    /// Builds the next batch (outside the timed window).
    void prepare_batch(int index)
    {
        const int size = opt_.tiny() ? 20 : 200;
        const int misses = size / 20;
        util::Rng rng(derive_seed(opt_.seed, 1000 + static_cast<std::uint64_t>(index)));
        batch_.assign(static_cast<std::size_t>(size), Op{});
        for (int i = 0; i < size; ++i) {
            Op& op = batch_[static_cast<std::size_t>(i)];
            if (i < misses) {
                op.kind = OpKind::kMiss;
                const service::TuneRequest request = fresh_request();
                op.body = request.to_json().dump();
                op.miss_key = service::request_key(request);
            }
            else {
                op.kind = (i - misses) % 5 == 4 ? OpKind::kGet : OpKind::kHit;
                op.key = static_cast<int>(rng.uniform_index(population_.size()));
            }
        }
        for (std::size_t i = batch_.size() - 1; i > 0; --i) { // seeded shuffle
            std::swap(batch_[i], batch_[rng.uniform_index(i + 1)]);
        }
        if (opt_.corrupt && index == 0) {
            // Damage the reference copy of the first repeat's artifact.
            for (const Op& op : batch_) {
                if (op.kind != OpKind::kMiss) {
                    expected_[static_cast<std::size_t>(op.key)][0] ^= 1;
                    break;
                }
            }
        }
    }

    /// One iteration: the clients drain the batch in a closed loop.
    void run_batch()
    {
        std::atomic<std::size_t> cursor{0};
        const auto client = [&] {
            for (std::size_t i = cursor++; i < batch_.size(); i = cursor++) {
                serve(batch_[i]);
            }
        };
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
        for (std::thread& t : clients) t.join();
    }

    /// Checks every op of the last batch and folds its latencies in.
    void check_batch(Checks& checks, Latencies& lat)
    {
        for (const Op& op : batch_) {
            checks.attempt();
            if (op.kind == OpKind::kMiss) ++misses_issued_;
            if (!checks.expect(op.status == 200,
                               "HTTP status " + std::to_string(op.status))) {
                continue;
            }
            if (op.kind == OpKind::kMiss) {
                bool same_key = false;
                try {
                    same_key = service::PolicyArtifact::parse(op.response).key == op.miss_key;
                }
                catch (const std::exception&) {
                }
                checks.expect(same_key, "miss artifact has the wrong key");
                lat.miss_ms.push_back(op.latency_s * 1e3);
            }
            else {
                checks.expect(op.response == expected_[static_cast<std::size_t>(op.key)],
                              "repeat returned other bytes than the first sweep");
                if (op.kind == OpKind::kHit) {
                    lat.hit_us.push_back(op.latency_s * 1e6);
                    lat.request_bytes += static_cast<double>(op.request_bytes);
                    lat.response_bytes += static_cast<double>(op.response.size());
                    ++lat.hits;
                }
                else {
                    lat.get_us.push_back(op.latency_s * 1e6);
                }
            }
        }
        lat.ops += static_cast<long>(batch_.size());
    }

    /// Every miss ran exactly one sweep.
    void check_sweeps(Checks& checks, long extra_misses)
    {
        checks.attempt();
        const auto swept = daemon_->service().sweeps_run() - prefill_sweeps_;
        checks.expect(swept == static_cast<std::uint64_t>(misses_issued_ + extra_misses),
                      "service ran " + std::to_string(swept) + " sweeps for " +
                          std::to_string(misses_issued_ + extra_misses) + " misses");
    }

    /// In-process per-layer probes (traced run only).
    void probe_layers(Metrics& m, Checks& checks, long& extra_misses);

    long misses_issued() const { return misses_issued_; }
    service::TuningDaemon& daemon() { return *daemon_; }

private:
    service::TuneRequest fresh_request()
    {
        // A band of fixed size whose clocks are shifted by a step no other
        // identity of this run uses (exact binary fractions of a MHz).
        const int id = next_identity_++;
        service::TuneRequest request;
        request.device = sim::mini_hpc().gpu;
        request.trace = trace_;
        for (int k = 0; k < kBandPoints; ++k) {
            request.band.push_back(1005.0 + 67.5 * k - offset_mhz_ - 0.125 * (id + 1));
        }
        return request;
    }

    void serve(Op& op)
    {
        const std::string& body =
            op.kind == OpKind::kMiss ? op.body : bodies_[static_cast<std::size_t>(op.key)];
        telemetry::HttpClientResponse response;
        const char* name = op.kind == OpKind::kHit    ? "http.POST /tune hit"
                           : op.kind == OpKind::kMiss ? "http.POST /tune miss"
                                                      : "http.GET /policy";
        const double start = wall_s();
        bool ok = false;
        {
            Span span(name, "http");
            ok = op.kind == OpKind::kGet
                     ? telemetry::http_request("127.0.0.1", daemon_->port(), "GET",
                                               "/policy/" +
                                                   keys_[static_cast<std::size_t>(op.key)],
                                               "", response)
                     : telemetry::http_request("127.0.0.1", daemon_->port(), "POST",
                                               "/tune", body, response);
        }
        op.latency_s = wall_s() - start;
        op.status = ok ? response.status : -1;
        op.request_bytes = body.size();
        op.response = std::move(response.body);
    }

    const Options& opt_;
    sim::WorkloadTrace trace_;
    std::string store_dir_;
    std::unique_ptr<service::TuningDaemon> daemon_;
    double offset_mhz_ = 0.0;
    int next_identity_ = 0;
    long misses_issued_ = 0;
    std::uint64_t prefill_sweeps_ = 0;
    std::vector<service::TuneRequest> population_;
    std::vector<std::string> bodies_;
    std::vector<std::string> keys_;
    std::vector<std::string> expected_;
    std::vector<Op> batch_;
};

} // namespace

void ServiceBench::probe_layers(Metrics& m, Checks& checks, long& extra_misses)
{
    constexpr int kSamples = 50;
    const auto time_us = [](int samples, const std::function<void(int)>& body) {
        std::vector<double> us;
        for (int i = 0; i < samples; ++i) {
            const double start = wall_s();
            body(i);
            us.push_back((wall_s() - start) * 1e6);
        }
        return median(us);
    };

    m.set("service.parse_us", time_us(kSamples, [&](int i) {
              Span span("service.TuneRequest.from_json", "service");
              const auto request = service::TuneRequest::from_json(telemetry::Json::parse(
                  bodies_[static_cast<std::size_t>(i) % bodies_.size()]));
              checks.attempt();
              checks.expect(request.band == population_[static_cast<std::size_t>(i) %
                                                        bodies_.size()]
                                                .band,
                            "parsed request differs");
          }));
    m.set("service.trace_serialize_us", time_us(kSamples, [&](int) {
              Span span("sim.WorkloadTrace.serialize", "service");
              checks.attempt();
              checks.expect(!trace_.serialize().empty(), "empty trace serialization");
          }));
    m.set("service.request_key_us", time_us(kSamples, [&](int i) {
              Span span("service.request_key", "service");
              const std::size_t k = static_cast<std::size_t>(i) % population_.size();
              checks.attempt();
              checks.expect(service::request_key(population_[k]) == keys_[k],
                            "request key changed");
          }));

    // In-process TuningService::tune, same key mix as the HTTP repeats.
    util::Rng rng(derive_seed(opt_.seed, 34));
    const double tune_hit_us = time_us(4 * kSamples, [&](int) {
        const std::size_t k = rng.uniform_index(population_.size());
        Span span("service.TuningService.tune hit", "service");
        bool hit = false;
        const std::string text = daemon_->service().tune(population_[k], &hit);
        checks.attempt();
        checks.expect(hit && text == expected_[k], "in-process hit differs");
    });
    m.set("service.tune_hit_us", tune_hit_us);
    const int misses = opt_.tiny() ? 2 : 10;
    m.set("service.tune_miss_ms", time_us(misses, [&](int) {
                                      const service::TuneRequest request = fresh_request();
                                      Span span("service.TuningService.tune miss",
                                                "service");
                                      bool hit = true;
                                      daemon_->service().tune(request, &hit);
                                      ++extra_misses;
                                      checks.attempt();
                                      checks.expect(!hit, "fresh request was a hit");
                                  }) /
                                      1e3);

    // The store tiers on a store of their own.
    const std::string dir = store_dir_ + "-probe";
    std::filesystem::remove_all(dir);
    const std::string& text = expected_.front();
    service::PolicyStore store({dir, kMemoryTier, 0.0, 0});
    int put_index = 0;
    m.set("service.store_put_ms", time_us(kSamples, [&](int) {
                                      Span span("service.PolicyStore.put", "service");
                                      checks.attempt();
                                      checks.expect(store.put("probe" + std::to_string(
                                                                            put_index++),
                                                              text),
                                                    "store put failed");
                                  }) /
                                      1e3);
    m.set("service.store_get_mem_us", time_us(kSamples, [&](int) {
              Span span("service.PolicyStore.get memory", "service");
              checks.attempt();
              checks.expect(store.get("probe0") == text, "memory-tier get differs");
          }));
    // A one-entry memory tier: alternating keys always read from disk.
    service::PolicyStore disk_store({dir, 1, 0.0, 0});
    m.set("service.store_get_disk_us", time_us(kSamples, [&](int i) {
              Span span("service.PolicyStore.get disk", "service");
              checks.attempt();
              checks.expect(disk_store.get("probe" + std::to_string(i % 2)) == text,
                            "disk-tier get differs");
          }));
    std::filesystem::remove_all(dir);
}

namespace {

void report_http(Metrics& m, const Latencies& lat, bool end_to_end)
{
    const std::string prefix = end_to_end ? "" : "http.";
    m.set(prefix + "hit_p50_us", quantile(lat.hit_us, 0.50));
    m.set(prefix + "hit_p99_us", quantile(lat.hit_us, 0.99));
    m.set(prefix + "miss_p50_ms", quantile(lat.miss_ms, 0.50));
    m.set(prefix + "miss_p90_ms", quantile(lat.miss_ms, 0.90));
    m.set(prefix + "requests_per_s", static_cast<double>(lat.ops) / lat.busy_s);
}

std::string samples_note(const Latencies& lat)
{
    return std::to_string(lat.hit_us.size()) + " hits, " +
           std::to_string(lat.get_us.size()) + " gets, " +
           std::to_string(lat.miss_ms.size()) + " misses";
}

} // namespace

WorkloadResult run_service(const Options& opt)
{
    WorkloadResult out{Metrics(opt.trace ? per_layer_catalog() : end_to_end_catalog()),
                       {},
                       {},
                       {}};
    ServiceBench bench(opt);
    // Each check prepares the next batch, outside the timed window.
    int batch_index = 0;
    const auto loop = [&](double seconds, Latencies& lat) {
        const LoopSamples samples = timed_loop(
            seconds, 3,
            [&] {
                Span span("service.iteration", "harness");
                bench.run_batch();
            },
            [&] {
                bench.check_batch(out.checks, lat);
                bench.prepare_batch(batch_index++);
            });
        for (double s : samples.wall_s) lat.busy_s += s;
        return samples;
    };

    if (!opt.trace) {
        int repeat = 0;
        const double setup_s =
            timed_setup(opt.tiny() ? 1 : 3, [&] { bench.setup(repeat++, nullptr); });
        bench.prepare_batch(batch_index++);
        Latencies lat;
        const LoopSamples samples = loop(opt.seconds, lat);
        bench.check_sweeps(out.checks, 0);
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("iter_s", median(samples.wall_s));
        out.metrics.set("iter_cpu_s", median(samples.cpu_s));
        report_http(out.metrics, lat, true);
        out.metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics.set("failed_frac", out.checks.failed_frac());
        out.iter_samples = samples.wall_s;
        out.notes.push_back({"batches", std::to_string(samples.wall_s.size())});
        out.notes.push_back({"samples", samples_note(lat)});
        out.notes.push_back({"clients", std::to_string(kClients) + " (closed loop)"});
        out.notes.push_back({"host steal", samples.steal_note(opt.threads)});
        bench.stop();
        return out;
    }

    SphTimes sph;
    bench.setup(0, &sph);
    bench.prepare_batch(batch_index++);
    const auto hits0 = bench.daemon().service().store().hits();
    const auto lookups0 = hits0 + bench.daemon().service().store().misses();
    const auto sweeps0 = bench.daemon().service().sweeps_run();
    Latencies untraced;
    const LoopSamples untraced_samples = loop(opt.seconds / 2, untraced);
    spans().enable(true);
    Latencies traced;
    const LoopSamples traced_samples = loop(opt.seconds / 2, traced);
    const long http_misses = bench.misses_issued();
    const auto hits = bench.daemon().service().store().hits() - hits0;
    const auto lookups =
        bench.daemon().service().store().hits() + bench.daemon().service().store().misses() -
        lookups0;
    const auto sweeps = bench.daemon().service().sweeps_run() - sweeps0;
    long extra_misses = 0;
    bench.probe_layers(out.metrics, out.checks, extra_misses);
    bench.check_sweeps(out.checks, extra_misses);

    sph.report(out.metrics);
    report_http(out.metrics, untraced, false);
    out.metrics.set("service.store_hit_ratio",
                    lookups > 0 ? static_cast<double>(hits) / lookups : 0.0);
    out.metrics.set("service.misses", static_cast<double>(http_misses));
    out.metrics.set("service.sweeps", static_cast<double>(sweeps));
    const double untraced_hit = quantile(untraced.hit_us, 0.5);
    const double traced_hit = quantile(traced.hit_us, 0.5);
    out.metrics.set("http.hit_overhead_us",
                    untraced_hit - out.metrics.get("service.tune_hit_us"));
    out.metrics.set("http.get_policy_p50_us", quantile(untraced.get_us, 0.5));
    out.metrics.set("http.request_bytes",
                    untraced.request_bytes / static_cast<double>(untraced.hits));
    out.metrics.set("http.response_bytes",
                    untraced.response_bytes / static_cast<double>(untraced.hits));
    out.metrics.set("pool.build_us", pool_build_us(opt.threads, 50));
    out.metrics.set("trace.iter_s", median(traced_samples.wall_s));
    out.metrics.set("trace.overhead", traced_hit / untraced_hit - 1.0);
    out.metrics.set("failed_frac", out.checks.failed_frac());
    out.notes.push_back({"untraced hit_p50_us", std::to_string(untraced_hit) + " over " +
                                                    samples_note(untraced)});
    out.notes.push_back({"traced hit_p50_us",
                         std::to_string(traced_hit) + " over " + samples_note(traced)});
    out.notes.push_back({"untraced batch s", std::to_string(median(untraced_samples.wall_s))});
    out.notes.push_back({"host steal (traced)", traced_samples.steal_note(opt.threads)});
    bench.stop();
    return out;
}

} // namespace perfbench
