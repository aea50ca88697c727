/// Distributed-tracing and store-GC behaviour of the tuning service:
///
///   - PolicyStore disk GC: TTL expiry (by backdated mtime), the artifact
///     cap pruning oldest-first, the expired counter, and pruned keys being
///     dropped from the memory tier too;
///   - traceparent round-trip through a live daemon: the response echoes
///     the client's trace id with a server-side child span, the artifact
///     provenance records the trace id, and GET /trace/<id> serves a valid
///     Chrome-trace document with the handler + sweep spans;
///   - concurrent trace emission: parallel POST /tune for distinct requests
///     while /metrics is scraped from other threads; every request's trace
///     must come back balanced and single-trace-id, and the exposition must
///     stay well-formed throughout;
///   - the HTTP client's total deadline: a server that accepts and then
///     stalls surfaces as a "deadline exceeded" error, not a hang.

#include "service/daemon.hpp"

#include "service/policy_store.hpp"
#include "service/tracing.hpp"
#include "sim/workload.hpp"
#include "telemetry/http.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/tracectx.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace gsph::service {
namespace {

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_trace_XXXXXX";
        const char* dir = ::mkdtemp(pattern);
        if (!dir) throw std::runtime_error("mkdtemp failed");
        path_ = dir;
    }
    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        (void)std::system(cmd.c_str());
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

// ---------------------------------------------------------------- store GC

std::size_t artifact_files(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file()) ++n;
    }
    return n;
}

void backdate(const std::string& path, double seconds)
{
    namespace fs = std::filesystem;
    const auto old =
        fs::last_write_time(path) -
        std::chrono::duration_cast<fs::file_time_type::duration>(
            std::chrono::duration<double>(seconds));
    fs::last_write_time(path, old);
}

TEST(PolicyStoreGc, TtlPrunesExpiredArtifacts)
{
    TempDir dir;
    PolicyStoreConfig config;
    config.dir = dir.path();
    config.ttl_s = 3600.0;
    PolicyStore store(config);
    store.put("aaaa", "old artifact");
    store.put("bbbb", "fresh artifact");
    backdate(store.path_for("aaaa"), 7200.0);

    EXPECT_EQ(store.gc(), 1u);
    EXPECT_EQ(store.expired(), 1u);
    EXPECT_FALSE(store.get("aaaa").has_value())
        << "expired artifacts must not be served from the memory tier";
    EXPECT_TRUE(store.get("bbbb").has_value());
    EXPECT_EQ(artifact_files(dir.path()), 1u);
}

TEST(PolicyStoreGc, CapPrunesOldestFirst)
{
    TempDir dir;
    PolicyStoreConfig config;
    config.dir = dir.path();
    config.max_artifacts = 2;
    PolicyStore store(config);
    // put() runs GC, so after the third put only the two newest survive.
    store.put("old1", "a");
    backdate(store.path_for("old1"), 300.0);
    store.put("mid2", "b");
    backdate(store.path_for("mid2"), 200.0);
    store.put("new3", "c");

    EXPECT_EQ(store.expired(), 1u);
    EXPECT_EQ(artifact_files(dir.path()), 2u);
    EXPECT_FALSE(store.get("old1").has_value());
    EXPECT_TRUE(store.get("mid2").has_value());
    EXPECT_TRUE(store.get("new3").has_value());
}

TEST(PolicyStoreGc, RestartPrunesStaleStore)
{
    TempDir dir;
    {
        PolicyStoreConfig config;
        config.dir = dir.path();
        PolicyStore store(config);
        store.put("aaaa", "x");
        store.put("bbbb", "y");
        backdate(store.path_for("aaaa"), 7200.0);
    }
    // A restarted daemon's store construction runs GC over the directory.
    PolicyStoreConfig config;
    config.dir = dir.path();
    config.ttl_s = 3600.0;
    PolicyStore store(config);
    EXPECT_EQ(store.expired(), 1u);
    EXPECT_FALSE(store.get("aaaa").has_value());
    EXPECT_TRUE(store.get("bbbb").has_value());
}

TEST(PolicyStoreGc, DisabledByDefault)
{
    TempDir dir;
    PolicyStoreConfig config;
    config.dir = dir.path();
    PolicyStore store(config);
    store.put("aaaa", "x");
    backdate(store.path_for("aaaa"), 1e7);
    EXPECT_EQ(store.gc(), 0u) << "no ttl and no cap: GC must be a no-op";
    EXPECT_TRUE(store.get("aaaa").has_value());
}

// ------------------------------------------------------------- live daemon

const sim::WorkloadTrace& small_trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 91.125e6;
        spec.n_steps = 2;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

/// Cheap request; distinct `top_clock` values give distinct canonical keys.
TuneRequest small_request(double top_clock = 1410.0)
{
    TuneRequest request;
    request.device = gpusim::a100_pcie_40g();
    request.band = {1005.0, top_clock};
    request.iterations = 2;
    request.trace = small_trace();
    return request;
}

/// Validate one Chrome-trace document: parses, non-empty, every span event
/// is a daemon event carrying `trace_id`, and B/E balance per (pid, tid).
/// Returns the number of span-begin events.
std::size_t check_trace_doc(const std::string& text, const std::string& trace_id)
{
    const telemetry::Json doc = telemetry::Json::parse(text);
    EXPECT_GT(doc.size(), 0u);
    std::map<std::pair<long, long>, long> open;
    std::size_t begins = 0;
    for (const telemetry::Json& event : doc.items()) {
        const std::string phase = event.at("ph").as_string();
        if (phase == "M") continue;
        const auto track = std::make_pair(
            static_cast<long>(event.at("pid").as_number()),
            static_cast<long>(event.at("tid").as_number()));
        EXPECT_EQ(track.first, kServicePid);
        if (phase == "B") {
            ++open[track];
            ++begins;
            EXPECT_EQ(event.at("args").at("trace_id").as_string(), trace_id);
        }
        else if (phase == "E") {
            --open[track];
            EXPECT_GE(open[track], 0) << "E before B on a track";
        }
    }
    for (const auto& [track, depth] : open) {
        EXPECT_EQ(depth, 0) << "unbalanced spans on tid " << track.second;
    }
    return begins;
}

TEST(DaemonTracing, TraceparentRoundTripAndTraceFetch)
{
    DaemonConfig config;
    TuningDaemon daemon(config);
    daemon.start();
    const std::uint16_t port = daemon.port();

    const TuneRequest request = small_request();
    const std::string key = request_key(request);
    const telemetry::TraceContext ctx =
        telemetry::TraceContext::origin("tune|" + key);

    telemetry::HttpClientOptions options;
    options.traceparent = ctx.traceparent();
    telemetry::HttpClientResponse response;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "POST", "/tune",
                                        request.to_json().dump(), response,
                                        options));
    ASSERT_EQ(response.status, 200) << response.body;

    // The response echoes the server-side context: same trace id, but a
    // child span, never the client's own span id.
    telemetry::TraceContext echoed;
    ASSERT_TRUE(
        telemetry::parse_traceparent(response.header("traceparent"), echoed));
    EXPECT_EQ(echoed.trace_id(), ctx.trace_id());
    EXPECT_NE(echoed.span_id(), ctx.span_id());

    // The artifact provenance ties the policy to the trace that produced it.
    const PolicyArtifact artifact = PolicyArtifact::parse(response.body);
    EXPECT_EQ(artifact.trace_id, ctx.trace_id());

    // The daemon serves the finished request's spans by trace id, with the
    // handler span plus one sweep span per swept function.
    telemetry::HttpClientResponse trace;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET",
                                        "/trace/" + ctx.trace_id(), "", trace));
    ASSERT_EQ(trace.status, 200);
    EXPECT_GE(check_trace_doc(trace.body, ctx.trace_id()), 3u);
    EXPECT_NE(trace.body.find("http.POST /tune"), std::string::npos);
    EXPECT_NE(trace.body.find("sweep:"), std::string::npos);
    EXPECT_NE(trace.body.find("artifact.commit"), std::string::npos);

    telemetry::HttpClientResponse missing;
    ASSERT_TRUE(telemetry::http_request(
        "127.0.0.1", port, "GET",
        "/trace/00000000000000000000000000000000", "", missing));
    EXPECT_EQ(missing.status, 404);

    daemon.stop();
}

TEST(DaemonTracing, ConcurrentRequestsEmitSeparateBalancedTraces)
{
    DaemonConfig config;
    config.handler_threads = 4;
    TuningDaemon daemon(config);
    daemon.start();
    const std::uint16_t port = daemon.port();

    const std::vector<double> clocks = {1110.0, 1230.0, 1410.0};
    std::vector<std::string> trace_ids(clocks.size());
    std::vector<int> statuses(clocks.size(), 0);
    std::atomic<bool> scraping{true};
    std::atomic<int> bad_scrapes{0};

    // Metrics scrapers race the tune handlers: the exposition must stay
    // well-formed while labeled series are appended under load.
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 2; ++s) {
        scrapers.emplace_back([&] {
            while (scraping.load()) {
                telemetry::HttpClientResponse scrape;
                if (!telemetry::http_request("127.0.0.1", port, "GET",
                                             "/metrics", "", scrape) ||
                    scrape.status != 200 ||
                    !telemetry::check_exposition(scrape.body).empty()) {
                    ++bad_scrapes;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }

    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        clients.emplace_back([&, i] {
            const TuneRequest request = small_request(clocks[i]);
            const telemetry::TraceContext ctx =
                telemetry::TraceContext::origin("tune|" + request_key(request));
            trace_ids[i] = ctx.trace_id();
            telemetry::HttpClientOptions options;
            options.traceparent = ctx.traceparent();
            telemetry::HttpClientResponse response;
            if (telemetry::http_request("127.0.0.1", port, "POST", "/tune",
                                        request.to_json().dump(), response,
                                        options)) {
                statuses[i] = response.status;
            }
        });
    }
    for (std::thread& t : clients) t.join();
    scraping.store(false);
    for (std::thread& t : scrapers) t.join();
    EXPECT_EQ(bad_scrapes.load(), 0);

    // Distinct requests, distinct trace ids, each with its own balanced
    // trace document.
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        ASSERT_EQ(statuses[i], 200) << "request " << i;
        for (std::size_t j = i + 1; j < clocks.size(); ++j) {
            EXPECT_NE(trace_ids[i], trace_ids[j]);
        }
        telemetry::HttpClientResponse trace;
        ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET",
                                            "/trace/" + trace_ids[i], "",
                                            trace));
        ASSERT_EQ(trace.status, 200) << "trace " << trace_ids[i];
        EXPECT_GE(check_trace_doc(trace.body, trace_ids[i]), 3u);
    }

    // The per-endpoint request plane saw all of it.
    telemetry::HttpClientResponse metrics;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET", "/metrics",
                                        "", metrics));
    EXPECT_NE(
        metrics.body.find(
            "greensph_http_requests_total{endpoint=\"/tune\",code=\"200\"}"),
        std::string::npos);
    EXPECT_NE(metrics.body.find("greensph_slo_burn_rate{endpoint=\"/tune\"}"),
              std::string::npos);

    daemon.stop();
}

TEST(HttpClientDeadline, StalledServerSurfacesAsTimeout)
{
    // A raw socket that accepts connections and never answers.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(fd, 4), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const std::uint16_t port = ntohs(addr.sin_port);

    telemetry::HttpClientOptions options;
    options.timeout_s = 0.2;
    telemetry::HttpClientResponse response;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(telemetry::http_request("127.0.0.1", port, "GET", "/metrics",
                                         "", response, options));
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_NE(response.error.find("deadline exceeded"), std::string::npos)
        << "error was: " << response.error;
    EXPECT_LT(waited, 5.0) << "the deadline must bound the wait";
    ::close(fd);
}

} // namespace
} // namespace gsph::service
