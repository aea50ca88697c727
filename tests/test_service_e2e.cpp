/// End-to-end tuning-service loop over real loopback HTTP: an in-process
/// TuningDaemon, driven with the same telemetry::http_request client the
/// CLI thin client uses.  Submits a tune request twice (second one must be
/// a cache hit witnessed by the service counters), fetches the stored
/// artifact by key, and checks /healthz and /metrics.

#include "service/daemon.hpp"

#include "sim/workload.hpp"
#include "telemetry/http.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gsph::service {
namespace {

TuneRequest e2e_request()
{
    TuneRequest request;
    request.device = gpusim::a100_pcie_40g();
    request.band = {1005.0, 1110.0, 1230.0, 1410.0};
    request.iterations = 2;
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = 91.125e6;
    spec.n_steps = 2;
    spec.real_nside = 6;
    request.trace = sim::record_trace(spec);
    return request;
}

TEST(ServiceE2e, SubmitFetchAndCacheHitOverLoopback)
{
    DaemonConfig config;
    TuningDaemon daemon(config);
    daemon.start();
    const std::uint16_t port = daemon.port();
    ASSERT_NE(port, 0);

    const TuneRequest request = e2e_request();
    const std::string wire = request.to_json().dump();

    telemetry::HttpClientResponse first;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "POST", "/tune",
                                        wire, first));
    ASSERT_EQ(first.status, 200) << first.body;
    const PolicyArtifact artifact = PolicyArtifact::parse(first.body);
    EXPECT_EQ(artifact.key, request_key(request));
    EXPECT_FALSE(artifact.functions.empty());
    EXPECT_EQ(daemon.service().sweeps_run(), 1u);

    // Second identical submission: byte-identical body, no second sweep.
    telemetry::HttpClientResponse second;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "POST", "/tune",
                                        wire, second));
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(daemon.service().sweeps_run(), 1u)
        << "identical re-submission must be served from the store";

    // The stored artifact is retrievable by its canonical key...
    telemetry::HttpClientResponse fetched;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET",
                                        "/policy/" + artifact.key, "", fetched));
    ASSERT_EQ(fetched.status, 200);
    EXPECT_EQ(fetched.body, first.body);

    // ...and an unknown key is a clean 404.
    telemetry::HttpClientResponse missing;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET",
                                        "/policy/0000000000000000", "", missing));
    EXPECT_EQ(missing.status, 404);

    telemetry::HttpClientResponse health;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET", "/healthz",
                                        "", health));
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    // /metrics exposes the cache-hit witness counters CI asserts on.
    telemetry::HttpClientResponse metrics;
    ASSERT_TRUE(telemetry::http_request("127.0.0.1", port, "GET", "/metrics",
                                        "", metrics));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("greensph_service_requests_total"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("greensph_service_cache_hits_total"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("greensph_service_sweeps_total"),
              std::string::npos);

    daemon.stop();
    EXPECT_FALSE(daemon.running());
}

} // namespace
} // namespace gsph::service
