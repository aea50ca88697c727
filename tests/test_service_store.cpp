/// PolicyStore / TuningService correctness: canonical request hashing (any
/// device/band/strategy/trace perturbation changes the key), byte-identical
/// artifacts with cache hits for identical requests, singleflight dedup
/// under concurrent hammering (exactly one sweep per unique hash), durable
/// disk reload across service instances, LRU eviction, and the
/// artifact -> (table, audit) reconstruction being bit-identical to the
/// live-sweep producers.

#include "service/tuning_service.hpp"

#include "service/policy_store.hpp"
#include "sim/workload.hpp"
#include "tuning/kernel_tuner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gsph::service {
namespace {

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_store_XXXXXX";
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

/// A short band and low iteration count keep test sweeps cheap.
TuneRequest small_request()
{
    TuneRequest request;
    request.device = gpusim::a100_pcie_40g();
    request.band = {1005.0, 1110.0, 1230.0, 1410.0};
    request.iterations = 2;
    request.trace = small_trace();
    return request;
}

ServiceConfig memory_config()
{
    ServiceConfig cfg;
    cfg.producer = "test";
    return cfg;
}

TEST(RequestKey, StableForIdenticalRequests)
{
    EXPECT_EQ(request_key(small_request()), request_key(small_request()));
}

TEST(RequestKey, EveryPerturbationChangesTheKey)
{
    const std::string base = request_key(small_request());

    auto perturbed = small_request();
    perturbed.device.sm_dynamic_w += 1.0;
    EXPECT_NE(request_key(perturbed), base) << "device power-model field";

    perturbed = small_request();
    perturbed.device.max_compute_mhz = 1500.0;
    perturbed.device.default_app_clock_mhz = 1500.0;
    EXPECT_NE(request_key(perturbed), base) << "device clock field";

    perturbed = small_request();
    perturbed.device.governor.voltage_guard += 0.01;
    EXPECT_NE(request_key(perturbed), base) << "governor field";

    perturbed = small_request();
    perturbed.band.push_back(1395.0);
    EXPECT_NE(request_key(perturbed), base) << "band";

    perturbed = small_request();
    perturbed.strategy = tuning::SweepStrategy::kModel;
    EXPECT_NE(request_key(perturbed), base) << "strategy";

    perturbed = small_request();
    perturbed.iterations = 3;
    EXPECT_NE(request_key(perturbed), base) << "iterations";

    perturbed = small_request();
    perturbed.trace.steps.pop_back();
    EXPECT_NE(request_key(perturbed), base) << "trace";
}

TEST(RequestKey, EmptyBandHashesAsThePaperBand)
{
    // "band omitted" and "band spelled out as the paper band" are the same
    // request — the canonical identity resolves before hashing.
    auto omitted = small_request();
    omitted.band.clear();
    auto spelled = small_request();
    spelled.band = tuning::paper_frequency_band(spelled.device);
    EXPECT_EQ(request_key(omitted), request_key(spelled));
}

TEST(RequestKey, WireFormatDoesNotAffectTheKey)
{
    // Round-tripping through the wire JSON (different formatting, same
    // content) must not change the identity.
    const TuneRequest request = small_request();
    const TuneRequest reparsed = TuneRequest::from_json(request.to_json());
    EXPECT_EQ(request_key(reparsed), request_key(request));
}

TEST(TuningService, IdenticalRequestsAreByteIdenticalAndCached)
{
    TempDir dir;
    ServiceConfig cfg = memory_config();
    cfg.store_dir = dir.path();
    TuningService service(cfg);

    bool hit = true;
    const std::string first = service.tune(small_request(), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(service.sweeps_run(), 1u);

    const std::string second = service.tune(small_request(), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(service.sweeps_run(), 1u) << "cache hit must not re-sweep";
    EXPECT_EQ(first, second) << "served artifact must be byte-identical";

    // And the artifact's embedded key matches the canonical request key.
    EXPECT_EQ(PolicyArtifact::parse(first).key, request_key(small_request()));
}

TEST(TuningService, PerturbedRequestMissesAndSweepsAgain)
{
    TuningService service(memory_config());
    bool hit = true;
    (void)service.tune(small_request(), &hit);
    EXPECT_FALSE(hit);

    auto perturbed = small_request();
    perturbed.device.gather_bw_eff += 0.05;
    (void)service.tune(perturbed, &hit);
    EXPECT_FALSE(hit) << "device perturbation must not reuse the cache";
    EXPECT_EQ(service.sweeps_run(), 2u);
}

TEST(TuningService, ConcurrentHammeringRunsOneSweepPerUniqueHash)
{
    TuningService service(memory_config());
    const TuneRequest req_a = small_request();
    TuneRequest req_b = small_request();
    req_b.iterations = 3; // second unique hash

    // 4 threads x 3 requests each, alternating over the two unique
    // requests: the singleflight map must collapse them to exactly two
    // sweeps, and every response for a key must be identical.
    std::vector<std::thread> threads;
    std::vector<std::string> results(12);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t, &service, &req_a, &req_b, &results] {
            for (int i = 0; i < 3; ++i) {
                const int slot = t * 3 + i;
                results[static_cast<std::size_t>(slot)] =
                    service.tune(slot % 2 == 0 ? req_a : req_b);
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(service.sweeps_run(), 2u) << "one sweep per unique hash";
    for (std::size_t slot = 2; slot < results.size(); ++slot) {
        EXPECT_EQ(results[slot], results[slot % 2]);
    }
}

TEST(TuningService, DiskArtifactsSurviveServiceRestarts)
{
    TempDir dir;
    ServiceConfig cfg = memory_config();
    cfg.store_dir = dir.path();

    std::string first;
    {
        TuningService service(cfg);
        first = service.tune(small_request());
        EXPECT_EQ(service.sweeps_run(), 1u);
    }
    {
        TuningService service(cfg); // fresh instance, cold memory tier
        bool hit = false;
        const std::string second = service.tune(small_request(), &hit);
        EXPECT_TRUE(hit) << "disk tier must serve across restarts";
        EXPECT_EQ(service.sweeps_run(), 0u);
        EXPECT_EQ(first, second);
    }
}

TEST(PolicyStore, LruEvictsButDiskRemainsAuthoritative)
{
    TempDir dir;
    PolicyStore store(PolicyStoreConfig{dir.path(), 2});
    EXPECT_TRUE(store.put("k1", "one"));
    EXPECT_TRUE(store.put("k2", "two"));
    EXPECT_TRUE(store.put("k3", "three")); // evicts k1 from memory
    EXPECT_EQ(store.evictions(), 1u);

    const auto k1 = store.get("k1"); // re-admitted from disk
    ASSERT_TRUE(k1.has_value());
    EXPECT_EQ(*k1, "one");
    EXPECT_EQ(store.misses(), 0u);

    EXPECT_FALSE(store.get("absent").has_value());
    EXPECT_EQ(store.misses(), 1u);
}

TEST(PolicyStore, MemoryOnlyEvictionLosesTheEntry)
{
    PolicyStore store(PolicyStoreConfig{"", 1});
    EXPECT_TRUE(store.put("k1", "one"));
    EXPECT_TRUE(store.put("k2", "two"));
    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_FALSE(store.get("k1").has_value());
    ASSERT_TRUE(store.get("k2").has_value());
}

TEST(PolicyArtifact, ReconstructionMatchesLiveSweepProducers)
{
    const TuneRequest request = small_request();
    tuning::SweepOptions options;
    options.frequencies = request.band;
    options.iterations = request.iterations;
    const auto sweep =
        tuning::sweep_sph_functions(request.trace, request.device, options);

    const PolicyArtifact artifact = PolicyArtifact::parse(
        artifact_from_sweep(request, sweep, "test").dump());

    // Frequency table: identical serialization, not just close values.
    EXPECT_EQ(table_from_artifact(artifact).serialize(),
              tuning::table_from_sweep(sweep,
                                       request.device.default_app_clock_mhz)
                  .serialize());

    // Audit info: same candidate union and per-function predictions.
    const auto live = tuning::audit_info_from_sweep(sweep);
    const auto restored = audit_info_from_artifact(artifact);
    EXPECT_EQ(restored.policy, live.policy);
    EXPECT_EQ(restored.candidate_mhz, live.candidate_mhz);
    for (std::size_t f = 0; f < live.predicted_edp.size(); ++f) {
        EXPECT_EQ(restored.predicted_edp[f], live.predicted_edp[f]) << "fn " << f;
    }
}

TEST(PolicyArtifact, MismatchLinesNameTheDifferingFields)
{
    const TuneRequest request = small_request();
    tuning::SweepOptions options;
    options.frequencies = request.band;
    options.iterations = request.iterations;
    const auto sweep =
        tuning::sweep_sph_functions(request.trace, request.device, options);
    const PolicyArtifact artifact = artifact_from_sweep(request, sweep, "test");

    EXPECT_TRUE(artifact_mismatches(artifact, request).empty());

    auto other = small_request();
    other.device.idle_w += 5.0;
    const auto lines = artifact_mismatches(artifact, other);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("device.idle_w"), std::string::npos);

    other = small_request();
    other.trace.steps.pop_back();
    const auto trace_lines = artifact_mismatches(artifact, other);
    ASSERT_EQ(trace_lines.size(), 1u);
    EXPECT_NE(trace_lines[0].find("trace_hash"), std::string::npos);
}

TEST(TuneRequest, RejectsInvalidRequestsWithReasons)
{
    const TuneRequest request = small_request();

    auto json = request.to_json();
    json["objective"] = "ed2p";
    EXPECT_THROW(TuneRequest::from_json(json), std::invalid_argument);

    json = request.to_json();
    json["iterations"] = 0;
    EXPECT_THROW(TuneRequest::from_json(json), std::invalid_argument);

    json = request.to_json();
    json["schema"] = "greensph.tune_request/v2";
    EXPECT_THROW(TuneRequest::from_json(json), std::invalid_argument);

    json = request.to_json();
    json["device"]["vendor"] = "quantum";
    EXPECT_THROW(TuneRequest::from_json(json), std::invalid_argument);
}

} // namespace
} // namespace gsph::service
