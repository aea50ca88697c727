#pragma once
/// \file tuning_service.hpp
/// \brief Tuning-as-a-service: canonical tune requests, durable policy
///        artifacts, and the singleflight sweep executor.
///
/// A tune request is (device config, frequency band, objective, strategy,
/// iteration counts, workload trace).  Its identity is the FNV-1a/64 hash
/// of a canonical JSON rendering — every device field spelled out, the band
/// resolved (an empty band means the paper band *for that device*, so it is
/// resolved before hashing), and the trace folded to its own content hash.
/// Any perturbation of device config, band, strategy, or trace therefore
/// yields a different key; byte-level JSON formatting of the submitted
/// request does not.
///
/// The artifact produced for a request (schema `greensph.policy/v1`)
/// carries everything needed to rebuild the ManDyn policy bit-identically
/// without re-sweeping: the per-function best-EDP clocks (the frequency
/// table), the candidate clocks actually priced, and the sweep-predicted
/// EDP per function (the controller audit info).  Artifacts embed their
/// canonical request identity, so a consumer can verify an artifact matches
/// its local configuration field by field before trusting it.
///
/// TuningService::tune() is the daemon's engine but has no HTTP in it:
/// store lookup -> singleflight dedup (concurrent identical requests ride
/// one sweep) -> per-function sweeps in function order on the calling
/// thread.  Concurrent distinct requests overlap through the HTTP handler
/// threads; a sweep itself is too cheap to pay for worker threads.

#include "core/controller.hpp"
#include "core/frequency_table.hpp"
#include "gpusim/device_spec.hpp"
#include "service/policy_store.hpp"
#include "service/tracing.hpp"
#include "sim/workload.hpp"
#include "telemetry/json.hpp"
#include "tuning/kernel_tuner.hpp"

#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gsph::service {

/// Vendor wire names ("nvidia" / "amd" / "intel").
const char* to_string(gpusim::Vendor vendor);
gpusim::Vendor vendor_from_string(const std::string& name);

/// Full round-trip of a device spec (every field, declaration order, so
/// the canonical hash sees the whole device).
telemetry::Json device_spec_json(const gpusim::GpuDeviceSpec& spec);
gpusim::GpuDeviceSpec device_spec_from_json(const telemetry::Json& json);

/// One tune request (wire schema `greensph.tune_request/v1`).
struct TuneRequest {
    gpusim::GpuDeviceSpec device;
    std::vector<double> band;   ///< empty: paper_frequency_band(device)
    std::string objective = "edp";
    tuning::SweepStrategy strategy = tuning::SweepStrategy::kExhaustive;
    int iterations = 7;
    tuning::ModelSweepOptions model;
    sim::WorkloadTrace trace;

    /// The band with "empty means paper band" resolved.
    std::vector<double> resolved_band() const;

    telemetry::Json to_json() const;
    /// Strict parse + validation; throws std::invalid_argument with a
    /// request-path-qualified reason.
    static TuneRequest from_json(const telemetry::Json& json);
};

/// Canonical identity of a request: the JSON whose FNV-1a/64 hash is the
/// store key.  The trace appears as its content hash, not its body.
telemetry::Json canonical_identity(const TuneRequest& request);
/// hex64(fnv1a64(canonical_identity(request).dump()))
std::string request_key(const TuneRequest& request);

/// Parsed `greensph.policy/v1` artifact.
struct PolicyArtifact {
    std::string key;
    telemetry::Json identity; ///< canonical request identity (verbatim)
    std::string producer;     ///< provenance: who swept (argv-style)
    /// Provenance: distributed trace id of the request whose sweep produced
    /// this artifact (32 hex chars); empty for untraced producers.  Stored
    /// verbatim, so cache hits return the *producing* request's id.
    std::string trace_id;
    double default_mhz = 0.0;
    long sample_launches = 0; ///< total kernel launches the sweep cost
    struct FunctionEntry {
        sph::SphFunction fn;
        double best_edp_mhz = 0.0;
        double best_energy_mhz = 0.0;
        double predicted_edp = 0.0;
        long launches = 0;
        bool model_fallback = false;
        std::vector<double> candidates; ///< clocks priced, sweep order
    };
    std::vector<FunctionEntry> functions; ///< function order

    std::string dump() const; ///< canonical artifact text (2-space indent)
    static PolicyArtifact parse(const std::string& text);
};

/// Build the artifact for a completed sweep; `trace_id` (may be empty)
/// lands in provenance.
PolicyArtifact artifact_from_sweep(const TuneRequest& request,
                                   const std::vector<tuning::FunctionSweepEntry>& sweep,
                                   const std::string& producer,
                                   const std::string& trace_id = {});

/// Rebuild the ManDyn inputs from an artifact — bit-identical to what
/// table_from_sweep / audit_info_from_sweep produced from the live sweep.
core::FrequencyTable table_from_artifact(const PolicyArtifact& artifact);
core::ControllerAuditInfo audit_info_from_artifact(const PolicyArtifact& artifact);

/// Field-by-field comparison of an artifact's embedded identity against the
/// local request's.  Empty = match; otherwise one human-readable line per
/// differing field ("device.max_compute_mhz: artifact 1410, local 1500").
std::vector<std::string> artifact_mismatches(const PolicyArtifact& artifact,
                                             const TuneRequest& local);

struct ServiceConfig {
    /// Read by nothing: sweeps run serially; kept only because perfbench sets it.
    int n_threads = 1;
    /// Store directory (empty: memory-only) and memory-tier capacity.
    std::string store_dir;
    std::size_t cache_entries = 64;
    /// Disk-tier GC: TTL in seconds (0: never expire) and artifact cap
    /// (0: unbounded); see PolicyStoreConfig.
    double store_ttl_s = 0.0;
    std::size_t store_max_artifacts = 0;
    /// Recorded in artifact provenance (argv-style producer string).
    std::string producer = "greensph tuned";
};

class TuningService {
public:
    explicit TuningService(ServiceConfig config);

    /// Serve one request: store hit, inflight coalesce, or fresh sweep.
    /// Returns the artifact text; `cache_hit` (optional) reports whether a
    /// sweep was avoided.  Throws std::invalid_argument for bad requests;
    /// sweep failures propagate to every coalesced waiter.
    ///
    /// With an active `scope`, spans are recorded for the store lookup, the
    /// singleflight coalesce wait, each per-function sweep and the
    /// artifact commit, and a fresh sweep's artifact carries the scope's
    /// trace id in provenance.
    std::string tune(const TuneRequest& request, bool* cache_hit = nullptr,
                     const TraceScope& scope = {});

    PolicyStore& store() { return store_; }
    const ServiceConfig& config() const { return config_; }
    std::uint64_t sweeps_run() const;

private:
    std::string run_sweep(const TuneRequest& request, const TraceScope& scope);

    ServiceConfig config_;
    PolicyStore store_;

    std::mutex inflight_mutex_;
    std::map<std::string, std::shared_future<std::string>> inflight_;
    std::uint64_t sweeps_ = 0;
    mutable std::mutex sweeps_mutex_;
};

} // namespace gsph::service
