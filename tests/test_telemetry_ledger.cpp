/// Attribution ledger acceptance contracts: every loop-window joule lands
/// in exactly one (rank × function × phase × frequency) bucket and the
/// bucket sum telescopes back to the run's GPU energy (<= 1e-9 relative);
/// every actual frequency change in a ManDyn run maps to exactly one
/// audited decision joined with predicted + realized EDP; ledgers are
/// bit-identical across thread counts and across checkpoint round trips;
/// and the exporter-facing views (top-N exposition, attribution JSON) stay
/// format-clean.

#include "core/frequency_table.hpp"
#include "core/policy.hpp"
#include "checkpoint/state.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "tuning/kernel_tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

namespace gsph::telemetry {
namespace {

const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 50e6;
        spec.n_steps = 6;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

/// ManDyn inputs with real sweep-backed predictions, computed once: the
/// frequency table and the audit info (candidate set, per-function
/// predicted EDP) the CLI would pass.
struct TunedManDyn {
    core::FrequencyTable table{1005.0}; ///< placeholder; replaced by the sweep
    core::ControllerAuditInfo audit;
};

const TunedManDyn& tuned()
{
    static const TunedManDyn t = [] {
        const auto spec = sim::mini_hpc().gpu;
        const auto sweep = tuning::sweep_sph_functions(trace(), spec);
        TunedManDyn out;
        out.table = tuning::table_from_sweep(sweep, spec.default_app_clock_mhz);
        out.audit = tuning::audit_info_from_sweep(sweep);
        return out;
    }();
    return t;
}

sim::RunConfig cfg(int ranks, int threads = 1)
{
    sim::RunConfig c;
    c.n_ranks = ranks;
    c.n_threads = threads;
    c.setup_s = 2.0;
    return c;
}

sim::RunResult run_with_ledger(AttributionLedger& ledger, int ranks,
                               int threads = 1)
{
    sim::RunHooks hooks;
    ledger.attach(hooks);
    auto policy =
        core::make_mandyn_policy(tuned().table, tuned().audit);
    return core::run_with_policy(sim::mini_hpc(), trace(), cfg(ranks, threads),
                                 *policy, hooks);
}

std::string slurp(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string temp_path(const char* tag)
{
    return testing::TempDir() + "gsph_ledger_" + tag + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

// ------------------------------------------------------------ attribution ---

TEST(AttributionLedger, RejectsBadRankCount)
{
    EXPECT_THROW(AttributionLedger{0}, std::invalid_argument);
    EXPECT_THROW(AttributionLedger{-3}, std::invalid_argument);
}

TEST(AttributionLedger, BucketSumTelescopesToRunGpuEnergy)
{
    MetricsRegistry::global().reset();
    AttributionLedger ledger(2);
    const auto result = run_with_ledger(ledger, 2);

    // The acceptance bound: per-kernel attributed energy sums to the total
    // loop-window GPU energy within 1e-9 relative error.
    ASSERT_GT(result.gpu_energy_j, 0.0);
    EXPECT_NEAR(ledger.attributed_energy_j(), result.gpu_energy_j,
                1e-9 * result.gpu_energy_j);
    EXPECT_GT(ledger.attributed_time_s(), 0.0);
    EXPECT_EQ(ledger.steps_completed(), result.n_steps);

    // Buckets arrive in deterministic (rank, function, phase, freq) order
    // and every cell carries real accumulation.
    const auto buckets = ledger.buckets();
    ASSERT_FALSE(buckets.empty());
    double sum = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const AttributionBucket& b = buckets[i];
        EXPECT_GE(b.rank, 0);
        EXPECT_LT(b.rank, 2);
        EXPECT_GE(b.function, 0);
        EXPECT_LT(b.function, sph::kSphFunctionCount);
        EXPECT_GT(b.freq_mhz, 0.0);
        EXPECT_GE(b.time_s, 0.0);
        if (b.phase == LedgerPhase::kKernel) {
            EXPECT_GT(b.calls, 0) << "kernel bucket " << i << " without calls";
        }
        sum += b.energy_j;
        if (i > 0) {
            const AttributionBucket& prev = buckets[i - 1];
            EXPECT_TRUE(prev.rank < b.rank ||
                        (prev.rank == b.rank && prev.function <= b.function))
                << "bucket order broken at " << i;
        }
    }
    EXPECT_DOUBLE_EQ(sum, ledger.attributed_energy_j());

    // Both ranks executed every step's kernels: per-rank kernel call totals
    // must match across ranks.
    long calls_rank0 = 0, calls_rank1 = 0;
    for (const AttributionBucket& b : buckets) {
        if (b.phase != LedgerPhase::kKernel) continue;
        (b.rank == 0 ? calls_rank0 : calls_rank1) += b.calls;
    }
    EXPECT_GT(calls_rank0, 0);
    EXPECT_EQ(calls_rank0, calls_rank1);
}

TEST(AttributionLedger, AttachingTheLedgerDoesNotPerturbTheRun)
{
    // Same contract the LiveSampler proves: observation must not change
    // the observed run, bit for bit, at any thread count.
    for (int threads : {1, 4}) {
        auto bare_policy = core::make_mandyn_policy(tuned().table, tuned().audit);
        const auto bare = core::run_with_policy(sim::mini_hpc(), trace(),
                                                cfg(2, threads), *bare_policy);

        MetricsRegistry::global().reset();
        AttributionLedger ledger(2);
        const auto watched = run_with_ledger(ledger, 2, threads);

        EXPECT_EQ(watched.gpu_energy_j, bare.gpu_energy_j) << threads << " threads";
        EXPECT_EQ(watched.node_energy_j, bare.node_energy_j) << threads << " threads";
        EXPECT_EQ(watched.makespan_s(), bare.makespan_s()) << threads << " threads";
        EXPECT_EQ(watched.edp(), bare.edp()) << threads << " threads";
    }
}

// --------------------------------------------------------- decision audit ---

TEST(AttributionLedger, EveryFrequencyChangeHasExactlyOneAuditedDecision)
{
    MetricsRegistry::global().reset();
    AttributionLedger ledger(2);
    run_with_ledger(ledger, 2);

    // Independent witness for "actual frequency changes": the controller
    // counts every apply() and every same-clock skip; in a fault-free run
    // each non-skipped apply is exactly one successful backend set.
    auto& reg = MetricsRegistry::global();
    const double changes = reg.value("controller.apply.calls") -
                           reg.value("controller.skipped.calls");
    ASSERT_GT(changes, 0.0);
    const auto decisions = ledger.decisions();
    EXPECT_EQ(static_cast<double>(decisions.size()), changes);
    EXPECT_EQ(ledger.decision_count(), decisions.size());
    EXPECT_EQ(reg.value("ledger.decisions"), static_cast<double>(decisions.size()));
    EXPECT_EQ(reg.value("ledger.decisions_resolved"),
              static_cast<double>(decisions.size()));

    std::int64_t last_id = -1;
    for (const AuditedDecision& d : decisions) {
        EXPECT_EQ(d.id, last_id + 1); // gap-free decision-time sequence
        last_id = d.id;
        EXPECT_GE(d.step, 0);
        EXPECT_EQ(d.record.policy, "ManDyn");
        EXPECT_GE(d.record.rank, 0);
        EXPECT_LT(d.record.rank, 2);
        ASSERT_GE(d.record.function, 0);
        EXPECT_LT(d.record.function, sph::kSphFunctionCount);
        EXPECT_GT(d.record.chosen_mhz, 0.0);
        // The chosen clock came out of the audited candidate set.
        ASSERT_FALSE(d.record.candidate_mhz.empty());
        bool in_candidates = false;
        for (double c : d.record.candidate_mhz) {
            if (c == d.record.chosen_mhz) in_candidates = true;
        }
        EXPECT_TRUE(in_candidates) << d.record.chosen_mhz;
        // Predicted at decision time, realized measured by the ledger.
        EXPECT_GT(d.record.predicted_edp, 0.0);
        EXPECT_TRUE(d.resolved);
        EXPECT_GT(d.realized_edp, 0.0);
        ASSERT_FALSE(d.record.inputs.empty());
        EXPECT_EQ(d.record.inputs.front().first, "previous_mhz");
    }
}

// ------------------------------------------------------------ determinism ---

TEST(AttributionLedger, JsonlBitIdenticalAcrossThreadCounts)
{
    const std::string path1 = temp_path("t1");
    const std::string path4 = temp_path("t4");
    {
        MetricsRegistry::global().reset();
        AttributionLedger ledger(2);
        run_with_ledger(ledger, 2, /*threads=*/1);
        ASSERT_TRUE(ledger.write_jsonl(path1));
    }
    {
        MetricsRegistry::global().reset();
        AttributionLedger ledger(2);
        run_with_ledger(ledger, 2, /*threads=*/4);
        ASSERT_TRUE(ledger.write_jsonl(path4));
    }
    const std::string serial = slurp(path1);
    const std::string parallel = slurp(path4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    std::remove(path1.c_str());
    std::remove(path4.c_str());
}

TEST(AttributionLedger, CheckpointRoundTripIsBitExact)
{
    MetricsRegistry::global().reset();
    AttributionLedger ledger(2);
    run_with_ledger(ledger, 2);

    checkpoint::StateWriter saved;
    ledger.save_state(saved);
    AttributionLedger restored(2);
    restored.restore_state(checkpoint::StateReader("ledger", saved.str()));

    checkpoint::StateWriter again;
    restored.save_state(again);
    EXPECT_EQ(again.str(), saved.str());

    // The user-visible artifact must survive the round trip byte for byte.
    const std::string path_a = temp_path("orig");
    const std::string path_b = temp_path("restored");
    ASSERT_TRUE(ledger.write_jsonl(path_a));
    ASSERT_TRUE(restored.write_jsonl(path_b));
    EXPECT_EQ(slurp(path_a), slurp(path_b));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());

    EXPECT_EQ(restored.decision_count(), ledger.decision_count());
    EXPECT_EQ(restored.steps_completed(), ledger.steps_completed());
    EXPECT_DOUBLE_EQ(restored.attributed_energy_j(), ledger.attributed_energy_j());

    AttributionLedger wrong_shape(3);
    EXPECT_THROW(
        wrong_shape.restore_state(checkpoint::StateReader("ledger", saved.str())),
        checkpoint::CheckpointError);
}

// -------------------------------------------------------------- exposures ---

TEST(AttributionLedger, TopExpositionPassesFormatChecker)
{
    MetricsRegistry::global().reset();
    AttributionLedger ledger(2);
    run_with_ledger(ledger, 2);

    const std::string body = ledger.top_exposition();
    std::vector<ExpositionSample> samples;
    const auto issues = check_exposition(body, &samples);
    std::string text;
    for (const ExpositionIssue& issue : issues) {
        text += issue.message + " @ " + issue.line + "\n";
    }
    EXPECT_TRUE(issues.empty()) << text;

    double total_gauge = -1.0;
    std::size_t labeled_buckets = 0;
    for (const ExpositionSample& s : samples) {
        if (s.name == "greensph_attribution_total_energy_joules") {
            total_gauge = s.value;
        }
        if (s.family == "greensph_attribution_energy_joules" &&
            !s.labels.empty()) {
            ++labeled_buckets;
        }
    }
    EXPECT_DOUBLE_EQ(total_gauge, ledger.attributed_energy_j());
    EXPECT_GT(labeled_buckets, 0u);
    EXPECT_LE(labeled_buckets, 16u); // top-N cap holds
}

TEST(AttributionLedger, AttributionJsonRoundTripsAndIsSelfConsistent)
{
    MetricsRegistry::global().reset();
    AttributionLedger ledger(2);
    run_with_ledger(ledger, 2);

    const Json j = ledger.attribution_json(/*max_decisions=*/8);
    // Serialized form parses back (what /attribution.json scrapers do).
    const Json parsed = Json::parse(j.dump(2));
    EXPECT_EQ(parsed.at("schema").as_string(), kLedgerSchema);
    EXPECT_EQ(parsed.at("n_ranks").as_number(), 2.0);
    EXPECT_EQ(static_cast<std::size_t>(parsed.at("decision_count").as_number()),
              ledger.decision_count());

    // The bucket table in the JSON sums to the advertised total.
    double sum = 0.0;
    for (const Json& b : parsed.at("buckets").items()) {
        sum += b.at("energy_j").as_number();
    }
    EXPECT_NEAR(sum, parsed.at("attributed_energy_j").as_number(),
                1e-9 * std::fabs(sum));

    // Decision trailer honors max_decisions and keeps decision-time order.
    const auto& decisions = parsed.at("decisions").items();
    EXPECT_LE(decisions.size(), 8u);
    ASSERT_FALSE(decisions.empty());
    for (std::size_t i = 1; i < decisions.size(); ++i) {
        EXPECT_LT(decisions[i - 1].at("id").as_number(),
                  decisions[i].at("id").as_number());
    }
    const Json& last = decisions.back();
    EXPECT_TRUE(last.at("resolved").as_bool());
    EXPECT_TRUE(last.contains("prediction_error"));
}

} // namespace
} // namespace gsph::telemetry
