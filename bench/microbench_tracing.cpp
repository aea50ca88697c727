/// Tracing-overhead microbench, behind the CI perf-regression gate.
///
/// Distributed tracing must be close to free: the daemon records spans for
/// every tune request (store lookup, singleflight wait, per-function
/// sweeps, artifact commit) and retains the tracer for GET /trace/<id>,
/// and none of that may tax the request path measurably.  This bench times
/// the same tune request served by TuningService with tracing off
/// (inactive TraceScope) and on (per-request SpanTracer + ServiceClock +
/// TraceStore::put, exactly the daemon's request path — Chrome-JSON
/// rendering happens lazily on fetch, off this path), on both service
/// paths:
///
///   cold   a fresh service per sample, so every tune runs the sweep —
///          the path the <1% overhead bar applies to (the gate)
///   hit    identical re-submissions served from the store — reported for
///          context (absolute cost in microseconds), not gated relatively,
///          because a span's fixed cost is a large *fraction* of a
///          microsecond-scale cache hit while remaining irrelevant in
///          absolute terms
///
/// Samples alternate traced/untraced and the minimum per variant is
/// compared, so scheduler noise inflates neither side.  Emits
/// BENCH_tracing.json (schema greensph.bench_tracing/v1); the committed
/// baseline bench/baselines/bench_tracing_baseline.json carries the
/// overhead bound the gate enforces.  Exits 1 when the cold-path overhead
/// exceeds the bound beyond an absolute slack of 50us per request.
///
/// Usage: microbench_tracing [output-dir] [baseline.json]

#include "common.hpp"

#include "service/tracing.hpp"
#include "service/tuning_service.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracectx.hpp"
#include "telemetry/tracer.hpp"
#include "util/atomic_file.hpp"

#include <chrono>
#include <fstream>
#include <sstream>

using namespace gsph;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

service::TuneRequest bench_request()
{
    service::TuneRequest request;
    request.device = gpusim::a100_pcie_40g();
    // The full supported-clock grid and a multi-step trace: a production
    // tune request, so the sweep is long enough that the relative gate
    // measures tracing against real work, not timer noise.
    for (double mhz = 1005.0; mhz <= 1410.0; mhz += 15.0) {
        request.band.push_back(mhz);
    }
    request.iterations = 25;
    request.trace = bench::turbulence_trace(91.125e6, /*n_steps=*/64,
                                            /*real_nside=*/6);
    return request;
}

service::ServiceConfig service_config()
{
    service::ServiceConfig cfg;
    cfg.producer = "microbench_tracing";
    return cfg;
}

/// One traced tune request, exactly as the daemon runs it: fresh
/// per-request tracer, spans from the shared clock, tracer retained in the
/// TraceStore for a later GET /trace/<id> (which is where Chrome-JSON
/// rendering happens — off this path).  Returns the span count as a sink.
std::size_t traced_tune(service::TuningService& service,
                        const service::TuneRequest& request,
                        const service::ServiceClock& clock,
                        const telemetry::TraceContext& ctx,
                        service::TraceStore& traces)
{
    auto tracer = std::make_shared<telemetry::SpanTracer>();
    tracer->set_process_name(service::kServicePid, "greensph tuned");
    const service::TraceScope scope{ctx, tracer.get(), &clock};
    service.tune(request, nullptr, scope);
    const std::size_t events = tracer->event_count();
    traces.put(ctx.trace_id(), std::move(tracer));
    return events;
}

} // namespace

int main(int argc, char** argv)
{
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    double max_overhead_frac = 0.01;
    if (argc > 2) {
        std::ifstream in(argv[2]);
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
            max_overhead_frac = telemetry::Json::parse(buf.str())
                                    .at("max_overhead_frac")
                                    .as_number();
        }
        catch (const std::exception& e) {
            std::cerr << "error: bad baseline " << argv[2] << ": " << e.what()
                      << "\n";
            return 1;
        }
    }
    bench::print_header(
        "Tracing-overhead microbench - traced vs untraced tune requests",
        "Distributed tracing of the tuning service request path",
        "Gate: traced cold sweep within " +
            util::format_percent(max_overhead_frac, 1) + " of untraced");

    const service::TuneRequest request = bench_request();
    const telemetry::TraceContext ctx = telemetry::TraceContext::origin(
        "tune|" + service::request_key(request));
    const service::ServiceClock clock;
    service::TraceStore traces;
    std::size_t sink = 0;

    // Cold path: a fresh service per sample so every tune sweeps.
    constexpr int kColdSamples = 7;
    double cold_untraced_s = 1e9, cold_traced_s = 1e9;
    for (int i = 0; i < kColdSamples; ++i) {
        {
            service::TuningService service(service_config());
            const auto start = std::chrono::steady_clock::now();
            service.tune(request);
            cold_untraced_s = std::min(cold_untraced_s, seconds_since(start));
        }
        {
            service::TuningService service(service_config());
            const auto start = std::chrono::steady_clock::now();
            sink += traced_tune(service, request, clock, ctx, traces);
            cold_traced_s = std::min(cold_traced_s, seconds_since(start));
        }
    }

    // Hit path: identical re-submissions served from the store, averaged
    // over a batch (single hits are timer-resolution noise).
    constexpr int kHitBatches = 7;
    constexpr int kHitsPerBatch = 200;
    service::TuningService hit_service(service_config());
    hit_service.tune(request); // warm the store
    double hit_untraced_s = 1e9, hit_traced_s = 1e9;
    for (int b = 0; b < kHitBatches; ++b) {
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kHitsPerBatch; ++i) hit_service.tune(request);
        hit_untraced_s =
            std::min(hit_untraced_s, seconds_since(start) / kHitsPerBatch);
        start = std::chrono::steady_clock::now();
        for (int i = 0; i < kHitsPerBatch; ++i) {
            sink += traced_tune(hit_service, request, clock, ctx, traces);
        }
        hit_traced_s =
            std::min(hit_traced_s, seconds_since(start) / kHitsPerBatch);
    }

    const double overhead_frac = cold_traced_s / cold_untraced_s - 1.0;
    const double hit_delta_s = hit_traced_s - hit_untraced_s;

    util::Table table({"Metric", "Value"});
    table.add_row({"cold untraced [s]", util::format_fixed(cold_untraced_s, 6)});
    table.add_row({"cold traced [s]", util::format_fixed(cold_traced_s, 6)});
    table.add_row({"cold overhead", util::format_percent(overhead_frac, 3)});
    table.add_row({"hit untraced [us]",
                   util::format_fixed(hit_untraced_s * 1e6, 2)});
    table.add_row({"hit traced [us]", util::format_fixed(hit_traced_s * 1e6, 2)});
    table.add_row({"hit tracing cost [us]",
                   util::format_fixed(hit_delta_s * 1e6, 2)});
    table.print(std::cout);

    telemetry::Json doc = telemetry::Json::object();
    doc["schema"] = "greensph.bench_tracing/v1";
    doc["cold_untraced_s"] = cold_untraced_s;
    doc["cold_traced_s"] = cold_traced_s;
    doc["cold_overhead_frac"] = overhead_frac;
    doc["hit_untraced_s"] = hit_untraced_s;
    doc["hit_traced_s"] = hit_traced_s;
    doc["hit_tracing_cost_s"] = hit_delta_s;
    doc["max_overhead_frac"] = max_overhead_frac;
    doc["span_count_sink"] = static_cast<double>(sink % 1000);
    const std::string out_path = out_dir + "/BENCH_tracing.json";
    if (!util::atomic_write_file(out_path, doc.dump(2) + "\n")) {
        std::cerr << "error: failed to write " << out_path << "\n";
        return 1;
    }
    std::cout << "Wrote " << out_path << "\n";

    // The gate: relative bound with a small absolute slack so timer
    // granularity on a fast machine cannot flake the job.
    const double slack_s = 50e-6;
    if (overhead_frac > max_overhead_frac &&
        cold_traced_s - cold_untraced_s > slack_s) {
        std::cerr << "FAIL: tracing adds " << util::format_percent(overhead_frac, 3)
                  << " to a cold tune request (limit "
                  << util::format_percent(max_overhead_frac, 1) << ")\n";
        return 1;
    }
    std::cout << "Tracing overhead gate OK\n";
    return 0;
}
