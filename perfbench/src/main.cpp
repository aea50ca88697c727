/// perfbench: greensph's benchmark harness.
///
///   perfbench --workload physics|replay|service|fleet --seed N --seconds S
///             --trace 0|1 [--size full|tiny] [--corrupt] [--out-dir DIR]
///             [--commit ID] [--source-digest HEX]
///
/// Prints a host record, the metric table (end-to-end with --trace 0,
/// per-layer with --trace 1), and as its last line one JSON object with
/// every metric of the table.  Writes a run record (host, inputs, metrics)
/// and, with --trace 1, a Perfetto trace of the harness spans to --out-dir.
/// Exits 0 when the run completed, whether or not output checks failed;
/// failed checks show in `failed` and `failed_frac`.

#include "harness.hpp"
#include "spans.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

Options parse_args(int argc, char** argv)
{
    Options opt;
    opt.threads = pinned_threads();
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
            return argv[++i];
        };
        if (key == "--workload") opt.workload = next();
        else if (key == "--seed") opt.seed = std::stoull(next());
        else if (key == "--seconds") opt.seconds = std::stod(next());
        else if (key == "--trace") opt.trace = next() != "0";
        else if (key == "--size") opt.size = next();
        else if (key == "--corrupt") opt.corrupt = true;
        else if (key == "--out-dir") opt.out_dir = next();
        else if (key == "--commit") opt.commit = next();
        else if (key == "--source-digest") opt.source_digest = next();
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
    if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
    if (opt.size != "full" && opt.size != "tiny") {
        throw std::invalid_argument("--size must be full or tiny");
    }
    return opt;
}

std::string read_first(const std::string& path, const std::string& prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (prefix.empty()) return line;
        if (line.rfind(prefix, 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + '"';
}

/// Host and run record: numbers from different hosts or builds are never
/// compared without notice.
std::vector<std::pair<std::string, std::string>> host_record(const Options& opt)
{
    return {
        {"nproc", std::to_string(opt.threads)},
        {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
        {"cpu_model", read_first("/proc/cpuinfo", "model name")},
        {"llc_size", read_first("/sys/devices/system/cpu/cpu0/cache/index3/size", "")},
        {"compiler", std::string("g++ ") + __VERSION__},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"pinned_threads", std::to_string(opt.threads)},
        {"commit", opt.commit},
        {"source_digest", opt.source_digest},
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"seconds", std::to_string(opt.seconds)},
        {"trace", opt.trace ? "1" : "0"},
        {"size", opt.size},
    };
}

/// Share of the traced iterations' wall time spent in each top-level span.
std::vector<std::pair<std::string, double>> span_shares(const std::string& workload)
{
    const std::vector<SpanRecord> all = spans().snapshot();
    const std::string root = workload + ".iteration";
    double root_us = 0.0;
    std::map<std::string, double> child_us;
    for (const SpanRecord& s : all) {
        if (s.name == root) root_us += s.dur_us;
        if (s.parent >= 0 && all[static_cast<std::size_t>(s.parent)].name == root) {
            child_us[s.name] += s.dur_us;
        }
    }
    std::vector<std::pair<std::string, double>> shares;
    if (root_us <= 0.0) return shares;
    for (const auto& [name, us] : child_us) shares.push_back({name, us / root_us});
    std::sort(shares.begin(), shares.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return shares;
}

} // namespace

int main(int argc, char** argv)
{
    Options opt;
    try {
        opt = parse_args(argc, argv);
    }
    catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    const auto host = host_record(opt);
    std::cout << "perfbench host and run record\n";
    for (const auto& [key, value] : host) {
        std::cout << "  " << std::left << std::setw(22) << key << value << "\n";
    }
    std::cout << std::flush;

    WorkloadResult result{Metrics({}), {}, {}, {}};
    try {
        if (opt.workload == "physics") result = run_physics(opt);
        else if (opt.workload == "replay") result = run_replay(opt);
        else if (opt.workload == "service") result = run_service(opt);
        else if (opt.workload == "fleet") result = run_fleet(opt);
        else throw std::invalid_argument("unknown workload " + opt.workload);
    }
    catch (const std::exception& e) {
        std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
        return 1;
    }

    std::cout << "\n";
    result.metrics.print_table(opt.trace ? "per-layer metrics (traced run)"
                                         : "end-to-end metrics (tracing off)");
    std::cout << "\nnotes\n";
    for (const auto& [key, value] : result.notes) {
        std::cout << "  " << std::left << std::setw(30) << key << value << "\n";
    }
    std::vector<std::pair<std::string, double>> shares;
    if (opt.trace) shares = span_shares(opt.workload);
    if (!shares.empty()) {
        std::cout << "\nshare of traced iteration wall time by top-level span\n";
        for (const auto& [name, share] : shares) {
            std::cout << "  " << std::left << std::setw(34) << name << std::right
                      << std::fixed << std::setprecision(1) << std::setw(6)
                      << 100.0 * share << " %\n";
        }
        std::cout << std::defaultfloat;
    }
    std::cout << "\nchecks: " << result.checks.failed() << " failed of "
              << result.checks.attempted() << " attempted (failed_frac "
              << result.checks.failed_frac() << ")\n";

    // Run record and trace files.
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    {
        std::ofstream rec(stem + ".json");
        rec << "{\"schema\": \"perfbench.run/v1\", \"host\": {";
        for (std::size_t i = 0; i < host.size(); ++i) {
            rec << (i ? ", " : "") << json_string(host[i].first) << ": "
                << json_string(host[i].second);
        }
        rec << "}, \"notes\": {";
        for (std::size_t i = 0; i < result.notes.size(); ++i) {
            rec << (i ? ", " : "") << json_string(result.notes[i].first) << ": "
                << json_string(result.notes[i].second);
        }
        rec << "}, \"span_shares\": {";
        for (std::size_t i = 0; i < shares.size(); ++i) {
            rec << (i ? ", " : "") << json_string(shares[i].first) << ": "
                << shares[i].second;
        }
        rec << "}, \"iter_samples_s\": [";
        for (std::size_t i = 0; i < result.iter_samples.size(); ++i) {
            rec << (i ? ", " : "") << std::setprecision(9) << result.iter_samples[i];
        }
        rec << "], \"attempted\": " << result.checks.attempted()
            << ", \"failed\": " << result.checks.failed()
            << ", \"metrics\": " << result.metrics.json() << "}\n";
    }
    std::cout << "run record: " << stem << ".json\n";
    if (opt.trace) {
        if (spans().write_perfetto(stem + ".perfetto.json", "perfbench " + opt.workload)) {
            std::cout << "perfetto trace: " << stem << ".perfetto.json\n";
        }
        else {
            std::cerr << "perfbench: could not write " << stem << ".perfetto.json\n";
        }
    }

    std::cout << "{\"correct\": " << (result.checks.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << result.checks.attempted()
              << ", \"failed\": " << result.checks.failed()
              << ", \"metrics\": " << result.metrics.json() << "}" << std::endl;
    return 0;
}
