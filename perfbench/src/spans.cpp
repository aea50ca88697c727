#include "spans.hpp"

#include "harness.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <thread>

namespace perfbench {

namespace {

const double g_epoch_s = wall_s();
thread_local std::vector<int> t_open; // ids of this thread's open spans

double now_us() { return (wall_s() - g_epoch_s) * 1e6; }

std::string json_escape(const std::string& text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

} // namespace

SpanRecorder& spans()
{
    static SpanRecorder recorder;
    return recorder;
}

int SpanRecorder::begin(const std::string& name, const std::string& layer)
{
    const double start = now_us();
    const std::uint64_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    const auto tid = thread_ids_.emplace(thread, static_cast<int>(thread_ids_.size()));
    SpanRecord span;
    span.name = name;
    span.layer = layer;
    span.start_us = start;
    span.id = static_cast<int>(spans_.size());
    span.parent = t_open.empty() ? -1 : t_open.back();
    span.tid = tid.first->second;
    spans_.push_back(span);
    t_open.push_back(span.id);
    return span.id;
}

void SpanRecorder::end(int id)
{
    const double stop = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].dur_us =
        stop - spans_[static_cast<std::size_t>(id)].start_us;
    if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<SpanRecord> SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool SpanRecorder::write_perfetto(const std::string& path,
                                  const std::string& process) const
{
    const std::vector<SpanRecord> all = snapshot();
    std::ofstream out(path);
    if (!out) return false;
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
           "\"args\": {\"name\": \""
        << json_escape(process) << "\"}}";
    for (const SpanRecord& s : all) {
        out << ",\n{\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
            << json_escape(s.layer) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
            << ", \"ts\": " << s.start_us << ", \"dur\": " << s.dur_us
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Span::Span(const std::string& name, const std::string& layer)
{
    if (spans().enabled()) id_ = spans().begin(name, layer);
}

Span::~Span()
{
    if (id_ >= 0) spans().end(id_);
}

double child_coverage(const std::vector<SpanRecord>& all, int root)
{
    const SpanRecord& r = all[static_cast<std::size_t>(root)];
    if (r.dur_us <= 0.0) return 0.0;
    double covered = 0.0;
    for (const SpanRecord& s : all) {
        if (s.parent == root) covered += s.dur_us;
    }
    return covered / r.dur_us;
}

} // namespace perfbench
