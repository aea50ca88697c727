#pragma once
/// \file spans.hpp
/// \brief Host-time spans recorded by the harness around its calls into
///        greensph's layers, written out as one Perfetto-loadable trace.
///
/// Spans live in memory until the run ends.  Each span has a name, a layer
/// (the Chrome-trace category), its start and duration on the steady
/// clock, and the span that was open on the same thread when it began (its
/// parent).  Recording is off unless enable() was called; a disabled Span
/// costs one atomic load.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double dur_us = 0.0;
    int id = 0;
    int parent = -1;
    int tid = 0;
};

class SpanRecorder {
public:
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    int begin(const std::string& name, const std::string& layer);
    void end(int id);

    /// Spans recorded so far (copy; safe while other threads record).
    std::vector<SpanRecord> snapshot() const;

    /// Chrome trace-event JSON ("X" events, one track per thread).
    bool write_perfetto(const std::string& path, const std::string& process) const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::map<std::uint64_t, int> thread_ids_;
};

/// The process-wide recorder the harness writes to.
SpanRecorder& spans();

/// RAII span on spans(); a no-op while recording is off.
class Span {
public:
    Span(const std::string& name, const std::string& layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    int id_ = -1;
};

/// Share of `root`'s duration covered by its direct children.
double child_coverage(const std::vector<SpanRecord>& spans, int root);

} // namespace perfbench
