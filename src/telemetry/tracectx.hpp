#pragma once
/// \file tracectx.hpp
/// \brief Distributed trace context: 128-bit trace id + 64-bit span id with
/// a W3C `traceparent`-style wire encoding.
///
/// One context threads a request through every hop — CLI thin client →
/// daemon HTTP handler → singleflight → per-function sweeps — so a
/// single Perfetto file shows the whole causal chain under one trace id.
/// Unlike production tracers the ids are *deterministic*: they are FNV-1a
/// hashes of the originating seed (request key, config hash, ...), never
/// wall clock or randomness, so the same request always produces the same
/// trace id and traced runs stay bit-identical.
///
/// Wire format (the traceparent header, version 00, sampled flag set):
///
///   00-<32 lowercase hex trace id>-<16 lowercase hex span id>-01
///
/// A context is valid when neither the trace id nor the span id is all
/// zero (the W3C invalid values).  Child spans derive their id from the
/// parent span id plus a name, so span ids are reproducible too.

#include <cstdint>
#include <string>

namespace gsph::telemetry {

struct TraceContext {
    std::uint64_t trace_hi = 0; ///< high 64 bits of the 128-bit trace id
    std::uint64_t trace_lo = 0; ///< low 64 bits
    std::uint64_t span = 0;     ///< current span id

    bool valid() const { return (trace_hi | trace_lo) != 0 && span != 0; }

    std::string trace_id() const; ///< 32 lowercase hex chars
    std::string span_id() const;  ///< 16 lowercase hex chars
    /// Full wire encoding, "00-<trace_id>-<span_id>-01"; empty if !valid().
    std::string traceparent() const;

    /// Deterministically derive a root context from `seed` (request key,
    /// config hash, ...).  Equal seeds give equal contexts.
    static TraceContext origin(const std::string& seed);

    /// Child context: same trace id, span id derived from this span id and
    /// `name`.  Equal (parent, name) pairs give equal children.
    TraceContext child(const std::string& name) const;
};

/// Parse a traceparent header (version 00 shape, flags ignored).  Returns
/// false — leaving `out` untouched — on any malformed or all-zero field.
bool parse_traceparent(const std::string& header, TraceContext& out);

} // namespace gsph::telemetry
