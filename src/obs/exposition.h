// Exposition layer over the metrics registry: renders a MetricsSnapshot
// (obs/metrics.h) as Prometheus text format or as a JSON document, and diffs
// two snapshots so a scraper can report what happened in a window instead of
// since process start.
//
// Everything here operates on plain-data snapshots — take one with
// MetricsRegistry::Global().Snapshot() (brief registry lock, relaxed loads)
// and render it without blocking instrument updates. The admin HTTP
// endpoint (serve/tcp_server.h) serves PrometheusText at /metrics.
#ifndef MISSL_OBS_EXPOSITION_H_
#define MISSL_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace missl::obs {

/// Sanitizes an instrument name into a valid Prometheus metric name:
/// [a-zA-Z_:][a-zA-Z0-9_:]* — every other character (the registry's '.'
/// separators included) becomes '_', and a leading digit is prefixed with
/// '_'. "serve.tcp.bytes_in" -> "serve_tcp_bytes_in".
std::string PrometheusName(const std::string& name);

/// Escapes a string for use inside a Prometheus label value (backslash,
/// double quote, newline). Does not add the surrounding quotes.
std::string PrometheusLabelEscape(const std::string& s);

/// Renders the snapshot in Prometheus text exposition format (version
/// 0.0.4): every family gets a "# TYPE" line; counters and gauges one
/// sample line each; histograms the full cumulative form —
/// name_bucket{le="..."} lines for every pow2 bucket bound (the registry's
/// log2 buckets map directly to `le` labels), an le="+Inf" line equal to
/// name_count, plus name_sum and name_count. Families appear in sorted
/// name order, so output for an unchanged snapshot is byte-stable.
std::string PrometheusText(const MetricsSnapshot& snap);

/// Renders the snapshot as a JSON document with explicit histogram buckets:
/// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
/// "sum":..,"buckets":[{"le":..,"n":..},...]},...}}.
std::string SnapshotToJson(const MetricsSnapshot& snap);

/// Window delta `cur - base`: counters and histogram counts/sums/buckets
/// subtract (instruments absent from `base` pass through; a registry reset
/// between the snapshots can produce negative deltas — callers that reset
/// should re-baseline); gauges keep their `cur` point-in-time value.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& cur,
                              const MetricsSnapshot& base);

/// Nearest-rank percentile over a histogram snapshot's buckets, returning
/// the containing bucket's upper bound (0 when empty) — same contract as
/// Histogram::ApproxPercentile, usable on deltas.
int64_t SnapshotPercentile(const HistogramSnapshot& h, double p);

/// Git revision the library was built from ("unknown" outside a git
/// checkout). Stamped into /statusz so a scraped server can be traced back
/// to its code, like the BENCH_*.json git_rev field.
const char* BuildRev();

}  // namespace missl::obs

#endif  // MISSL_OBS_EXPOSITION_H_
