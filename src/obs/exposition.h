// Exposition layer over the metrics registry: renders a MetricsSnapshot
// (obs/metrics.h) as Prometheus text format or as the human one-line-per-
// instrument dump, and ranks a histogram snapshot's percentiles.
//
// Everything here operates on plain-data snapshots — take one with
// MetricsRegistry::Global().Snapshot() (brief registry lock, relaxed loads)
// and render it without blocking instrument updates. The admin HTTP
// endpoint (serve/tcp_server.h) serves PrometheusText at /metrics and
// SnapshotPercentile figures in /statusz; the examples print SnapshotText
// when metrics are on.
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

/// Renders the snapshot in Prometheus text exposition format (version
/// 0.0.4): every family gets a "# TYPE" line; counters and gauges one
/// sample line each; histograms the full cumulative form —
/// name_bucket{le="..."} lines for every pow2 bucket bound (the registry's
/// log2 buckets map directly to `le` labels), an le="+Inf" line equal to
/// name_count, plus name_sum and name_count. Families appear in sorted
/// name order, so output for an unchanged snapshot is byte-stable.
std::string PrometheusText(const MetricsSnapshot& snap);

/// Renders the snapshot for humans, one line per instrument: counters, then
/// gauges (the memory.* gauges among them), then histograms, each in sorted
/// name order. Counters and gauges print "name value"; histograms print
/// "name count=N sum=S mean=M p50<=X p99<=Y buckets=le:n,le:n,...", listing
/// only non-empty buckets ("-" when there are none), so a reader can compute
/// other percentiles from the bucket structure.
std::string SnapshotText(const MetricsSnapshot& snap);

/// Nearest-rank percentile over a histogram snapshot's buckets: the upper
/// bound of the bucket that holds sample number floor(p * (count - 1)) + 1
/// in sorted order, with p clamped to [0, 1]; 0 when empty. Accurate to the
/// factor-of-two bucket width. This is the registry's one percentile rule.
int64_t SnapshotPercentile(const HistogramSnapshot& h, double p);

/// Git revision the library was built from ("unknown" outside a git
/// checkout). Stamped into /statusz so a scraped server can be traced back
/// to its code, like the BENCH_*.json git_rev field.
const char* BuildRev();

}  // namespace missl::obs

#endif  // MISSL_OBS_EXPOSITION_H_
