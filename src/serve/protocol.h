// Line protocol for the serving CLI (examples/missl_serve.cpp): TSV queries
// in, one JSON object per answer out. Kept in the library so tests can pin
// the format and CI can drive the server headlessly.
//
// Query line (tab-separated):
//   id <TAB> k <TAB> history [<TAB> exclude]
//     id       non-negative integer echoed back in the response
//     k        list length to return (>= 1)
//     history  comma-separated item:behavior[:timestamp] events, oldest
//              first (timestamps optional but all-or-none within a line)
//     exclude  comma-separated item ids to exclude, or "-" / omitted for none
// Blank lines and lines starting with '#' are for the caller to skip.
//
// Response line:
//   {"id":7,"k":3,"items":[12,5,40],"scores":[1.25,1.1,0.9]}
#ifndef MISSL_SERVE_PROTOCOL_H_
#define MISSL_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "serve/service.h"
#include "utils/status.h"

namespace missl::serve {

/// A parsed query line: the protocol id plus the service-level query.
struct ParsedQuery {
  int64_t id = 0;
  Query query;
};

/// Parses one protocol line into `out`. Returns InvalidArgument with a
/// descriptive message on malformed input (live request streams must not
/// crash the server). Blank/comment lines are not accepted here — filter
/// them before calling.
Status ParseQueryLine(const std::string& line, ParsedQuery* out);

/// Renders one response line (no trailing newline).
std::string TopKToJson(int64_t id, const TopKResult& result);

/// Renders one error-response line (no trailing newline), e.g.
///   {"id":7,"error":"bad k: 'x'"}
/// The TCP front-end answers malformed or rejected queries with these so a
/// client can keep its pipeline aligned; `id` is -1 when the offending line
/// never yielded one (parse failures, connection refusals).
std::string ErrorToJson(int64_t id, const std::string& message);

/// Renders a query as one protocol line (no trailing newline) — the exact
/// inverse of ParseQueryLine for queries whose `now` is the newest timestamp
/// (the only form the wire can carry). Used by the benchmark ledger's load
/// generator and the socket tests to speak the protocol from the client side.
std::string QueryToLine(int64_t id, const Query& query);

}  // namespace missl::serve

#endif  // MISSL_SERVE_PROTOCOL_H_
