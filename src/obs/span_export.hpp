// Span exporters — Chrome trace_event JSON (loadable in Perfetto /
// about://tracing) and a compact CSV. Both enumerate traces in completion
// order and spans in id order, with thread ids assigned from the sorted set
// of node names, so two same-seed runs export byte-identical documents.
#pragma once

#include <deque>
#include <string>

#include "obs/span_store.hpp"

namespace qopt::obs {

/// `{"traceEvents":[...]}` — "M" thread-name metadata per node, one "X"
/// (complete) event per span, then one "i" (instant, thread scope) event per
/// buffered instant, category by category, oldest first. `ts`/`dur` are
/// microseconds with nanosecond precision (three decimals); span `args`
/// carry the causal context (trace/span/parent ids, phase, annotations),
/// instant `args` carry `a`, `b` and `detail` when set.
std::string to_chrome_json(const SpanStore& store);

/// Flat rows:
/// `trace_id,kind,span_id,parent_id,phase,name,node,start_ns,end_ns,dur_ns,a,b`
std::string to_span_csv(const std::deque<CompletedTrace>& traces);

}  // namespace qopt::obs
