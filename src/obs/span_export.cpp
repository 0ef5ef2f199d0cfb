#include "obs/span_export.hpp"

#include <deque>
#include <map>
#include <string>

#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "util/time.hpp"

namespace qopt::obs {

namespace {

void append_json_string(std::string& out, const std::string& value) {
  out.push_back('"');
  for (const char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}

/// Nanoseconds as decimal microseconds ("12.345"): Chrome's ts/dur unit is
/// microseconds; keeping the three sub-microsecond digits preserves the DES
/// clock exactly and formats deterministically (pure integer arithmetic).
void append_us(std::string& out, Time ns) {
  out.append(std::to_string(ns / 1000));
  const auto rem = static_cast<unsigned>(ns % 1000);
  out.push_back('.');
  out.push_back(static_cast<char>('0' + rem / 100));
  out.push_back(static_cast<char>('0' + (rem / 10) % 10));
  out.push_back(static_cast<char>('0' + rem % 10));
}

Category category_at(std::size_t index) {
  return static_cast<Category>(index);
}

/// Deterministic tid per node: sorted node names get 0, 1, 2, ...
std::map<std::string, int> assign_tids(const SpanStore& store) {
  std::map<std::string, int> tids;
  for (const CompletedTrace& trace : store.completed()) {
    for (const Span& span : trace.spans) tids.emplace(span.node, 0);
  }
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    for (const Instant& event : store.instants(category_at(c))) {
      tids.emplace(event.node, 0);
    }
  }
  int next = 0;
  for (auto& [node, tid] : tids) tid = next++;
  return tids;
}

}  // namespace

std::string to_chrome_json(const SpanStore& store) {
  const std::map<std::string, int> tids = assign_tids(store);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto separate = [&out, &first] {
    if (!first) out.push_back(',');
    first = false;
  };
  for (const auto& [node, tid] : tids) {
    separate();
    out.append("{\"ph\":\"M\",\"pid\":1,\"tid\":");
    out.append(std::to_string(tid));
    out.append(",\"name\":\"thread_name\",\"args\":{\"name\":");
    append_json_string(out, node);
    out.append("}}");
  }
  for (const CompletedTrace& trace : store.completed()) {
    for (const Span& span : trace.spans) {
      separate();
      out.append("{\"ph\":\"X\",\"pid\":1,\"tid\":");
      out.append(std::to_string(tids.at(span.node)));
      out.append(",\"ts\":");
      append_us(out, span.start);
      out.append(",\"dur\":");
      append_us(out, span.duration());
      out.append(",\"name\":");
      append_json_string(out, span.name);
      out.append(",\"cat\":\"");
      out.append(to_string(trace.kind));
      out.append("\",\"args\":{\"trace\":");
      out.append(std::to_string(span.trace_id));
      out.append(",\"span\":");
      out.append(std::to_string(span.span_id));
      out.append(",\"parent\":");
      out.append(std::to_string(span.parent_id));
      out.append(",\"phase\":\"");
      out.append(to_string(span.phase));
      out.append("\",\"a\":");
      out.append(std::to_string(span.a));
      out.append(",\"b\":");
      out.append(std::to_string(span.b));
      out.append("}}");
    }
  }
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    for (const Instant& event : store.instants(category_at(c))) {
      separate();
      out.append("{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
      out.append(std::to_string(tids.at(event.node)));
      out.append(",\"ts\":");
      append_us(out, event.at);
      out.append(",\"name\":");
      append_json_string(out, event.name);
      out.append(",\"cat\":\"");
      out.append(to_string(category_at(c)));
      out.append("\",\"args\":{\"a\":");
      out.append(std::to_string(event.a));
      out.append(",\"b\":");
      out.append(std::to_string(event.b));
      if (!event.detail.empty()) {
        out.append(",\"detail\":");
        append_json_string(out, event.detail);
      }
      out.append("}}");
    }
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

std::string to_span_csv(const std::deque<CompletedTrace>& traces) {
  std::string out =
      "trace_id,kind,span_id,parent_id,phase,name,node,start_ns,end_ns,"
      "dur_ns,a,b\n";
  for (const CompletedTrace& trace : traces) {
    for (const Span& span : trace.spans) {
      out.append(std::to_string(span.trace_id));
      out.push_back(',');
      out.append(to_string(trace.kind));
      out.push_back(',');
      out.append(std::to_string(span.span_id));
      out.push_back(',');
      out.append(std::to_string(span.parent_id));
      out.push_back(',');
      out.append(to_string(span.phase));
      out.push_back(',');
      out.append(span.name);
      out.push_back(',');
      out.append(span.node);
      out.push_back(',');
      out.append(std::to_string(span.start));
      out.push_back(',');
      out.append(std::to_string(span.end));
      out.push_back(',');
      out.append(std::to_string(span.duration()));
      out.push_back(',');
      out.append(std::to_string(span.a));
      out.push_back(',');
      out.append(std::to_string(span.b));
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace qopt::obs
