// Folds a span list (obs::TraceEvent records, as Tracer::events() returns
// them) into per-name totals over a time window.
//
// A span's self time is its duration minus the part of it that its child
// spans on the same thread cover. Spans on one thread nest (they are RAII
// scopes), so the children of a span are exactly the spans of its thread that
// lie inside it. Every span is clipped to the window first: a span that
// crosses the window's edge contributes only the part inside it, and so do
// its children.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct SpanTotals {
  double total_s = 0;  ///< summed in-window duration
  double self_s = 0;   ///< summed in-window self time
  std::uint64_t count = 0;  ///< spans that overlap the window
};

/// Per "cat.name" totals over the window [begin_ns, end_ns).
std::map<std::string, SpanTotals> fold_spans(
    std::vector<husg::obs::TraceEvent> events, std::uint64_t begin_ns,
    std::uint64_t end_ns);

/// Sum of self_s (or total_s) over the listed names; absent names count 0.
double self_seconds(const std::map<std::string, SpanTotals>& folded,
                    std::initializer_list<const char*> names);
double total_seconds(const std::map<std::string, SpanTotals>& folded,
                     std::initializer_list<const char*> names);

}  // namespace perfbench
