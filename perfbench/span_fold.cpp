#include "span_fold.hpp"

#include <algorithm>

namespace perfbench {

std::map<std::string, SpanTotals> fold_spans(
    std::vector<husg::obs::TraceEvent> events, std::uint64_t begin_ns,
    std::uint64_t end_ns) {
  // Per thread in start order; on a tied start the longer span is the
  // parent, so it must come first.
  std::sort(events.begin(), events.end(),
            [](const husg::obs::TraceEvent& a, const husg::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  auto clipped = [&](std::uint64_t s, std::uint64_t e) -> std::int64_t {
    const std::uint64_t lo = std::max(s, begin_ns);
    const std::uint64_t hi = std::min(e, end_ns);
    return hi > lo ? static_cast<std::int64_t>(hi - lo) : 0;
  };

  std::vector<std::int64_t> self(events.size(), 0);
  struct Open {
    std::uint64_t end;
    std::size_t index;
  };
  std::vector<Open> stack;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const husg::obs::TraceEvent& ev = events[k];
    if (k == 0 || events[k - 1].tid != ev.tid) stack.clear();
    const std::uint64_t s = ev.start_ns;
    const std::uint64_t e = ev.start_ns + ev.dur_ns;
    // Close every open span this one does not lie inside.
    while (!stack.empty() && (stack.back().end <= s || stack.back().end < e)) {
      stack.pop_back();
    }
    const std::int64_t in_window = clipped(s, e);
    self[k] += in_window;
    if (!stack.empty()) self[stack.back().index] -= in_window;
    stack.push_back(Open{e, k});
  }

  std::map<std::string, SpanTotals> out;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const husg::obs::TraceEvent& ev = events[k];
    const std::uint64_t s = ev.start_ns;
    const std::uint64_t e = ev.start_ns + ev.dur_ns;
    const bool overlaps = ev.dur_ns == 0 ? (s >= begin_ns && s < end_ns)
                                         : (s < end_ns && e > begin_ns);
    if (!overlaps) continue;
    SpanTotals& t = out[std::string(ev.cat != nullptr ? ev.cat : "") + "." +
                        (ev.name != nullptr ? ev.name : "")];
    t.total_s += static_cast<double>(clipped(s, e)) / 1e9;
    t.self_s += static_cast<double>(self[k]) / 1e9;
    ++t.count;
  }
  return out;
}

double self_seconds(const std::map<std::string, SpanTotals>& folded,
                    std::initializer_list<const char*> names) {
  double sum = 0;
  for (const char* name : names) {
    auto it = folded.find(name);
    if (it != folded.end()) sum += it->second.self_s;
  }
  return sum;
}

double total_seconds(const std::map<std::string, SpanTotals>& folded,
                     std::initializer_list<const char*> names) {
  double sum = 0;
  for (const char* name : names) {
    auto it = folded.find(name);
    if (it != folded.end()) sum += it->second.total_s;
  }
  return sum;
}

}  // namespace perfbench
