// Self-time folding on synthetic span lists: nesting, sibling threads, the
// window edge, and tied starts. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "span_fold.hpp"

using husg::obs::TraceEvent;
using perfbench::fold_spans;
using perfbench::SpanTotals;

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.9f want %.9f\n", what, got, want);
    ++failures;
  }
}

void expect_eq(std::uint64_t got, std::uint64_t want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %llu want %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  }
}

/// A span in microseconds (folded results come back in seconds).
TraceEvent span(std::uint32_t tid, const char* name, std::uint64_t start_us,
                std::uint64_t end_us) {
  TraceEvent ev;
  ev.cat = "t";
  ev.name = name;
  ev.tid = tid;
  ev.start_ns = start_us * 1000;
  ev.dur_ns = (end_us - start_us) * 1000;
  return ev;
}

const SpanTotals& at(const std::map<std::string, SpanTotals>& m,
                     const char* key) {
  static const SpanTotals kNone;
  auto it = m.find(key);
  return it == m.end() ? kNone : it->second;
}

void nested() {
  // parent [0,100) > a [10,30) > leaf [15,20); parent > b [50,60).
  auto m = fold_spans({span(1, "leaf", 15, 20), span(1, "parent", 0, 100),
                       span(1, "b", 50, 60), span(1, "a", 10, 30)},
                      0, 1'000'000);
  expect_near(at(m, "t.parent").self_s, 70e-6, "nested parent self");
  expect_near(at(m, "t.parent").total_s, 100e-6, "nested parent total");
  expect_near(at(m, "t.a").self_s, 15e-6, "nested a self");
  expect_near(at(m, "t.leaf").self_s, 5e-6, "nested leaf self");
  expect_near(at(m, "t.b").self_s, 10e-6, "nested b self");
}

void sibling_threads() {
  // A span on another thread inside the parent's interval is not its child.
  auto m = fold_spans({span(1, "parent", 0, 100), span(2, "worker", 10, 50),
                       span(2, "worker", 60, 90)},
                      0, 1'000'000);
  expect_near(at(m, "t.parent").self_s, 100e-6, "sibling parent self");
  expect_near(at(m, "t.worker").self_s, 70e-6, "sibling worker self");
  expect_eq(at(m, "t.worker").count, 2, "sibling worker count");
}

void window_edge() {
  // Window [50,150): the parent [0,100) and its child [40,70) both cross
  // the left edge; [140,200) crosses the right edge; [200,300) is outside.
  auto m = fold_spans({span(1, "parent", 0, 100), span(1, "child", 40, 70),
                       span(1, "late", 140, 200), span(1, "out", 200, 300)},
                      50'000, 150'000);
  expect_near(at(m, "t.parent").total_s, 50e-6, "edge parent total");
  expect_near(at(m, "t.parent").self_s, 30e-6, "edge parent self");
  expect_near(at(m, "t.child").self_s, 20e-6, "edge child self");
  expect_near(at(m, "t.late").self_s, 10e-6, "edge late self");
  expect_eq(at(m, "t.out").count, 0, "edge outside count");
  expect_near(at(m, "t.out").self_s, 0, "edge outside self");
}

void tied_start_and_sequence() {
  // Parent and child start together; a later sibling starts exactly where
  // the first child ends; the next top-level span starts at the parent's end.
  auto m = fold_spans({span(1, "child", 0, 40), span(1, "parent", 0, 100),
                       span(1, "child", 40, 55), span(1, "next", 100, 120)},
                      0, 1'000'000);
  expect_near(at(m, "t.parent").self_s, 45e-6, "tied parent self");
  expect_near(at(m, "t.child").self_s, 55e-6, "tied child self");
  expect_near(at(m, "t.next").self_s, 20e-6, "tied next self");
}

}  // namespace

int main() {
  nested();
  sibling_threads();
  window_edge();
  tied_start_and_sequence();
  if (failures != 0) {
    std::fprintf(stderr, "span_fold_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("span_fold_test: all checks passed\n");
  return 0;
}
