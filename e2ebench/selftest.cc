// Tests of the benchmark's own logic: the tail-percentile rule, self-time
// arithmetic, and the seeded SQL streams. Exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace e2ebench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestTailPercentile() {
  // 1000 samples: the true p99 (990) has exactly 10 samples above it.
  Tail t = TailPercentile(OneTo(1000), 0.99);
  Expect(t.supported && Near(t.value, 990) && Near(t.percentile, 0.99),
         "p99 of 1..1000 is 990");
  // 100 samples: p99 would leave 1 above; lowered to p90 (10 above).
  t = TailPercentile(OneTo(100), 0.99);
  Expect(t.supported && Near(t.value, 90) && Near(t.percentile, 0.90),
         "p99 of 1..100 lowers to p90");
  // 11 samples: the smallest count that supports a tail at all.
  t = TailPercentile(OneTo(11), 0.99);
  Expect(t.supported && Near(t.value, 1), "11 samples give the minimum");
  t = TailPercentile(OneTo(10), 0.99);
  Expect(!t.supported && Near(t.value, 10) && t.samples == 10,
         "10 samples are too few: the maximum, flagged");
  // For every size, at least 10 samples lie strictly above the value.
  for (int n = 11; n <= 3000; n += 7) {
    const Tail tail = TailPercentile(OneTo(n), 0.99);
    Expect(n - static_cast<int>(tail.value) >= 10,
           "at least 10 above for n=" + std::to_string(n));
  }
  Expect(Near(Median({3, 1, 2}), 2) && Near(Median({4, 1, 3, 2}), 2.5) &&
             Near(Median({}), 0),
         "median of odd, even and empty samples");
}

void TestSelfTimes() {
  // parent [0,100]; children [10,30] and [20,50] overlap (union 40);
  // [90,120] sticks out (10 inside); a grandchild [12,14] does not count
  // against the parent.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 0},  {"a", 10, 30, 0, 0},
      {"b", 20, 50, 0, 0},        {"c", 90, 120, 0, 0},
      {"grandchild", 12, 14, 1, 0}};
  const std::vector<double> self = SelfTimes(spans);
  Expect(Near(self[0], 50), "parent self = 100 - (40 + 10)");
  Expect(Near(self[1], 18), "child self = 20 - 2");
  Expect(Near(self[2], 30) && Near(self[4], 2), "leaf self = duration");
  Expect(Near(self[3], 30), "a child's own self time is not clipped");
  // Identical and nested children count once.
  spans = {{"p", 0, 10, -1, 0}, {"x", 2, 6, 0, 0}, {"y", 2, 6, 0, 0},
           {"z", 3, 4, 0, 0}};
  Expect(Near(SelfTimes(spans)[0], 6), "duplicate children count once");

  Tracer tracer;
  const int root = tracer.Begin("root", 0, 7);
  const int child = tracer.Begin("child", 1, 7);
  tracer.End(child, 3);
  const int added = tracer.Add("nested", 1, 2, child, 7);
  tracer.End(root, 10);
  Expect(tracer.spans()[child].parent == root &&
             tracer.spans()[added].parent == child && tracer.open_span() == -1,
         "tracer nests Begin/End and Add");
  Expect(Near(SelfTimes(tracer.spans())[root], 8), "tracer self times");
}

std::string Stream(const std::string& workload, uint64_t seed, int blocks) {
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed, 200);
  std::string out = w->Ddl();
  for (const std::string& sql : w->LoadStatements()) out += sql;
  for (int b = 0; b < blocks; ++b) {
    for (const Unit& unit : w->NextBlock()) {
      out += unit.read ? "R" : (unit.expect_reject ? "X" : "W");
      for (const std::string& sql : unit.statements) out += sql;
    }
  }
  return out;
}

void TestStreams() {
  for (const char* name : {"point-large", "concurrent-wal", "multiview-bulk"}) {
    const std::string w = name;
    Expect(Stream(w, 7, 3) == Stream(w, 7, 3),
           w + ": the same seed gives a byte-identical stream");
    Expect(Stream(w, 7, 3) != Stream(w, 8, 3),
           w + ": another seed gives another stream");
    // Every block returns the generator's model to the loaded state.
    std::unique_ptr<Workload> workload = MakeWorkload(w, 3, 200);
    const uint64_t loaded = workload->ModelDigest();
    bool neutral = true;
    for (int b = 0; b < 5; ++b) {
      workload->NextBlock();
      neutral = neutral && workload->ModelDigest() == loaded;
    }
    Expect(neutral, w + ": blocks leave the base tables as loaded");
  }
  EmpDeptWorkload emp_dept(100, 5);
  std::string first;
  std::string second;
  for (int pass = 0; pass < 2; ++pass) {
    EmpDeptTxnStream writer(emp_dept, 1, 5);
    EmpDeptReadStream reader(emp_dept, 5);
    std::string& out = pass == 0 ? first : second;
    for (int i = 0; i < 200; ++i) {
      const Unit unit = writer.Next();
      Expect(unit.statements.size() >= 2 && unit.statements.size() <= 3,
             "concurrent transactions have 2-3 statements");
      for (const std::string& sql : unit.statements) out += sql;
      out += reader.Next().statements[0];
    }
  }
  Expect(first == second, "concurrent streams repeat for a seed");
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::TestTailPercentile();
  e2ebench::TestSelfTimes();
  e2ebench::TestStreams();
  if (e2ebench::g_failures > 0) return 1;
  std::fprintf(stderr, "e2ebench selftest: all passed\n");
  return 0;
}
