#ifndef AUXVIEW_BENCH_BENCH_UTIL_H_
#define AUXVIEW_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction benchmarks: building the paper's
// ProblemDept DAG, locating the groups the paper names N1..N6 (Figure 2),
// and the JSON reporting harness. Every bench runs through BenchMain, which
// captures each PrintHeader/PrintRow table (the predicted-vs-measured
// paper numbers), the process-wide metrics snapshot (page I/O, maintenance
// and optimizer counters) and wall time into BENCH_<name>.json — see
// docs/BENCHMARKING.md for the schema and how to read it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auxview.h"

namespace auxview {
namespace bench {

/// Accumulates the tables a bench prints so BenchMain can serialize them.
/// PrintHeader opens a section; PrintRow appends to the current one.
struct JsonReport {
  struct Table {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::pair<std::string, std::vector<double>>> rows;
  };
  std::vector<Table> tables;

  static JsonReport& Global() {
    static JsonReport* report = new JsonReport();
    return *report;
  }
};

/// The paper's named equivalence nodes in the ProblemDept DAG.
struct PaperGroups {
  GroupId n1 = -1;  // Select (root)
  GroupId n2 = -1;  // the Select's input (Aggregate/Join alternatives)
  GroupId n3 = -1;  // Aggregate(Emp BY DName) — SumOfSals
  GroupId n4 = -1;  // Join(Emp, Dept)
  GroupId emp = -1;
  GroupId dept = -1;
};

inline PaperGroups FindPaperGroups(const Memo& memo) {
  PaperGroups out;
  out.n1 = memo.root();
  for (GroupId g : memo.LiveGroups()) {
    const MemoGroup& grp = memo.group(g);
    if (grp.is_leaf) {
      if (grp.table == "Emp") out.emp = g;
      if (grp.table == "Dept") out.dept = g;
      continue;
    }
    for (int eid : grp.exprs) {
      const MemoExpr& e = memo.expr(eid);
      if (e.dead) continue;
      if (e.kind() == OpKind::kAggregate &&
          e.op->group_by() == std::vector<std::string>{"DName"}) {
        out.n3 = g;
      }
      if (e.kind() == OpKind::kAggregate && e.op->group_by().size() == 2) {
        out.n2 = g;
      }
      if (e.kind() == OpKind::kJoin) {
        bool leaf_join = true;
        for (GroupId in : e.inputs) {
          if (!memo.group(memo.Find(in)).is_leaf) leaf_join = false;
        }
        if (leaf_join) out.n4 = g;
      }
    }
  }
  return out;
}

/// Built ProblemDept environment shared by the T1-T4 benches.
struct PaperSetup {
  std::unique_ptr<EmpDeptWorkload> workload;
  std::unique_ptr<Memo> memo;
  std::unique_ptr<ViewSelector> selector;
  PaperGroups groups;
};

inline PaperSetup MakePaperSetup() {
  PaperSetup setup;
  setup.workload = std::make_unique<EmpDeptWorkload>(EmpDeptConfig{});
  auto tree = setup.workload->ProblemDeptTree();
  if (!tree.ok()) {
    std::fprintf(stderr, "tree: %s\n", tree.status().ToString().c_str());
    std::abort();
  }
  auto memo = BuildExpandedMemo(*tree, setup.workload->catalog());
  if (!memo.ok()) {
    std::fprintf(stderr, "memo: %s\n", memo.status().ToString().c_str());
    std::abort();
  }
  setup.memo = std::make_unique<Memo>(std::move(memo).value());
  setup.selector = std::make_unique<ViewSelector>(
      setup.memo.get(), &setup.workload->catalog());
  setup.groups = FindPaperGroups(*setup.memo);
  return setup;
}

/// Prints a row of a fixed-width table and records it in the JSON report.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& values) {
  std::printf("  %-34s", label.c_str());
  for (double v : values) std::printf(" %10.4g", v);
  std::printf("\n");
  JsonReport& report = JsonReport::Global();
  if (report.tables.empty()) report.tables.emplace_back();
  report.tables.back().rows.emplace_back(label, values);
}

/// Prints a table header and opens a new section in the JSON report.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n%s\n", title.c_str());
  std::printf("  %-34s", "");
  for (const std::string& c : columns) std::printf(" %10s", c.c_str());
  std::printf("\n");
  JsonReport::Table table;
  table.title = title;
  table.columns = columns;
  JsonReport::Global().tables.push_back(std::move(table));
}

/// Prints an "optimizer scaling" table: the same Exhaustive enumeration run
/// sequentially with the track-cost cache disabled (the pre-cache
/// baseline), sequentially with the cache, and with 8 worker threads. Each
/// configuration gets a fresh ViewSelector and runs Exhaustive twice:
/// `cold_us` is the first call (empty cache), `warm_us` the repeat — the
/// common production shape, since sweeps and repeated optimizations reuse
/// one selector. `repeat_x` is cold_us/warm_us and `hit_pct` the warm
/// call's cache hit rate (~100 with the cache, 0 without). Timings come
/// from the optimizer.enumerate_us histogram delta around each call. The
/// `viewsets` column is identical across rows by construction (the
/// enumeration is bit-identical for every configuration); the timing-
/// derived columns are excluded from the golden-table comparison
/// (tools/check_bench_tables.py).
inline void PrintOptimizerScaling(const Memo* memo, const Catalog* catalog,
                                  const std::vector<TransactionType>& txns,
                                  const OptimizeOptions& base,
                                  const std::string& title) {
  struct Config {
    const char* label;
    int threads;
    bool cache;
  };
  static constexpr Config kConfigs[] = {
      {"1 thread, cache off", 1, false},
      {"1 thread, cache on", 1, true},
      {"8 threads, cache on", 8, true},
  };
  obs::Histogram* enum_us =
      obs::MetricsRegistry::Global().GetHistogram("optimizer.enumerate_us");
  PrintHeader(title, {"cold_us", "warm_us", "repeat_x", "viewsets",
                      "hit_pct"});
  double first_cost = 0;
  ViewSet first_views;
  bool have_first = false;
  for (const Config& config : kConfigs) {
    ViewSelector selector(memo, catalog);
    OptimizeOptions options = base;
    options.threads = config.threads;
    options.use_track_cache = config.cache;
    double cold_us = 0;
    double warm_us = 0;
    StatusOr<OptimizeResult> result = OptimizeResult{};
    for (int call = 0; call < 2; ++call) {
      const double before = enum_us->sum();
      result = selector.Exhaustive(txns, options);
      (call == 0 ? cold_us : warm_us) = enum_us->sum() - before;
      if (!result.ok()) break;
    }
    if (!result.ok()) {
      std::printf("  %-34s %s\n", config.label,
                  result.status().ToString().c_str());
      continue;
    }
    if (!have_first) {
      have_first = true;
      first_cost = result->weighted_cost;
      first_views = result->views;
    } else if (result->weighted_cost != first_cost ||
               result->views != first_views) {
      // Never expected: the parallel/cached walks are bit-identical to the
      // sequential one. A visible marker beats silently wrong timings.
      std::printf("  %-34s DIVERGED from the sequential result\n",
                  config.label);
    }
    const int64_t lookups =
        result->trackcache_hits + result->trackcache_misses;
    const double hit_pct =
        lookups > 0 ? 100.0 * static_cast<double>(result->trackcache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    PrintRow(config.label,
             {cold_us, warm_us, warm_us > 0 ? cold_us / warm_us : 0,
              static_cast<double>(result->viewsets_costed), hit_pct});
  }
}

/// Serializes the report (tables + metrics snapshot + wall time) as the
/// BENCH_<name>.json record described in docs/BENCHMARKING.md.
inline std::string ReportToJson(const std::string& name,
                                const JsonReport& report,
                                const obs::MetricsSnapshot& snapshot,
                                double wall_seconds, double table_seconds) {
  std::string out = "{\"schema_version\": 1";
  out += ", \"bench\": " + obs::JsonString(name);
  out += ", \"wall_time_seconds\": " + obs::JsonNumber(wall_seconds);
  out += ", \"table_time_seconds\": " + obs::JsonNumber(table_seconds);
  out += ", \"page_reads\": " +
         std::to_string(snapshot.CounterOr("storage.page_reads"));
  out += ", \"page_writes\": " +
         std::to_string(snapshot.CounterOr("storage.page_writes"));
  out += ", \"tables\": [";
  for (size_t t = 0; t < report.tables.size(); ++t) {
    const JsonReport::Table& table = report.tables[t];
    if (t > 0) out += ", ";
    out += "{\"title\": " + obs::JsonString(table.title) + ", \"columns\": [";
    for (size_t c = 0; c < table.columns.size(); ++c) {
      if (c > 0) out += ", ";
      out += obs::JsonString(table.columns[c]);
    }
    out += "], \"rows\": [";
    for (size_t r = 0; r < table.rows.size(); ++r) {
      if (r > 0) out += ", ";
      out += "{\"label\": " + obs::JsonString(table.rows[r].first) +
             ", \"values\": [";
      for (size_t v = 0; v < table.rows[r].second.size(); ++v) {
        if (v > 0) out += ", ";
        out += obs::JsonNumber(table.rows[r].second[v]);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "], \"metrics\": " + snapshot.ToJson();
  out += "}";
  return out;
}

/// Shared main for every bench binary: runs the table-printing body, then
/// the registered google-benchmark timings, then writes BENCH_<name>.json
/// into $AUXVIEW_BENCH_JSON_DIR (default: the working directory).
inline int BenchMain(const std::string& name, int argc, char** argv,
                     const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto tables_done = std::chrono::steady_clock::now();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Model-only benches never touch storage; registering the page-I/O
  // counters here keeps them in every report (as 0) so consumers can rely
  // on their presence.
  obs::MetricsRegistry::Global().GetCounter("storage.page_reads");
  obs::MetricsRegistry::Global().GetCounter("storage.page_writes");
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double table_wall =
      std::chrono::duration<double>(tables_done - start).count();
  const std::string json = ReportToJson(name, JsonReport::Global(), snapshot,
                                        wall, table_wall);

  const char* dir = std::getenv("AUXVIEW_BENCH_JSON_DIR");
  std::string path = dir != nullptr && dir[0] != '\0'
                         ? std::string(dir) + "/BENCH_" + name + ".json"
                         : "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace bench
}  // namespace auxview

#endif  // AUXVIEW_BENCH_BENCH_UTIL_H_
