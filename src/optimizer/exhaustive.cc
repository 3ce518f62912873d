#include <algorithm>
#include <limits>
#include <thread>

#include "obs/metrics.h"
#include "optimizer/optimizer.h"

namespace auxview {

namespace {

/// Shared optimizer counters (see docs/OBSERVABILITY.md).
struct OptimizerMetrics {
  obs::Counter* viewsets_costed;
  obs::Counter* viewsets_pruned;
  obs::Counter* tracks_costed;
  obs::Counter* workers_spawned;
  obs::Histogram* enumerate_us;
  obs::Histogram* worker_us;

  static const OptimizerMetrics& Get() {
    static const OptimizerMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return OptimizerMetrics{
          reg.GetCounter("optimizer.viewsets_costed"),
          reg.GetCounter("optimizer.viewsets_pruned"),
          reg.GetCounter("optimizer.tracks_costed"),
          reg.GetCounter("optimizer.workers_spawned"),
          reg.GetHistogram("optimizer.enumerate_us"),
          reg.GetHistogram("optimizer.worker_us"),
      };
    }();
    return m;
  }
};

/// One enumeration worker's accumulated state. Workers share no mutable
/// state; everything merges deterministically after the join.
struct ShardResult {
  double best_cost = std::numeric_limits<double>::infinity();
  uint64_t best_mask = ~0ull;
  ViewSet best_views;
  std::vector<TxnPlan> best_plans;
  int64_t viewsets_costed = 0;
  int64_t viewsets_pruned = 0;
  int64_t tracks_costed = 0;
  /// (mask, views, cost) for keep_all; merged in mask order.
  std::vector<std::tuple<uint64_t, ViewSet, double>> all_costs;
  Status error = Status::Ok();
  uint64_t error_mask = ~0ull;
};

}  // namespace

ViewSelector::ViewSelector(const Memo* memo, const Catalog* catalog,
                           IoCostModel model)
    : memo_(memo),
      catalog_(catalog),
      model_(model),
      stats_(memo, catalog),
      fds_(memo, catalog),
      delta_(memo, catalog, &stats_),
      analyses_epoch_(catalog->stats_epoch()) {}

void ViewSelector::RefreshAnalyses() {
  const uint64_t epoch = catalog_->stats_epoch();
  if (epoch == analyses_epoch_) return;
  stats_.Clear();
  fds_.Clear();
  analyses_epoch_ = epoch;
}

StatusOr<TxnPlan> ViewSelector::BestTrack(const ViewSet& views,
                                          const TransactionType& txn,
                                          const OptimizeOptions& options) {
  RefreshAnalyses();
  QueryCoster query(memo_, catalog_, &stats_, &fds_, model_, options.query);
  TrackCoster coster(memo_, catalog_, &stats_, &fds_, &delta_, &query,
                     options.cost);
  TrackEnumerator enumerator(memo_, &delta_);
  AUXVIEW_ASSIGN_OR_RETURN(std::vector<UpdateTrack> tracks,
                           enumerator.Enumerate(views, txn, options.tracks));
  TxnPlan best;
  best.txn_name = txn.name;
  best.weight = txn.weight;
  double best_cost = std::numeric_limits<double>::infinity();
  OptimizerMetrics::Get().tracks_costed->Add(
      static_cast<int64_t>(tracks.size()));
  for (const UpdateTrack& track : tracks) {
    AUXVIEW_ASSIGN_OR_RETURN(TrackCost cost, coster.Cost(track, views, txn));
    if (cost.total() < best_cost) {
      best_cost = cost.total();
      best.track = track;
      best.cost = std::move(cost);
    }
  }
  if (tracks.empty()) {
    return Status::Internal("no update track for transaction " + txn.name);
  }
  return best;
}

StatusOr<OptimizeResult> ViewSelector::CostViewSet(
    const std::vector<TransactionType>& txns, const ViewSet& views,
    const OptimizeOptions& options) {
  OptimizeResult result;
  result.views = views;
  result.views.insert(memo_->root());
  double weighted = 0;
  double total_weight = 0;
  for (const TransactionType& txn : txns) {
    AUXVIEW_ASSIGN_OR_RETURN(TxnPlan plan,
                             BestTrack(result.views, txn, options));
    weighted += plan.cost.total() * txn.weight;
    total_weight += txn.weight;
    result.plans.push_back(std::move(plan));
  }
  result.weighted_cost = total_weight > 0 ? weighted / total_weight : 0;
  result.viewsets_costed = 1;
  OptimizerMetrics::Get().viewsets_costed->Add(1);
  return result;
}

StatusOr<OptimizeResult> ViewSelector::ExhaustiveOver(
    const std::vector<TransactionType>& txns, const OptimizeOptions& options,
    std::set<GroupId> roots, std::set<GroupId> candidates,
    const std::function<bool(const ViewSet&)>& filter) {
  RefreshAnalyses();
  std::set<GroupId> roots_canon;
  for (GroupId r : roots) roots_canon.insert(memo_->Find(r));
  for (GroupId r : roots_canon) candidates.erase(r);
  std::vector<GroupId> cand(candidates.begin(), candidates.end());
  // `1ull << cand.size()` below is undefined at >= 64 candidates, so the
  // cap holds regardless of how high callers push max_candidates.
  const int max_candidates = std::min(options.max_candidates, 63);
  if (static_cast<int>(cand.size()) > max_candidates) {
    return Status::FailedPrecondition(
        "too many candidate groups for exhaustive enumeration (" +
        std::to_string(cand.size()) + " > " +
        std::to_string(max_candidates) +
        "); raise max_candidates or use a heuristic strategy");
  }

  const OptimizerMetrics& metrics = OptimizerMetrics::Get();
  obs::ScopedTimer enum_timer(metrics.enumerate_us);

  const uint64_t num_sets = 1ull << cand.size();
  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, threads);
  threads = static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(threads), num_sets));

  // The mask shard [w, w+threads, w+2*threads, ...) for one worker, with
  // thread-local costing machinery and no shared mutable state; results
  // merge after the join.
  auto run_shard = [&](int worker, const TrackCoster* coster,
                       const TrackEnumerator* enumerator, ShardResult* out) {
    for (uint64_t mask = static_cast<uint64_t>(worker); mask < num_sets;
         mask += static_cast<uint64_t>(threads)) {
      ViewSet views = roots_canon;
      for (size_t i = 0; i < cand.size(); ++i) {
        if (mask & (1ull << i)) views.insert(cand[i]);
      }
      if (filter != nullptr && !filter(views)) {
        ++out->viewsets_pruned;
        continue;
      }
      double weighted = 0;
      double total_weight = 0;
      std::vector<TxnPlan> plans;
      bool feasible = true;
      for (const TransactionType& txn : txns) {
        StatusOr<std::vector<UpdateTrack>> tracks =
            enumerator->Enumerate(views, txn, options.tracks);
        if (!tracks.ok()) {
          out->error = tracks.status();
          out->error_mask = mask;
          return;
        }
        double txn_best = std::numeric_limits<double>::infinity();
        TxnPlan plan;
        plan.txn_name = txn.name;
        plan.weight = txn.weight;
        for (const UpdateTrack& track : *tracks) {
          StatusOr<TrackCost> cost = coster->Cost(track, views, txn);
          if (!cost.ok()) {
            out->error = cost.status();
            out->error_mask = mask;
            return;
          }
          ++out->tracks_costed;
          if (cost->total() < txn_best) {
            txn_best = cost->total();
            plan.track = track;
            plan.cost = std::move(cost).value();
          }
        }
        if (tracks->empty()) {
          feasible = false;
          break;
        }
        weighted += txn_best * txn.weight;
        total_weight += txn.weight;
        plans.push_back(std::move(plan));
      }
      if (!feasible) continue;
      const double avg = total_weight > 0 ? weighted / total_weight : 0;
      ++out->viewsets_costed;
      if (options.keep_all) out->all_costs.emplace_back(mask, views, avg);
      if (avg < out->best_cost) {
        out->best_cost = avg;
        out->best_mask = mask;
        out->best_views = views;
        out->best_plans = std::move(plans);
      }
    }
  };

  std::vector<ShardResult> shards(threads);
  if (threads == 1) {
    // Sequential walk on the selector's own (warm) analyses.
    QueryCoster query(memo_, catalog_, &stats_, &fds_, model_, options.query);
    TrackCoster coster(memo_, catalog_, &stats_, &fds_, &delta_, &query,
                       options.cost);
    TrackEnumerator enumerator(memo_, &delta_);
    run_shard(0, &coster, &enumerator, &shards[0]);
  } else {
    metrics.workers_spawned->Add(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        // Thread-local analyses: StatsAnalysis/FdAnalysis memoize into
        // unsynchronized maps, so each worker owns a private copy. They
        // recompute the same deterministic values the sequential walk uses.
        obs::ScopedTimer worker_timer(metrics.worker_us);
        StatsAnalysis stats(memo_, catalog_);
        FdAnalysis fds(memo_, catalog_);
        DeltaAnalysis delta(memo_, catalog_, &stats);
        delta.set_use_completeness(delta_.use_completeness());
        QueryCoster query(memo_, catalog_, &stats, &fds, model_,
                          options.query);
        TrackCoster coster(memo_, catalog_, &stats, &fds, &delta, &query,
                           options.cost);
        TrackEnumerator enumerator(memo_, &delta);
        run_shard(w, &coster, &enumerator, &shards[w]);
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Deterministic merge. Errors first: the sequential walk would have
  // surfaced the error of the lowest failing mask.
  const ShardResult* failed = nullptr;
  for (const ShardResult& s : shards) {
    if (s.error.ok()) continue;
    if (failed == nullptr || s.error_mask < failed->error_mask) failed = &s;
  }
  if (failed != nullptr) return failed->error;

  OptimizeResult best;
  best.weighted_cost = std::numeric_limits<double>::infinity();
  uint64_t best_mask = ~0ull;
  for (ShardResult& s : shards) {
    best.viewsets_costed += s.viewsets_costed;
    best.viewsets_pruned += s.viewsets_pruned;
    best.tracks_costed += s.tracks_costed;
    // Same (cost, mask) lexicographic order the sequential walk follows:
    // strictly lower cost wins; at equal cost the lowest mask wins.
    if (s.best_mask != ~0ull &&
        (s.best_cost < best.weighted_cost ||
         (s.best_cost == best.weighted_cost && s.best_mask < best_mask))) {
      best.weighted_cost = s.best_cost;
      best_mask = s.best_mask;
      best.views = std::move(s.best_views);
      best.plans = std::move(s.best_plans);
    }
  }
  metrics.viewsets_costed->Add(best.viewsets_costed);
  metrics.viewsets_pruned->Add(best.viewsets_pruned);
  metrics.tracks_costed->Add(best.tracks_costed);
  if (options.keep_all) {
    std::vector<std::tuple<uint64_t, ViewSet, double>> all;
    for (ShardResult& s : shards) {
      for (auto& entry : s.all_costs) all.push_back(std::move(entry));
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) {
                return std::get<0>(a) < std::get<0>(b);
              });
    best.all_costs.reserve(all.size());
    for (auto& [mask, views, cost] : all) {
      (void)mask;
      best.all_costs.emplace_back(std::move(views), cost);
    }
  }
  return best;
}

StatusOr<OptimizeResult> ViewSelector::Exhaustive(
    const std::vector<TransactionType>& txns, const OptimizeOptions& options) {
  std::set<GroupId> candidates;
  for (GroupId g : memo_->NonLeafGroups()) candidates.insert(g);
  return ExhaustiveOver(txns, options, {memo_->root()},
                        std::move(candidates));
}

StatusOr<OptimizeResult> ViewSelector::ExhaustiveMultiView(
    const std::vector<GroupId>& roots,
    const std::vector<TransactionType>& txns, const OptimizeOptions& options) {
  if (roots.empty()) {
    return Status::InvalidArgument("multi-view optimization needs roots");
  }
  std::set<GroupId> root_set(roots.begin(), roots.end());
  std::set<GroupId> candidates;
  for (GroupId g : memo_->NonLeafGroups()) candidates.insert(g);
  // User views are first-class materializations: count their update costs.
  OptimizeOptions multi = options;
  multi.cost.include_root_update_cost = true;
  return ExhaustiveOver(txns, multi, std::move(root_set),
                        std::move(candidates));
}

}  // namespace auxview
