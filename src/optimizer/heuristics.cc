#include <algorithm>
#include <limits>
#include <map>

#include "obs/metrics.h"
#include "optimizer/optimizer.h"

namespace auxview {

namespace {

/// Greedily picks, for each group reachable from `root`, the operation node
/// whose inputs are cheapest to evaluate in full — a single low-cost
/// expression tree for the view treated as a query (Section 5, phase one).
void ChooseTree(const Memo& memo, const QueryCoster& query, GroupId g,
                std::map<GroupId, int>* choice) {
  g = memo.Find(g);
  if (memo.group(g).is_leaf || choice->count(g) > 0) return;
  int best = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int eid : memo.group(g).exprs) {
    const MemoExpr& e = memo.expr(eid);
    if (e.dead) continue;
    double cost = 0;
    for (GroupId in : e.inputs) cost += query.FullCost(in, {});
    if (cost < best_cost) {
      best_cost = cost;
      best = eid;
    }
  }
  (*choice)[g] = best;
  for (GroupId in : memo.expr(best).inputs) {
    ChooseTree(memo, query, in, choice);
  }
}

/// Weighted depth of the updated relations in a chosen tree (Section 5,
/// phase two): sum over transactions of weight x distance from the root to
/// each updated relation's leaf. High values mean frequently-updated
/// relations sit deep in the tree — every view between them and the root
/// would be expensive to maintain.
double WeightedUpdateDepth(const Memo& memo,
                           const std::map<GroupId, int>& choice, GroupId g,
                           int depth,
                           const std::map<std::string, double>& weights) {
  g = memo.Find(g);
  const MemoGroup& grp = memo.group(g);
  if (grp.is_leaf) {
    auto it = weights.find(grp.table);
    return it == weights.end() ? 0 : it->second * depth;
  }
  auto it = choice.find(g);
  if (it == choice.end()) return 0;
  double total = 0;
  for (GroupId in : memo.expr(it->second).inputs) {
    total += WeightedUpdateDepth(memo, choice, in, depth + 1, weights);
  }
  return total;
}

/// The choice map for the original (first-inserted) expression tree.
void OriginalTreeChoice(const Memo& memo, GroupId g,
                        std::map<GroupId, int>* choice) {
  g = memo.Find(g);
  if (memo.group(g).is_leaf || choice->count(g) > 0) return;
  for (int eid : memo.group(g).exprs) {
    if (memo.expr(eid).dead) continue;
    (*choice)[g] = eid;
    for (GroupId in : memo.expr(eid).inputs) {
      OriginalTreeChoice(memo, in, choice);
    }
    return;
  }
}

}  // namespace

StatusOr<OptimizeResult> ViewSelector::SingleTree(
    const std::vector<TransactionType>& txns, const OptimizeOptions& options) {
  obs::TraceSpan span("optimizer.single_tree");
  RefreshAnalyses();
  QueryCoster query(memo_, catalog_, &stats_, &fds_, model_, options.query);
  // Phase one: a low-cost tree for the view treated as a query.
  std::map<GroupId, int> greedy_choice;
  ChooseTree(*memo_, query, memo_->root(), &greedy_choice);
  // Phase two (Section 5): prefer a tree whose heavily-updated relations
  // sit close to the root; fall back to the original tree when the
  // query-optimal one buries them.
  std::map<GroupId, int> original_choice;
  OriginalTreeChoice(*memo_, memo_->root(), &original_choice);
  std::map<std::string, double> weights;
  for (const TransactionType& txn : txns) {
    for (const UpdateSpec& spec : txn.updates) {
      weights[spec.relation] += txn.weight;
    }
  }
  const double greedy_depth = WeightedUpdateDepth(
      *memo_, greedy_choice, memo_->root(), 0, weights);
  const double original_depth = WeightedUpdateDepth(
      *memo_, original_choice, memo_->root(), 0, weights);
  const std::map<GroupId, int>& choice =
      greedy_depth <= original_depth ? greedy_choice : original_choice;

  OptimizeOptions restricted = options;
  std::set<GroupId> candidates;
  for (const auto& [g, eid] : choice) {
    candidates.insert(g);
    restricted.tracks.allowed_ops.insert(eid);
  }
  return ExhaustiveOver(txns, restricted, {memo_->root()},
                        std::move(candidates));
}

StatusOr<OptimizeResult> ViewSelector::HeuristicMarking(
    const std::vector<TransactionType>& txns, const OptimizeOptions& options) {
  obs::TraceSpan span("optimizer.heuristic_marking");
  RefreshAnalyses();
  QueryCoster query(memo_, catalog_, &stats_, &fds_, model_, options.query);
  std::map<GroupId, int> choice;
  ChooseTree(*memo_, query, memo_->root(), &choice);

  OptimizeOptions restricted = options;
  for (const auto& [g, eid] : choice) {
    (void)g;
    restricted.tracks.allowed_ops.insert(eid);
  }

  // Mark every parent of a join or grouping/aggregation operator and every
  // child of a duplicate elimination operator; never selections.
  ViewSet marking = {memo_->root()};
  for (const auto& [g, eid] : choice) {
    const MemoExpr& e = memo_->expr(eid);
    if (e.kind() == OpKind::kJoin || e.kind() == OpKind::kAggregate) {
      marking.insert(g);
    }
    if (e.kind() == OpKind::kDupElim) {
      const GroupId child = memo_->Find(e.inputs[0]);
      if (!memo_->group(child).is_leaf) marking.insert(child);
    }
  }

  AUXVIEW_ASSIGN_OR_RETURN(OptimizeResult with_marking,
                           CostViewSet(txns, marking, restricted));
  AUXVIEW_ASSIGN_OR_RETURN(OptimizeResult empty_set,
                           CostViewSet(txns, {memo_->root()}, restricted));
  OptimizeResult best = with_marking.weighted_cost <= empty_set.weighted_cost
                            ? std::move(with_marking)
                            : std::move(empty_set);
  best.viewsets_costed = 2;
  return best;
}

StatusOr<OptimizeResult> ViewSelector::Greedy(
    const std::vector<TransactionType>& txns, const OptimizeOptions& options) {
  obs::TraceSpan span("optimizer.greedy");
  // Hill-climbing replaces the 2^n view-set enumeration; track enumeration
  // stays as configured (set options.tracks.greedy for the fully
  // approximate variant of Section 5.3).
  const OptimizeOptions& greedy_options = options;

  std::vector<GroupId> candidates;
  const GroupId root = memo_->root();
  for (GroupId g : memo_->NonLeafGroups()) {
    if (g != root) candidates.push_back(g);
  }

  AUXVIEW_ASSIGN_OR_RETURN(OptimizeResult current,
                           CostViewSet(txns, {root}, greedy_options));
  int64_t costed = 1;
  bool improved = true;
  while (improved) {
    improved = false;
    GroupId best_add = -1;
    OptimizeResult best_result;
    best_result.weighted_cost = current.weighted_cost;
    for (GroupId c : candidates) {
      if (current.views.count(c) > 0) continue;
      ViewSet views = current.views;
      views.insert(c);
      AUXVIEW_ASSIGN_OR_RETURN(OptimizeResult result,
                               CostViewSet(txns, views, greedy_options));
      ++costed;
      if (result.weighted_cost < best_result.weighted_cost - 1e-9) {
        best_result = std::move(result);
        best_add = c;
      }
    }
    if (best_add >= 0) {
      current = std::move(best_result);
      improved = true;
    }
  }
  current.viewsets_costed = costed;
  return current;
}

}  // namespace auxview
