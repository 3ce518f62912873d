#include "optimizer/track_cost_cache.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "memo/articulation.h"
#include "obs/metrics.h"

namespace auxview {

namespace {

struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;

  static const CacheMetrics& Get() {
    static const CacheMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return CacheMetrics{
          reg.GetCounter("optimizer.trackcache_hits"),
          reg.GetCounter("optimizer.trackcache_misses"),
      };
    }();
    return m;
  }
};

void AppendAttrs(const std::vector<std::string>& attrs, std::string* out) {
  for (const std::string& a : attrs) {
    *out += a;
    *out += ',';
  }
}

/// Live entries across all TrackCostCache instances, maintained by deltas
/// on insert/evict/clear so coexisting caches aggregate correctly.
obs::Gauge* SizeGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("optimizer.trackcache_size");
  return gauge;
}

}  // namespace

DescendantsIndex::DescendantsIndex(const Memo* memo) : memo_(memo) {
  for (GroupId g : memo->LiveGroups()) {
    descendants_.emplace(g, DescendantGroups(*memo, g));
  }
}

std::vector<GroupId> DescendantsIndex::RelevantMarked(
    const UpdateTrack& track, const ViewSet& marked) const {
  // The marked-set dependence of TrackCoster::Cost (keep in sync with
  // track_cost.cc):
  //  - the update-application charge and the aggregate materialized-check
  //    only look at marked groups ON the track (track.choice keys);
  //  - lookup queries are posed only on inputs of chosen join, aggregate
  //    and duplicate-elimination nodes, and QueryCoster::LookupCost
  //    descends strictly through inputs, so a query on q reads only
  //    marked ∩ ({q} ∪ descendants(q)). Selects/projects pose no queries.
  // Any other marked group cannot change the track's cost, so it stays out
  // of the cache key and adjacent view sets share the entry.
  std::set<GroupId> choice_canon;
  std::vector<GroupId> queried;
  for (const auto& [g, eid] : track.choice) {
    choice_canon.insert(memo_->Find(g));
    const MemoExpr& e = memo_->expr(eid);
    switch (e.kind()) {
      case OpKind::kJoin:
      case OpKind::kAggregate:
      case OpKind::kDupElim:
        for (GroupId in : e.inputs) queried.push_back(memo_->Find(in));
        break;
      default:
        break;
    }
  }
  std::vector<GroupId> out;
  for (GroupId m : marked) {
    const GroupId canon = memo_->Find(m);
    bool relevant = choice_canon.count(canon) > 0;
    for (size_t i = 0; !relevant && i < queried.size(); ++i) {
      if (queried[i] == canon) {
        relevant = true;
        break;
      }
      auto it = descendants_.find(queried[i]);
      if (it != descendants_.end() && it->second.count(canon) > 0) {
        relevant = true;
      }
    }
    if (relevant) out.push_back(canon);
  }
  // `marked` may alias canonical ids, so dedup while keeping them sorted.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TrackCostCache::TrackCostCache(const Catalog* catalog)
    : catalog_(catalog), filled_at_epoch_(catalog->stats_epoch()) {}

TrackCostCache::~TrackCostCache() { Clear(); }

void TrackCostCache::Refresh() {
  const uint64_t epoch = catalog_->stats_epoch();
  if (epoch != filled_at_epoch_) {
    Clear();
    filled_at_epoch_ = epoch;
  }
}

void TrackCostCache::SetCapacity(size_t capacity) {
  shard_capacity_ =
      capacity == 0 ? 0 : std::max<size_t>(1, (capacity + kShards - 1) / kShards);
  if (shard_capacity_ == 0) return;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    EvictDownTo(shard, shard_capacity_);
  }
}

TrackCostCache::Shard& TrackCostCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

void TrackCostCache::EvictDownTo(Shard& shard, size_t cap) {
  int64_t evicted = 0;
  while (shard.entries.size() > cap) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    ++evicted;
  }
  if (evicted > 0) SizeGauge()->Add(-evicted);
}

bool TrackCostCache::Lookup(const std::string& key, TrackCost* out) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      *out = it->second.cost;
      // Touch: move to the front of the recency list.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
      CacheMetrics::Get().hits->Add(1);
      return true;
    }
  }
  CacheMetrics::Get().misses->Add(1);
  return false;
}

void TrackCostCache::Insert(const std::string& key, const TrackCost& cost) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) return;  // first writer wins
  if (shard_capacity_ > 0 && shard.entries.size() >= shard_capacity_) {
    EvictDownTo(shard, shard_capacity_ - 1);
  }
  shard.lru.push_front(key);
  shard.entries.emplace(key, Entry{cost, shard.lru.begin()});
  SizeGauge()->Add(1);
}

void TrackCostCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    SizeGauge()->Add(-static_cast<int64_t>(shard.entries.size()));
    shard.entries.clear();
    shard.lru.clear();
  }
}

size_t TrackCostCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

std::string TrackCostCache::KeyPrefix(const TrackCostOptions& cost,
                                      const QueryCostOptions& query,
                                      bool use_completeness,
                                      const TransactionType& txn) {
  std::string out;
  out += cost.share_queries ? 'S' : 's';
  out += cost.include_root_update_cost ? 'R' : 'r';
  out += query.materialized_views_indexed ? 'I' : 'i';
  out += use_completeness ? 'C' : 'c';
  out += std::to_string(cost.indexes_per_view);
  out += '|';
  for (const UpdateSpec& spec : txn.updates) {
    out += spec.relation;
    out += '#';
    out += UpdateKindName(spec.kind);
    char count_buf[32];
    std::snprintf(count_buf, sizeof(count_buf), "#%.17g#", spec.count);
    out += count_buf;
    AppendAttrs(spec.modified_attrs, &out);
    out += '#';
    AppendAttrs(spec.selected_by, &out);
    out += ';';
  }
  out += '|';
  return out;
}

std::string TrackCostCache::Key(const std::string& prefix,
                                const UpdateTrack& track,
                                const std::vector<GroupId>& relevant_marked) {
  std::string key = prefix;
  for (const auto& [g, eid] : track.choice) {
    key += std::to_string(g);
    key += ':';
    key += std::to_string(eid);
    key += ',';
  }
  key += '|';
  for (GroupId m : relevant_marked) {
    key += std::to_string(m);
    key += ',';
  }
  return key;
}

}  // namespace auxview
