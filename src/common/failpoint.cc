#include "common/failpoint.h"

#include <cstdlib>

#include "obs/metrics.h"

namespace auxview {

namespace {

/// The catalog: every failpoint threaded through the code base. Keeping the
/// list here (rather than registering lazily at each site) lets the sweep
/// harness enumerate all sites before any code has run.
constexpr const char* kCatalog[] = {
    "storage.table.apply",         // Table::Apply, before any mutation
    "storage.table.index_update",  // Table::Apply, before the index update
    "storage.table.modify_batch",  // Table::ModifyBatch, before the batch
    "storage.table.modify_pair",   // Table::ModifyBatch, before each pair
    "maintain.compute_deltas",     // DeltaEngine::ComputeDeltas entry
    "maintain.fetch",              // DeltaEngine::FetchMatching cache miss
    "maintain.apply_view_delta",   // ViewManager commit, per view delta
    "maintain.apply_base",         // ViewManager commit, per base update
    "wal.append.partial",          // WAL append: torn half-written frame
    "wal.fsync.fail",              // WAL append: fsync failure after write
    "wal.checkpoint.mid",          // WAL checkpoint: between tmp and rename
};

/// splitmix64 step (matches common/rng.h; kept local so the registry does
/// not depend on the header's class shape).
double NextDouble(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

obs::Counter* TriggerCounter(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter("failpoint." + name +
                                                   ".triggers");
}

}  // namespace

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

FailpointRegistry::FailpointRegistry() {
  for (const char* name : kCatalog) points_[name];
  const char* env = std::getenv("AUXVIEW_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    // A malformed spec must not silently disable fault injection someone
    // asked for; fail loudly instead.
    Status st = LoadSpec(env);
    AUXVIEW_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
}

FailpointRegistry::State& FailpointRegistry::StateFor(
    const std::string& name) {
  return points_[name];
}

std::vector<std::string> FailpointRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, state] : points_) out.push_back(name);
  return out;
}

void FailpointRegistry::Arm(const std::string& name, Arming arming) {
  std::lock_guard<std::mutex> lock(mu_);
  State& state = StateFor(name);
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.countdown = arming.nth_hit > 0 ? arming.nth_hit : 1;
  state.probability = arming.probability;
}

void FailpointRegistry::ArmAfter(const std::string& name, int64_t nth_hit) {
  Arming arming;
  arming.nth_hit = nth_hit;
  Arm(name, arming);
}

void FailpointRegistry::ArmProbability(const std::string& name, double p,
                                       uint64_t seed) {
  Arming arming;
  arming.probability = p;
  Arm(name, arming);
  std::lock_guard<std::mutex> lock(mu_);
  StateFor(name).rng_state = seed;
}

void FailpointRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, state] : points_) {
    if (state.armed) {
      state.armed = false;
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

bool FailpointRegistry::armed(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it != points_.end() && it->second.armed;
}

int64_t FailpointRegistry::hits(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

int64_t FailpointRegistry::triggers(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.triggers;
}

Status FailpointRegistry::Check(const char* name) {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return Status::Ok();
  if (suspended_.load(std::memory_order_relaxed) > 0) return Status::Ok();
  static obs::Counter* total_triggers =
      obs::MetricsRegistry::Global().GetCounter("failpoint.triggers");
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end() || !it->second.armed) return Status::Ok();
    State& state = it->second;
    ++state.hits;
    if (state.probability > 0) {
      fire = NextDouble(&state.rng_state) < state.probability;
    } else if (--state.countdown <= 0) {
      fire = true;
      state.armed = false;  // nth-hit mode is one-shot
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (fire) ++state.triggers;
  }
  if (!fire) return Status::Ok();
  total_triggers->Add(1);
  TriggerCounter(name)->Add(1);
  return Status::Aborted(std::string("failpoint '") + name + "' triggered");
}

Status FailpointRegistry::LoadSpec(const std::string& spec) {
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find_first_of(",;", start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return Status::InvalidArgument("bad failpoint spec entry: " + entry);
    }
    const std::string name = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    char* parse_end = nullptr;
    if (value[0] == 'p') {
      const double p = std::strtod(value.c_str() + 1, &parse_end);
      if (*parse_end != '\0' || p <= 0 || p > 1) {
        return Status::InvalidArgument("bad failpoint probability: " + entry);
      }
      ArmProbability(name, p);
    } else {
      const long long n = std::strtoll(value.c_str(), &parse_end, 10);
      if (*parse_end != '\0' || n <= 0) {
        return Status::InvalidArgument("bad failpoint hit count: " + entry);
      }
      ArmAfter(name, n);
    }
  }
  return Status::Ok();
}

}  // namespace auxview
