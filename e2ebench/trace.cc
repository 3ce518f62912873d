#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <utility>

namespace e2ebench {

Tail TailPercentile(std::vector<double> samples, double q) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n < kMinSamplesAbove + 1) {
    tail.value = samples.back();
    tail.percentile = 1;
    return tail;
  }
  // The epsilon keeps q * n from rounding up past an exact integer
  // (0.99 * 1000 is not exactly 990 in binary).
  const double ideal = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t rank = ideal < 1 ? 0 : static_cast<size_t>(ideal) - 1;
  rank = std::min(rank, n - 1 - kMinSamplesAbove);
  tail.value = samples[rank];
  tail.percentile = static_cast<double>(rank + 1) / static_cast<double>(n);
  tail.supported = true;
  return tail;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double NowUs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    bool open = false;
    double cur_lo = 0;
    double cur_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      open = true;
      cur_lo = lo;
      cur_hi = hi;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].duration() - covered);
  }
  return self;
}

int Tracer::Begin(const std::string& name, double now_us, int64_t unit) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now_us, now_us, open_span(), unit});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, double now_us) {
  spans_[static_cast<size_t>(id)].end_us = now_us;
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

int Tracer::Add(const std::string& name, double start_us, double end_us,
                int parent, int64_t unit) {
  spans_.push_back(Span{name, start_us, end_us, parent, unit});
  return static_cast<int>(spans_.size()) - 1;
}

TraceContext& CurrentTrace() {
  thread_local TraceContext context;
  return context;
}

ScopedSpan::ScopedSpan(const char* name) : tracer_(CurrentTrace().tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->Begin(name, NowUs(), CurrentTrace().unit);
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(id_, NowUs());
}

uint64_t Fnv1a(const std::string& bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace e2ebench
