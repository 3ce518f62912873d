#ifndef AUXVIEW_STORAGE_PAGE_COUNTER_H_
#define AUXVIEW_STORAGE_PAGE_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace auxview {

/// Page-I/O accounting that mirrors the paper's cost model (Section 3.6):
/// hash indexes with no overflow pages, no clustering, one tuple per relation
/// page. Every index probe costs one index-page read; every tuple touched
/// costs one relation-page read and/or write.
///
/// The storage engine charges this counter on real operations so that
/// model-estimated costs can be validated against counted I/Os
/// (bench_v1_model_validation).
///
/// Every charge is mirrored into the process-wide metrics registry
/// (storage.page_reads / storage.page_writes and the four
/// storage.{index,tuple}_{reads,writes} counters), so bench JSON reports and
/// the shell's .metrics command see page I/O without plumbing a counter
/// reference around. The local fields keep the scoped per-database /
/// per-transaction accounting the cost-model validation relies on.
class PageCounter {
 public:
  PageCounter();

  void Reset();

  /// Suspends charging (bulk loads, view materialization, test oracles).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void AddIndexRead(int64_t n = 1) {
    if (!enabled()) return;
    index_reads_.fetch_add(n, std::memory_order_relaxed);
    m_index_reads_->Add(n);
    m_page_reads_->Add(n);
  }
  void AddIndexWrite(int64_t n = 1) {
    if (!enabled()) return;
    index_writes_.fetch_add(n, std::memory_order_relaxed);
    m_index_writes_->Add(n);
    m_page_writes_->Add(n);
  }
  void AddTupleRead(int64_t n = 1) {
    if (!enabled()) return;
    tuple_reads_.fetch_add(n, std::memory_order_relaxed);
    m_tuple_reads_->Add(n);
    m_page_reads_->Add(n);
  }
  void AddTupleWrite(int64_t n = 1) {
    if (!enabled()) return;
    tuple_writes_.fetch_add(n, std::memory_order_relaxed);
    m_tuple_writes_->Add(n);
    m_page_writes_->Add(n);
  }

  int64_t index_reads() const {
    return index_reads_.load(std::memory_order_relaxed);
  }
  int64_t index_writes() const {
    return index_writes_.load(std::memory_order_relaxed);
  }
  int64_t tuple_reads() const {
    return tuple_reads_.load(std::memory_order_relaxed);
  }
  int64_t tuple_writes() const {
    return tuple_writes_.load(std::memory_order_relaxed);
  }
  int64_t total() const {
    return index_reads() + index_writes() + tuple_reads() + tuple_writes();
  }

  std::string ToString() const;

 private:
  /// Relaxed atomics: a snapshot's tables share one counter across reader
  /// threads (src/concurrency/snapshot.h); totals are order-independent
  /// sums.
  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> index_reads_{0};
  std::atomic<int64_t> index_writes_{0};
  std::atomic<int64_t> tuple_reads_{0};
  std::atomic<int64_t> tuple_writes_{0};
  // Global mirrors (never null; resolved once in the constructor).
  obs::Counter* m_index_reads_;
  obs::Counter* m_index_writes_;
  obs::Counter* m_tuple_reads_;
  obs::Counter* m_tuple_writes_;
  obs::Counter* m_page_reads_;
  obs::Counter* m_page_writes_;
};

/// RAII guard that disables a counter for a scope.
class ScopedCountingDisabled {
 public:
  explicit ScopedCountingDisabled(PageCounter* counter)
      : counter_(counter), was_enabled_(counter->enabled()) {
    counter_->set_enabled(false);
  }
  ~ScopedCountingDisabled() { counter_->set_enabled(was_enabled_); }

  ScopedCountingDisabled(const ScopedCountingDisabled&) = delete;
  ScopedCountingDisabled& operator=(const ScopedCountingDisabled&) = delete;

 private:
  PageCounter* counter_;
  bool was_enabled_;
};

}  // namespace auxview

#endif  // AUXVIEW_STORAGE_PAGE_COUNTER_H_
