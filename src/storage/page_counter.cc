#include "storage/page_counter.h"

#include <cstdio>

namespace auxview {

PageCounter::PageCounter() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  m_index_reads_ = reg.GetCounter("storage.index_reads");
  m_index_writes_ = reg.GetCounter("storage.index_writes");
  m_tuple_reads_ = reg.GetCounter("storage.tuple_reads");
  m_tuple_writes_ = reg.GetCounter("storage.tuple_writes");
  m_page_reads_ = reg.GetCounter("storage.page_reads");
  m_page_writes_ = reg.GetCounter("storage.page_writes");
}

void PageCounter::Reset() {
  index_reads_.store(0, std::memory_order_relaxed);
  index_writes_.store(0, std::memory_order_relaxed);
  tuple_reads_.store(0, std::memory_order_relaxed);
  tuple_writes_.store(0, std::memory_order_relaxed);
}

std::string PageCounter::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "io{total=%lld, index_r=%lld, index_w=%lld, tuple_r=%lld, "
                "tuple_w=%lld}",
                static_cast<long long>(total()),
                static_cast<long long>(index_reads()),
                static_cast<long long>(index_writes()),
                static_cast<long long>(tuple_reads()),
                static_cast<long long>(tuple_writes()));
  return buf;
}

}  // namespace auxview
