#ifndef AUXVIEW_E2EBENCH_TRACE_H_
#define AUXVIEW_E2EBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// A tail percentile needs at least this many samples above it.
constexpr size_t kMinSamplesAbove = 10;

/// One reported tail latency: the value, the percentile it really is, and
/// the sample count it was taken from.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  /// False when fewer than kMinSamplesAbove + 1 samples exist; `value` is
  /// then the maximum and `percentile` is 1.
  bool supported = false;
};

/// Nearest-rank percentile `q` (0 < q <= 1) of `samples`, lowered to the
/// highest rank that still leaves kMinSamplesAbove samples above it. With N
/// sorted samples x[0..N-1] the rank is
/// min(ceil(q * N) - 1, N - 1 - kMinSamplesAbove).
Tail TailPercentile(std::vector<double> samples, double q);

/// Median (mean of the two middle samples for even counts); 0 when empty.
double Median(std::vector<double> samples);

/// Microseconds on the steady clock since the process started.
double NowUs();

/// One traced interval. `parent` indexes the same span vector (-1 = root);
/// `unit` numbers the write unit, read or set-up the span belongs to.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int64_t unit = -1;

  double duration() const { return end_us - start_us; }
};

/// Self time of every span: its duration minus the length of the union of
/// its direct children's intervals, each clipped to the parent's interval.
/// Overlapping children count once; grandchildren do not count.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// The spans of one thread, kept in memory until the run ends. Begin/End
/// nest: a span begun while another is open becomes its child.
class Tracer {
 public:
  int Begin(const std::string& name, double now_us, int64_t unit);
  void End(int id, double now_us);
  /// Adds a finished span under `parent`: a layer reached only inside
  /// another layer's call, timed from the program's own histograms.
  int Add(const std::string& name, double start_us, double end_us, int parent,
          int64_t unit);
  /// Innermost open span, or -1.
  int open_span() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Where this thread's spans go: nullptr turns tracing off, which makes
/// every ScopedSpan a no-op.
struct TraceContext {
  Tracer* tracer = nullptr;
  int64_t unit = -1;
};
TraceContext& CurrentTrace();

/// A span in the current thread's tracer for the enclosing scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Span index in the current tracer, or -1 with tracing off.
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// 64-bit FNV-1a, for fingerprints of table contents.
uint64_t Fnv1a(const std::string& bytes,
               uint64_t seed = 1469598103934665603ULL);

}  // namespace e2ebench

#endif  // AUXVIEW_E2EBENCH_TRACE_H_
