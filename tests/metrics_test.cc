// Tests for the observability layer (src/obs/): counter/gauge/histogram
// semantics, registry handle stability, snapshot determinism, the JSON
// serialization contract, and the storage-layer wiring.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <thread>
#include <vector>

#include "storage/database.h"

namespace auxview {
namespace {

// --- Primitive semantics ---------------------------------------------------

TEST(CounterTest, AddsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, ConcurrentAddsDoNotLoseUpdates) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(HistogramTest, BucketsObservationsAtUpperBounds) {
  obs::Histogram h({1, 10, 100});
  h.Observe(0.5);   // <= 1
  h.Observe(1);     // <= 1 (bounds are inclusive upper limits)
  h.Observe(5);     // <= 10
  h.Observe(100);   // <= 100
  h.Observe(1000);  // overflow
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 1106.5);
  const std::vector<int64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);
}

TEST(HistogramTest, SortsUnorderedBounds) {
  obs::Histogram h({100, 1, 10});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1, 10, 100}));
}

TEST(HistogramTest, ResetClearsEverything) {
  obs::Histogram h({1, 2});
  h.Observe(1.5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0);
  for (int64_t b : h.bucket_counts()) EXPECT_EQ(b, 0);
}

// --- Registry --------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* a = reg.GetCounter("test.registry.same_handle");
  obs::Counter* b = reg.GetCounter("test.registry.same_handle");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->value(), 3);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedByFirstRegistration) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram* a = reg.GetHistogram("test.registry.hist", {1, 2, 3});
  obs::Histogram* b = reg.GetHistogram("test.registry.hist", {9});
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->bounds(), (std::vector<double>{1, 2, 3}));
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicAndSorted) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.snapshot.b")->Add(2);
  reg.GetCounter("test.snapshot.a")->Add(1);
  const obs::MetricsSnapshot s1 = reg.Snapshot();
  const obs::MetricsSnapshot s2 = reg.Snapshot();
  ASSERT_EQ(s1.counters.size(), s2.counters.size());
  for (size_t i = 0; i < s1.counters.size(); ++i) {
    EXPECT_EQ(s1.counters[i].name, s2.counters[i].name);
    EXPECT_EQ(s1.counters[i].value, s2.counters[i].value);
    if (i > 0) EXPECT_LT(s1.counters[i - 1].name, s1.counters[i].name);
  }
  EXPECT_EQ(s1.ToJson(), s2.ToJson());
  EXPECT_EQ(s1.CounterOr("test.snapshot.a"), 1);
  EXPECT_EQ(s1.CounterOr("test.snapshot.b"), 2);
  EXPECT_EQ(s1.CounterOr("test.snapshot.absent", -7), -7);
}

// --- JSON serialization ----------------------------------------------------

// A minimal recursive-descent JSON validator: enough to prove the
// serializer emits syntactically well-formed JSON without an external
// parsing dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(MetricsSnapshotTest, JsonIsWellFormedAndRoundTripsValues) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.json.counter")->Add(123);
  reg.GetGauge("test.json.gauge")->Set(-5);
  reg.GetHistogram("test.json.hist", {1, 10})->Observe(4);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const std::string json = snap.ToJson();

  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.json.counter\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": -5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);

  // The snapshot taken now and serialized again is byte-identical: the
  // registry stores metrics name-sorted and serialization is pure.
  EXPECT_EQ(reg.Snapshot().ToJson(), json);
}

TEST(MetricsSnapshotTest, JsonEscapesSpecialCharacters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.json.\"quoted\\name\"")->Add(1);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\\\"quoted\\\\name\\\""), std::string::npos);
}

TEST(JsonHelpersTest, NumbersAndStrings) {
  EXPECT_EQ(obs::JsonNumber(1.5), "1.5");
  EXPECT_EQ(obs::JsonNumber(std::nan("")), "null");
  EXPECT_EQ(obs::JsonString("a\nb"), "\"a\\nb\"");
}

// --- Timers ----------------------------------------------------------------

TEST(ScopedTimerTest, ObservesElapsedMicros) {
  obs::Histogram h(obs::Histogram::DefaultTimeBoundsUs());
  {
    obs::ScopedTimer timer(&h);
    EXPECT_GE(timer.ElapsedUs(), 0);
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.sum(), 0);
}

TEST(TraceSpanTest, RecordsCallsAndTiming) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t before =
      reg.GetCounter("span.test_span.calls")->value();
  { obs::TraceSpan span("test_span"); }
  { obs::TraceSpan span("test_span"); }
  EXPECT_EQ(reg.GetCounter("span.test_span.calls")->value(), before + 2);
  EXPECT_GE(reg.GetHistogram("span.test_span.us")->count(), 2);
}

// --- Storage wiring --------------------------------------------------------

TEST(StorageMetricsTest, TableChargesGlobalAndPerRelationCounters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* page_writes = reg.GetCounter("storage.page_writes");
  obs::Counter* rel_writes =
      reg.GetCounter("storage.rel.MetricsT.page_writes");
  const int64_t global_before = page_writes->value();
  const int64_t rel_before = rel_writes->value();

  PageCounter counter;
  TableDef def;
  def.name = "MetricsT";
  def.schema =
      Schema::Create({{"k", ValueType::kString}, {"v", ValueType::kInt64}})
          .value();
  def.primary_key = {"k"};
  Table table(def, &counter);
  ASSERT_TRUE(table.Insert({Value::String("a"), Value::Int64(1)}).ok());

  // Insert: 1 tuple write + 1 index write, mirrored globally and
  // per-relation.
  EXPECT_EQ(page_writes->value() - global_before, 2);
  EXPECT_EQ(rel_writes->value() - rel_before, 2);

  // A disabled counter suspends the mirrors too.
  const int64_t mid = page_writes->value();
  {
    ScopedCountingDisabled guard(&counter);
    ASSERT_TRUE(table.Insert({Value::String("b"), Value::Int64(2)}).ok());
  }
  EXPECT_EQ(page_writes->value(), mid);
  EXPECT_EQ(rel_writes->value() - rel_before, 2);
}

TEST(StorageMetricsTest, LabeledDatabaseScopesPerRelationCounters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* labeled =
      reg.GetCounter("storage.rel.mirror.ScopedT.page_writes");
  obs::Counter* unlabeled = reg.GetCounter("storage.rel.ScopedT.page_writes");
  const int64_t labeled_before = labeled->value();
  const int64_t unlabeled_before = unlabeled->value();

  TableDef def;
  def.name = "ScopedT";
  def.schema =
      Schema::Create({{"k", ValueType::kString}, {"v", ValueType::kInt64}})
          .value();
  def.primary_key = {"k"};

  // Two databases, same schema: the labeled one charges
  // storage.rel.<label>.<table>.*, never aliasing the unlabeled names
  // (docs/OBSERVABILITY.md per-database scoping).
  Database mirror;
  mirror.set_label("mirror");
  auto mt = mirror.CreateTable(def);
  ASSERT_TRUE(mt.ok());
  ASSERT_TRUE((*mt)->Insert({Value::String("a"), Value::Int64(1)}).ok());
  EXPECT_EQ(labeled->value() - labeled_before, 2);
  EXPECT_EQ(unlabeled->value(), unlabeled_before);

  Database plain;
  auto pt = plain.CreateTable(def);
  ASSERT_TRUE(pt.ok());
  ASSERT_TRUE((*pt)->Insert({Value::String("a"), Value::Int64(1)}).ok());
  EXPECT_EQ(unlabeled->value() - unlabeled_before, 2);
  EXPECT_EQ(labeled->value() - labeled_before, 2);
}

}  // namespace
}  // namespace auxview
