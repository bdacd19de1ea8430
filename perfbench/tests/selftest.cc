// Self-tests of the benchmark's own pieces: percentile and failure-fraction
// arithmetic, the seeded streams and arrival schedule, and the trace writer's
// output, parsed back as trace-event JSON.
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 1.0), 4.0);
  std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_NEAR(Percentile(ten, 0.9), 9.1, 1e-12);
  EXPECT_NEAR(Percentile(ten, 0.99), 9.91, 1e-12);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(FailFraction, CountsFailuresAgainstAttempts) {
  EXPECT_DOUBLE_EQ(FailFraction(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(FailFraction(3, 12), 0.25);
  EXPECT_DOUBLE_EQ(FailFraction(7, 7), 1.0);
  EXPECT_DEATH(FailFraction(0, 0), "no operations attempted");
  EXPECT_DEATH(FailFraction(3, 2), "failed of");
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    differs = differs || x != c.Next();
  }
  EXPECT_TRUE(differs);
  Rng range(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = range.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const int64_t k = range.UniformInt(5);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 5);
  }
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(1, 2));
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(2, 1));
  EXPECT_EQ(DeriveSeed(9, 3), DeriveSeed(9, 3));
}

TEST(PoissonArrivals, ReproducibleFromTheSeed) {
  const std::vector<double> a = PoissonArrivals(11, 100.0, 30.0);
  EXPECT_EQ(a, PoissonArrivals(11, 100.0, 30.0));
  EXPECT_NE(a, PoissonArrivals(12, 100.0, 30.0));
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], 30.0);
    if (i > 0) EXPECT_GT(a[i], a[i - 1]);
  }
  // 3000 expected arrivals; a Poisson count stays within 5 sigma (~274).
  EXPECT_NEAR(static_cast<double>(a.size()), 3000.0, 274.0);
}

TEST(PoissonArrivals, MeanGapMatchesTheRate) {
  const std::vector<double> a = PoissonArrivals(5, 200.0, 100.0);
  ASSERT_GT(a.size(), 1000u);
  const double mean_gap = a.back() / static_cast<double>(a.size());
  EXPECT_NEAR(mean_gap, 1.0 / 200.0, 0.05 / 200.0);
}

// ---- A strict JSON reader, enough to load a trace file back ----

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json* Field(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Read(Json& out) {
    if (!Value(out)) return false;
    Space();
    return pos_ == text_.size();
  }

 private:
  void Space() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    Space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Word(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Value(Json& out) {
    Space();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out.kind = Json::kString;
      return String(out.text);
    }
    if (Word("true") || Word("false")) {
      out.kind = Json::kBool;
      return true;
    }
    if (Word("null")) return true;
    return Number(out);
  }
  bool Object(Json& out) {
    out.kind = Json::kObject;
    ++pos_;
    if (Eat('}')) return true;
    do {
      std::string key;
      Space();
      if (pos_ >= text_.size() || text_[pos_] != '"' || !String(key)) {
        return false;
      }
      if (!Eat(':') || !Value(out.fields[key])) return false;
    } while (Eat(','));
    return Eat('}');
  }
  bool Array(Json& out) {
    out.kind = Json::kArray;
    ++pos_;
    if (Eat(']')) return true;
    do {
      out.items.emplace_back();
      if (!Value(out.items.back())) return false;
    } while (Eat(','));
    return Eat(']');
  }
  bool String(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escaped = text_[pos_++];
      if (escaped == 'u') {
        if (pos_ + 4 > text_.size()) return false;
        for (int i = 0; i < 4; ++i) {
          if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
            return false;
          }
        }
        pos_ += 4;
        out += '?';
      } else if (std::strchr("\"\\/bfnrt", escaped) != nullptr) {
        out += escaped;
      } else {
        return false;
      }
    }
    return false;
  }
  bool Number(Json& out) {
    const size_t start = pos_;
    auto digits = [&] {
      const size_t from = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > from;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digits()) return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return false;
    }
    out.kind = Json::kNumber;
    out.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonReader, RejectsWhatJsonForbids) {
  Json json;
  EXPECT_TRUE(JsonReader("{\"a\": [1, -2.5e3, \"x\\n\", null]}").Read(json));
  EXPECT_FALSE(JsonReader("{\"a\": nan}").Read(json));
  EXPECT_FALSE(JsonReader("{\"a\": 1,}").Read(json));
  EXPECT_FALSE(JsonReader("[1] [2]").Read(json));
}

TEST(Tracer, WritesLoadableTraceEventJson) {
  Tracer tracer(/*enabled=*/true);
  int64_t outer_id = 0;
  {
    Span outer(tracer, "setup \"quoted\"");
    outer_id = outer.id();
    Span inner(tracer, "partition", "compile");
    inner.Arg("ops", 42);
    inner.Arg("not_a_number", NAN);
  }
  tracer.RecordAsync("request", /*request_id=*/7, outer_id,
                     /*start_us=*/10.0, /*end_us=*/25.5);

  Json trace;
  ASSERT_TRUE(JsonReader(tracer.ToChromeJson({{"seed", "3"}})).Read(trace));
  ASSERT_EQ(trace.kind, Json::kObject);
  const Json* events = trace.Field("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::kArray);
  ASSERT_EQ(events->items.size(), 4u);  // two spans + one b/e pair

  std::map<std::string, const Json*> by_name;
  int begins = 0, ends = 0;
  for (const Json& event : events->items) {
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      ASSERT_NE(event.Field(key), nullptr) << key;
    }
    EXPECT_EQ(event.Field("ts")->kind, Json::kNumber);
    const std::string& phase = event.Field("ph")->text;
    if (phase == "X") {
      ASSERT_NE(event.Field("dur"), nullptr);
      EXPECT_GE(event.Field("dur")->number, 0.0);
      by_name[event.Field("name")->text] = &event;
    } else if (phase == "b") {
      ++begins;
      EXPECT_EQ(event.Field("id")->number, 7.0);
      EXPECT_EQ(event.Field("args")->Field("parent")->number,
                static_cast<double>(outer_id));
    } else {
      ASSERT_EQ(phase, "e");
      ++ends;
      EXPECT_DOUBLE_EQ(event.Field("ts")->number, 25.5);
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  ASSERT_EQ(by_name.count("partition"), 1u);
  ASSERT_EQ(by_name.count("setup \"quoted\""), 1u);
  const Json* args = by_name["partition"]->Field("args");
  EXPECT_EQ(args->Field("parent")->number, static_cast<double>(outer_id));
  EXPECT_EQ(args->Field("ops")->number, 42.0);
  EXPECT_EQ(args->Field("not_a_number")->kind, Json::kNull);
  EXPECT_EQ(by_name["setup \"quoted\""]->Field("args")->Field("parent")->number,
            0.0);
  EXPECT_EQ(trace.Field("otherData")->Field("seed")->text, "3");
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  {
    Span span(tracer, "ignored");
    EXPECT_EQ(span.id(), 0);
  }
  tracer.RecordAsync("request", 1, 0, 0.0, 1.0);
  EXPECT_EQ(tracer.num_events(), 0);
  Json trace;
  ASSERT_TRUE(JsonReader(tracer.ToChromeJson({})).Read(trace));
  EXPECT_TRUE(trace.Field("traceEvents")->items.empty());
}

}  // namespace
}  // namespace perfbench
