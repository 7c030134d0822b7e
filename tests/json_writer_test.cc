#include "stats/json_writer.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result_json.h"
#include "util/rng.h"

namespace emsim::stats {
namespace {

TEST(JsonEscapeTest, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::Escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::Escape(std::string("nul\x01" "byte")), "nul\\u0001byte");
}

TEST(JsonFormatDoubleTest, RoundTripsThroughStrtod) {
  const double cases[] = {0.0,    1.0,     -1.0,   0.1,   1.0 / 3.0,
                          2.5641, 1e300,   1e-300, 1e6,   123456789.123456,
                          -0.25,  8.33333, 3.5e-5};
  for (double v : cases) {
    std::string s = JsonWriter::FormatDouble(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << "via " << s;
  }
}

TEST(JsonFormatDoubleTest, IsShortForRepresentableValues) {
  EXPECT_EQ(JsonWriter::FormatDouble(0.0), "0");
  EXPECT_EQ(JsonWriter::FormatDouble(1.0), "1");
  EXPECT_EQ(JsonWriter::FormatDouble(0.5), "0.5");
  EXPECT_EQ(JsonWriter::FormatDouble(2.5641), "2.5641");
}

TEST(JsonFormatDoubleTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonWriter::FormatDouble(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(JsonWriter::FormatDouble(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonWriter::FormatDouble(-std::numeric_limits<double>::infinity()),
            "null");
}

// The printf/strtod loop the writer's number path must match byte for byte.
std::string ReferenceFormatDouble(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(JsonFormatDoubleTest, MatchesPrintfStrtodOnRandomBitPatterns) {
  Rng rng(20261017);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = FromBits(rng.Next64());
    const std::string want = ReferenceFormatDouble(v);
    const std::string got = JsonWriter::FormatDouble(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hexfloat << v << ": " << got << " vs " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonFormatDoubleTest, MatchesPrintfStrtodOnEdgeCases) {
  std::vector<double> cases = {0.0, -0.0, std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::denorm_min()};
  // Subnormals: the smallest few, the largest, and a spread in between.
  const uint64_t subnormal_bits[] = {1, 2, 3, 0x000FFFFFFFFFFFFF, 0x0008000000000000,
                                     0x0000000123456789, 0x000ABCDEF0123456};
  for (uint64_t bits : subnormal_bits) {
    cases.push_back(FromBits(bits));
  }
  // Every power of two and both its neighbours: powers of two with 16 or
  // more shortest digits take the writer's precision loop, their neighbours
  // its one-conversion path.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    cases.push_back(p);
    cases.push_back(std::nextafter(p, 0.0));
    cases.push_back(std::nextafter(p, 1e300));
  }
  // Decimal grids: short fixed and scientific forms, and the %g switch at
  // exponent -5.
  for (int k = 1; k <= 200'000; ++k) {
    cases.push_back(k / 1000.0);
    cases.push_back(k * 1e-5);
  }
  // 1e15-1e17, where %.15g stops being exact for integers: the decades, their
  // neighbours, and values stepping across the range.
  for (double decade : {1e15, 1e16, 1e17}) {
    cases.push_back(decade);
    cases.push_back(std::nextafter(decade, 0.0));
    cases.push_back(std::nextafter(decade, 1e300));
  }
  for (double v = 1e15; v <= 1e17; v = v * 1.0009 + 7.0) {
    cases.push_back(v);
    cases.push_back(std::nextafter(v, 1e300));
  }
  const size_t n = cases.size();
  for (size_t i = 0; i < n; ++i) {
    cases.push_back(-cases[i]);
  }
  for (double v : cases) {
    EXPECT_EQ(JsonWriter::FormatDouble(v), ReferenceFormatDouble(v)) << std::hexfloat << v;
  }
}

TEST(JsonWriterTest, IntegersAtTheLimits) {
  JsonWriter w;
  w.BeginArray();
  w.Int(std::numeric_limits<int64_t>::min());
  w.Int(std::numeric_limits<int64_t>::max());
  w.Int(0);
  w.Int(-1);
  w.UInt(std::numeric_limits<uint64_t>::max());
  w.UInt(0);
  w.EndArray();
  EXPECT_EQ(w.Take(),
            "[\n"
            "  -9223372036854775808,\n"
            "  9223372036854775807,\n"
            "  0,\n"
            "  -1,\n"
            "  18446744073709551615,\n"
            "  0\n"
            "]\n");
}

TEST(JsonWriterTest, KeysAndStringsAreEscaped) {
  JsonWriter w;
  w.BeginObject();
  w.Field("a\"key\n", std::string("v\x1f\\"));
  w.EndObject();
  EXPECT_EQ(w.Take(), "{\n  \"a\\\"key\\n\": \"v\\u001f\\\\\"\n}\n");
}

TEST(JsonWriterTest, EmitsExactPrettyPrintedBytes) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", "fig32");
  w.Field("depth", 4);
  w.Field("ratio", 0.5);
  w.Field("ok", true);
  w.Key("tags");
  w.BeginArray();
  w.String("a");
  w.String("b");
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Field("count", uint64_t{7});
  w.EndObject();
  w.EndObject();

  EXPECT_EQ(w.Take(),
            "{\n"
            "  \"name\": \"fig32\",\n"
            "  \"depth\": 4,\n"
            "  \"ratio\": 0.5,\n"
            "  \"ok\": true,\n"
            "  \"tags\": [\n"
            "    \"a\",\n"
            "    \"b\"\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"count\": 7\n"
            "  }\n"
            "}\n");
}

TEST(JsonWriterTest, EmptyContainersStayOnOneLine) {
  JsonWriter w;
  w.BeginObject();
  w.Key("empty_arr");
  w.BeginArray();
  w.EndArray();
  w.Key("empty_obj");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.Take(),
            "{\n"
            "  \"empty_arr\": [],\n"
            "  \"empty_obj\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, WriterIsReusableAfterTake) {
  JsonWriter w;
  w.BeginArray();
  w.Int(1);
  w.EndArray();
  std::string first = w.Take();
  w.BeginArray();
  w.Int(1);
  w.EndArray();
  EXPECT_EQ(first, w.Take());
}

}  // namespace
}  // namespace emsim::stats

namespace emsim::core {
namespace {

MergeConfig SmallConfig() {
  MergeConfig cfg;
  cfg.num_runs = 5;
  cfg.num_disks = 2;
  cfg.blocks_per_run = 30;
  cfg.prefetch_depth = 2;
  cfg.strategy = Strategy::kAllDisksOneRun;
  cfg.seed = 11;
  return cfg;
}

TEST(ResultJsonTest, DocumentContainsTheAcceptanceFields) {
  MergeConfig cfg = SmallConfig();
  ExperimentResult result = RunTrials(cfg, 2);
  std::string doc =
      ExperimentSetToJson({NamedExperiment{"small", cfg, &result}});

  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"generator\": \"emsim\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"small\""), std::string::npos);
  EXPECT_NE(doc.find("\"total_seconds\""), std::string::npos);
  EXPECT_NE(doc.find("\"success_ratio\""), std::string::npos);
  EXPECT_NE(doc.find("\"avg_concurrency\""), std::string::npos);
  EXPECT_NE(doc.find("\"per_disk\""), std::string::npos);
  EXPECT_NE(doc.find("\"busy_fraction\""), std::string::npos);
  EXPECT_NE(doc.find("\"mean_queue_length\""), std::string::npos);
  EXPECT_NE(doc.find("\"per_trial\""), std::string::npos);
  EXPECT_NE(doc.find("\"aggregate\""), std::string::npos);
}

TEST(ResultJsonTest, MetricsSectionAppearsOnlyWhenCollected) {
  MergeConfig cfg = SmallConfig();
  ExperimentResult plain = RunTrials(cfg, 1);
  std::string plain_doc =
      ExperimentSetToJson({NamedExperiment{"plain", cfg, &plain}});
  EXPECT_EQ(plain_doc.find("\"metrics\""), std::string::npos);

  cfg.collect_metrics = true;
  ExperimentResult collected = RunTrials(cfg, 1);
  std::string metrics_doc =
      ExperimentSetToJson({NamedExperiment{"metrics", cfg, &collected}});
  EXPECT_NE(metrics_doc.find("\"metrics\""), std::string::npos);
  EXPECT_NE(metrics_doc.find("\"sim.resumes\""), std::string::npos);
  EXPECT_NE(metrics_doc.find("\"cache.occupancy.avg\""), std::string::npos);
}

// The acceptance criterion behind `emsim_cli --json`: a fixed seed must
// serialize to identical bytes on every run.
TEST(ResultJsonTest, FixedSeedExportIsByteStable) {
  MergeConfig cfg = SmallConfig();
  cfg.collect_metrics = true;

  ExperimentResult first = RunTrials(cfg, 3);
  ExperimentResult second = RunTrials(cfg, 3);
  std::string doc_a =
      ExperimentSetToJson({NamedExperiment{"stability", cfg, &first}});
  std::string doc_b =
      ExperimentSetToJson({NamedExperiment{"stability", cfg, &second}});
  EXPECT_EQ(doc_a, doc_b);

  // Parallel trial fan-out must not change the bytes either.
  ExperimentResult parallel = RunTrials(cfg, 3, /*num_threads=*/0);
  std::string doc_c =
      ExperimentSetToJson({NamedExperiment{"stability", cfg, &parallel}});
  EXPECT_EQ(doc_a, doc_c);
}

}  // namespace
}  // namespace emsim::core
