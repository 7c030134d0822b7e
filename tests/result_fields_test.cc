// Pins the MergeResult field table (core/result_fields.h): every member of
// every struct it covers has exactly one entry, every leaf survives the
// shard codec's round trip on its own, and DiffFields names each leaf by
// its dotted path. A table line that is deleted, duplicated or pointed at
// the wrong member fails here, naming the struct or the field.

#include "core/result_fields.h"

#include <cstddef>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/block_cache.h"
#include "core/result.h"
#include "disk/disk.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "stats/accumulator.h"
#include "sweep/shard.h"
#include "util/str.h"

namespace emsim::core {
namespace {

// ---------------------------------------------------------------------------
// Completeness: members counted by aggregate initialisation against entries
// counted by the table.
// ---------------------------------------------------------------------------

/// Converts to any member type, so `T{AnyMember{}, ...}` is well-formed for
/// up to as many initialisers as the aggregate T has members. Declared only:
/// it appears in unevaluated operands alone.
struct AnyMember {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <typename T, typename... Members>
constexpr size_t MemberCount() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return MemberCount<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

/// Counts the entries one VisitFields lists, without descending into them.
struct EntryCounter {
  size_t entries = 0;

  template <typename T>
  void Field(const char* /*key*/, const T& /*leaf*/, bool /*on_wire*/ = true) {
    ++entries;
  }
  template <typename S>
  void Object(const char* /*key*/, const S& /*sub*/) {
    ++entries;
  }
  template <typename S>
  void Array(const char* /*key*/, const std::vector<S>& /*items*/) {
    ++entries;
  }
};

template <typename T>
void ExpectOneEntryPerMember(const char* name) {
  static_assert(std::is_aggregate_v<T>);
  const T value{};
  EntryCounter counter;
  VisitFields(value, counter);
  EXPECT_EQ(counter.entries, MemberCount<T>())
      << name << ": the field table lists " << counter.entries << " of its "
      << MemberCount<T>() << " members";
}

TEST(ResultFieldsTest, TableListsEveryMemberOfEveryStruct) {
  ExpectOneEntryPerMember<MergeResult>("MergeResult");
  ExpectOneEntryPerMember<disk::DiskStats>("disk::DiskStats");
  ExpectOneEntryPerMember<cache::CacheStats>("cache::CacheStats");
  ExpectOneEntryPerMember<fault::FaultStats>("fault::FaultStats");
  ExpectOneEntryPerMember<disk::DiskUtilization>("disk::DiskUtilization");
  ExpectOneEntryPerMember<obs::MetricsRegistry::Sample>("obs::MetricsRegistry::Sample");
  ExpectOneEntryPerMember<stats::Accumulator::State>("stats::Accumulator::State");
}

// ---------------------------------------------------------------------------
// Each leaf alone: set it, diff it, round-trip it.
// ---------------------------------------------------------------------------

/// A result in which the table visits every leaf: one element in each
/// vector, and one stall observation so the accumulator's mean, m2, min and
/// max are on the wire.
MergeResult EveryLeafVisited() {
  MergeResult r;
  r.stall_ms.Add(2.0);
  r.per_disk.resize(1);
  r.metrics.push_back({"merge.stalls", 0.0});
  return r;
}

/// Walks a result mutably and changes the `target`-th leaf (in table order)
/// to a value distinct from the one it holds, recording that leaf's path.
class LeafSetter {
 public:
  explicit LeafSetter(size_t target) : target_(target) {}

  size_t leaves = 0;  ///< Leaves walked.
  std::string path;   ///< Dotted path of the changed leaf; empty if none.

  template <typename T>
  void Field(const char* key, T& leaf, bool /*on_wire*/ = true) {
    if (leaves++ != target_) {
      return;
    }
    path = prefix_ + key;
    if constexpr (std::is_same_v<T, bool>) {
      leaf = !leaf;
    } else if constexpr (std::is_same_v<T, std::string>) {
      leaf += ".changed";
    } else if constexpr (std::is_same_v<T, double>) {
      leaf += 1.25;
    } else {
      leaf += 3;
    }
  }
  template <typename S>
  void Object(const char* key, S& sub) {
    Nest(key, sub);
  }
  template <typename S>
  void Array(const char* key, std::vector<S>& items) {
    for (size_t i = 0; i < items.size(); ++i) {
      Nest(StrFormat("%s[%zu]", key, i), items[i]);
    }
  }

 private:
  template <typename S>
  void Nest(const std::string& key, S& sub) {
    size_t outer = prefix_.size();
    prefix_ += key + '.';
    VisitFields(sub, *this);
    prefix_.resize(outer);
  }

  size_t target_;
  std::string prefix_;
};

MergeResult RoundTrip(const MergeResult& r) {
  sweep::ShardArtifact artifact;
  artifact.shard_count = 1;
  artifact.total_tasks = 1;
  artifact.range = {0, 1};
  artifact.tasks.push_back({0, true, r, {}});
  auto decoded = sweep::DecodeShardArtifact(sweep::EncodeShardArtifact(artifact));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok() || decoded->tasks.size() != 1) {
    return MergeResult{};
  }
  return std::move(decoded->tasks.front().result);
}

TEST(ResultFieldsTest, EachLeafAloneRoundTripsAndIsNamedByTheDiff) {
  const MergeResult base = EveryLeafVisited();
  LeafSetter count_only(static_cast<size_t>(-1));
  MergeResult scratch = base;
  VisitFields(scratch, count_only);
  // 10 MergeResult scalars + 15 DiskStats + 6 CacheStats + 5 accumulator
  // state + 5 write/event counters + 12 FaultStats, then the two vectors:
  // one DiskUtilization (3 + 15) and one Sample (2).
  EXPECT_EQ(count_only.leaves, 10u + 15 + 6 + 5 + 5 + 12 + 18 + 2);

  std::set<std::string> paths;
  for (size_t i = 0; i < count_only.leaves; ++i) {
    MergeResult changed = base;
    LeafSetter setter(i);
    VisitFields(changed, setter);
    ASSERT_FALSE(setter.path.empty()) << "leaf " << i;
    SCOPED_TRACE(setter.path);
    // The decoder reads a key's first occurrence, so a repeated key would
    // shadow a field.
    EXPECT_TRUE(paths.insert(setter.path).second) << "two leaves share the key";
    std::vector<std::string> diff = DiffFields(changed, base);
    ASSERT_EQ(diff.size(), 1u) << ::testing::PrintToString(diff);
    EXPECT_EQ(diff.front().rfind(setter.path + ": ", 0), 0u) << diff.front();
    EXPECT_EQ(DiffFields(RoundTrip(changed), changed), std::vector<std::string>{});
  }
}

// ---------------------------------------------------------------------------
// DiffFields
// ---------------------------------------------------------------------------

TEST(ResultFieldsTest, DiffOfEqualResultsIsEmpty) {
  EXPECT_EQ(DiffFields(MergeResult{}, MergeResult{}), std::vector<std::string>{});
  EXPECT_EQ(DiffFields(EveryLeafVisited(), EveryLeafVisited()), std::vector<std::string>{});
}

TEST(ResultFieldsTest, DiffNamesNestedLeavesByDottedPath) {
  MergeResult a;
  a.per_disk.resize(3);
  a.metrics.resize(5);
  MergeResult b = a;
  b.disk_totals.seek_ms = 1.5;
  b.per_disk[2].stats.media_errors = 3;
  b.metrics[4].value = 0.25;
  b.stall_ms.Add(4.0);
  b.stall_ms.Add(6.0);
  EXPECT_EQ(DiffFields(a, b),
            (std::vector<std::string>{
                "disk_totals.seek_ms: 0 vs 1.5",
                "stall_ms.count: 0 vs 2",
                "stall_ms.mean: 0 vs 5",
                "stall_ms.m2: 0 vs 2",
                "stall_ms.min: inf vs 4",
                "stall_ms.max: -inf vs 6",
                "per_disk[2].stats.media_errors: 0 vs 3",
                "metrics[4].value: 0 vs 0.25",
            }));
}

TEST(ResultFieldsTest, DiffComparesDoublesByBitPattern) {
  MergeResult a;
  MergeResult b;
  b.total_ms = -0.0;
  EXPECT_EQ(DiffFields(a, b), std::vector<std::string>{"total_ms: 0 vs -0"});
}

TEST(ResultFieldsTest, DiffReportsVectorSizesAndComparesTheCommonPrefix) {
  MergeResult a;
  a.per_disk.resize(3);
  a.metrics.push_back({"merge.stalls", 1.0});
  MergeResult b;
  b.per_disk.resize(2);
  b.per_disk[1].id = 1;
  EXPECT_EQ(DiffFields(a, b), (std::vector<std::string>{
                                  "per_disk: size 3 vs size 2",
                                  "per_disk[1].id: 0 vs 1",
                                  "metrics: size 1 vs size 0",
                              }));
}

}  // namespace
}  // namespace emsim::core
