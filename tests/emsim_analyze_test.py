#!/usr/bin/env python3
"""Fixture tests for tools/lint/emsim_analyze.py — every rule has at least
one positive (finding fires) and one negative (clean) fixture, including a
cross-TU case proving taint tracks through a call into another translation
unit, plus the suppression mechanics and the clean-tree gate.

Fixtures are synthetic mini-projects (sources + compile_commands.json) laid
out in a temp dir; the analyzer runs over them exactly as it does over the
real tree.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools" / "lint"))

import emsim_analyze  # noqa: E402


def run_fixture(files):
    """Runs the analyzer over a synthetic tree; returns (exit_code, report).
    `files` maps repo-relative paths to contents; every .cc file becomes a
    compilation-database entry."""
    with tempfile.TemporaryDirectory(prefix="emsim_analyze_fixture_") as name:
        tmp = Path(name)
        (tmp / "build").mkdir()
        db = []
        for rel, text in files.items():
            path = tmp / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            if rel.endswith(".cc"):
                db.append({
                    "directory": str(tmp),
                    "file": str(path),
                    "command": f"c++ -I{tmp}/src -c {rel} -o {rel}.o",
                })
        (tmp / "build" / "compile_commands.json").write_text(
            json.dumps(db), encoding="utf-8")
        report_path = tmp / "report.json"
        code = emsim_analyze.main([
            "--build-dir", str(tmp / "build"),
            "--source-root", str(tmp),
            "--report", str(report_path),
        ])
        return code, json.loads(report_path.read_text(encoding="utf-8"))


def rules_fired(files):
    _, report = run_fixture(files)
    return sorted({f["rule"] for f in report["findings"]})


# A minimal export sink: the file path matches EXPORT_SINK_PATTERNS, and the
# function defined in it pulls callees into the export surface.
SINK_CC = """
namespace emsim::stats {
void WriteJson() {}
}
"""


def sink_calling(callee_decl, callee_call):
    return (f"{callee_decl}\n"
            "namespace emsim::stats {\n"
            f"void WriteJson() {{ {callee_call}; }}\n"
            "}\n")


class DeterminismTaintTest(unittest.TestCase):
    def test_wall_clock_on_export_surface_fires(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "double Sample();", "Sample()"),
            "src/core/sample.cc": """
#include <chrono>
double Sample() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
        }
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        findings = report["findings"]
        self.assertEqual([f["rule"] for f in findings], ["determinism-taint"])
        self.assertEqual(findings[0]["path"], "src/core/sample.cc")
        # The finding names the cross-TU export path from the sink.
        self.assertIn("WriteJson", findings[0]["message"])
        self.assertIn("Sample", findings[0]["message"])

    def test_wall_clock_off_export_surface_is_clean(self):
        files = {
            "src/stats/json_writer.cc": SINK_CC,
            "src/core/sample.cc": """
#include <chrono>
double Sample() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
        }
        self.assertEqual(rules_fired(files), [])

    def test_caller_of_sink_is_on_the_surface(self):
        files = {
            "src/stats/json_writer.cc": SINK_CC,
            "src/core/driver.cc": """
#include <chrono>
namespace emsim::stats { void WriteJson(); }
void Drive() {
  auto t = std::chrono::system_clock::now();
  (void)t;
  emsim::stats::WriteJson();
}
""",
        }
        self.assertEqual(rules_fired(files), ["determinism-taint"])

    def test_clock_alias_is_tracked(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "double Sample();", "Sample()"),
            "src/core/sample.cc": """
#include <chrono>
using Clock = std::chrono::steady_clock;
double Sample() { return Clock::now().time_since_epoch().count(); }
""",
        }
        self.assertEqual(rules_fired(files), ["determinism-taint"])

    def test_thread_id_fires(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "unsigned long Sample();", "Sample()"),
            "src/core/sample.cc": """
#include <thread>
unsigned long Sample() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}
""",
        }
        self.assertIn("determinism-taint", rules_fired(files))

    def test_pointer_hash_fires(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "unsigned long Sample(void* p);", "Sample(nullptr)"),
            "src/core/sample.cc": """
#include <functional>
unsigned long Sample(void* p) { return std::hash<void*>{}(p); }
""",
        }
        self.assertEqual(rules_fired(files), ["determinism-taint"])

    def test_pointer_to_int_cast_fires(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "unsigned long Sample(int* p);", "Sample(nullptr)"),
            "src/core/sample.cc": """
#include <cstdint>
unsigned long Sample(int* p) { return reinterpret_cast<uintptr_t>(p); }
""",
        }
        self.assertEqual(rules_fired(files), ["determinism-taint"])

    def test_pointer_to_pointer_cast_is_clean(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "char Sample(int* p);", "Sample(nullptr)"),
            "src/core/sample.cc": """
char Sample(int* p) { return *reinterpret_cast<char*>(p); }
""",
        }
        self.assertEqual(rules_fired(files), [])

    def test_unordered_iteration_fires(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "int Sample();", "Sample()"),
            "src/core/sample.cc": """
#include <unordered_map>
std::unordered_map<int, int> table;
int Sample() {
  int sum = 0;
  for (const auto& kv : table) sum += kv.second;
  return sum;
}
""",
        }
        self.assertEqual(rules_fired(files), ["determinism-taint"])

    def test_ordered_iteration_is_clean(self):
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "int Sample();", "Sample()"),
            "src/core/sample.cc": """
#include <map>
std::map<int, int> table;
int Sample() {
  int sum = 0;
  for (const auto& kv : table) sum += kv.second;
  return sum;
}
""",
        }
        self.assertEqual(rules_fired(files), [])

    def test_taint_tracks_two_calls_deep_across_tus(self):
        # Sink -> Middle (TU 2) -> Leaf (TU 3): the source sits two hops
        # from the sink, each hop in a different translation unit.
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "double Middle();", "Middle()"),
            "src/core/middle.cc": """
double Leaf();
double Middle() { return Leaf() * 2.0; }
""",
            "src/core/leaf.cc": """
#include <chrono>
double Leaf() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
        }
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        finding = report["findings"][0]
        self.assertEqual(finding["path"], "src/core/leaf.cc")
        self.assertIn("Middle", finding["message"])
        self.assertIn("Leaf", finding["message"])


class PointerOrderingTest(unittest.TestCase):
    def test_set_of_pointers_fires(self):
        files = {"src/core/owners.cc": """
#include <set>
struct Run {};
std::set<Run*> live_runs;
"""}
        self.assertEqual(rules_fired(files), ["pointer-ordering"])

    def test_set_of_values_is_clean(self):
        files = {"src/core/owners.cc": """
#include <set>
std::set<int> live_ids;
"""}
        self.assertEqual(rules_fired(files), [])

    def test_map_keyed_on_pointer_fires(self):
        files = {"src/core/owners.cc": """
#include <map>
struct Run {};
std::map<Run*, int> credit;
"""}
        self.assertEqual(rules_fired(files), ["pointer-ordering"])

    def test_map_with_pointer_value_is_clean(self):
        # The *key* must be the pointer; pointer mapped-to values are fine.
        files = {"src/core/owners.cc": """
#include <map>
struct Run {};
std::map<int, Run*> by_id;
"""}
        self.assertEqual(rules_fired(files), [])

    def test_comparator_ordering_pointer_params_fires(self):
        files = {"src/core/sorter.cc": """
#include <algorithm>
#include <vector>
struct Run { int id; };
void Arrange(std::vector<Run*>& runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run* a, const Run* b) { return a < b; });
}
"""}
        self.assertEqual(rules_fired(files), ["pointer-ordering"])

    def test_comparator_on_stable_field_is_clean(self):
        files = {"src/core/sorter.cc": """
#include <algorithm>
#include <vector>
struct Run { int id; };
void Arrange(std::vector<Run*>& runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run* a, const Run* b) { return a->id < b->id; });
}
"""}
        self.assertEqual(rules_fired(files), [])


class FloatReductionOrderTest(unittest.TestCase):
    def test_ad_hoc_sum_in_aggregation_fires(self):
        files = {"src/core/agg.cc": """
#include <vector>
struct Trial { double ms; };
double AggregateTrials(const std::vector<Trial>& trials) {
  double total = 0.0;
  for (const auto& t : trials) total += t.ms;
  return total;
}
"""}
        self.assertEqual(rules_fired(files), ["float-reduction-order"])

    def test_same_body_outside_aggregation_is_clean(self):
        files = {"src/core/agg.cc": """
#include <vector>
struct Trial { double ms; };
double SumForDebugging(const std::vector<Trial>& trials) {
  double total = 0.0;
  for (const auto& t : trials) total += t.ms;
  return total;
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_same_file_helper_of_aggregation_fires(self):
        files = {"src/core/agg.cc": """
#include <vector>
struct Trial { double ms; };
double SumHelper(const std::vector<Trial>& trials) {
  double total = 0.0;
  for (const auto& t : trials) total += t.ms;
  return total;
}
double AggregateTrials(const std::vector<Trial>& trials) {
  return SumHelper(trials);
}
"""}
        self.assertEqual(rules_fired(files), ["float-reduction-order"])

    def test_reassignment_form_fires(self):
        files = {"src/core/agg.cc": """
double MergeShardArtifacts(const double* xs, int n) {
  double mean = 0.0;
  for (int i = 0; i < n; ++i) mean = mean + xs[i];
  return mean;
}
"""}
        self.assertEqual(rules_fired(files), ["float-reduction-order"])

    def test_stats_accumulator_implementation_is_exempt(self):
        # src/stats/ is the sanctioned Welford implementation.
        files = {"src/stats/accumulator_fixture.cc": """
struct Acc { double mean; long long count; };
void AggregateTrials(Acc& a, double x) {
  a.count += 1;
  double delta = x - a.mean;
  a.mean += delta / a.count;
}
"""}
        self.assertEqual(rules_fired(files), [])


class CoroutineRulesTest(unittest.TestCase):
    def test_ref_capture_in_lambda_coroutine_fires(self):
        files = {"src/core/pipeline.cc": """
struct Task { };
struct Event { };
void Spawn() {
  int credit = 3;
  auto body = [&credit]() -> Task {
    co_await Event{};
    co_return;
  };
  (void)body;
}
"""}
        self.assertEqual(rules_fired(files), ["coro-ref-capture"])

    def test_value_capture_in_lambda_coroutine_is_clean(self):
        for lambda_head in ("[credit]() -> Task {",
                            "[credit](int v) mutable -> Task {"):
            files = {"src/core/pipeline.cc": f"""
struct Task {{ }};
struct Event {{ }};
void Spawn() {{
  int credit = 3;
  auto body = {lambda_head}
    co_await Event{{}};
    co_return;
  }};
  (void)body;
}}
"""}
            self.assertEqual(rules_fired(files), [], lambda_head)

    def test_ref_param_read_after_suspension_fires(self):
        lambda_text = """[](const int& credit) -> Task {
    co_await Event{};
    int local = credit;
    (void)local;
    co_return;
  }"""
        # In a function body, and as a class member's initializer.
        for scope in (f"void Spawn() {{\n  auto body = {lambda_text};\n"
                      "  (void)body;\n}\n",
                      f"struct Holder {{\n  Task (*body)(const int&) = "
                      f"{lambda_text};\n}};\n"):
            files = {"src/core/pipeline.cc":
                     "struct Task { };\nstruct Event { };\n" + scope}
            self.assertEqual(rules_fired(files), ["coro-ref-capture"], scope)

    def test_value_param_read_after_suspension_is_clean(self):
        files = {"src/core/pipeline.cc": """
struct Task { };
struct Event { };
void Spawn() {
  auto body = [](int credit) -> Task {
    co_await Event{};
    int local = credit;
    (void)local;
    co_return;
  };
  (void)body;
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_ref_param_read_only_before_suspension_is_clean(self):
        files = {"src/core/pipeline.cc": """
#include <vector>
struct Task { };
struct Event { };
void Spawn() {
  auto body = [](std::vector<int>& log) -> Task {
    log.push_back(1);
    co_await Event{};
  };
  (void)body;
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_named_coroutine_with_ref_params_is_clean(self):
        # The sanctioned pattern: the caller owns the referents for the run.
        files = {"src/core/pipeline.cc": """
#include <vector>
struct Task { };
struct Event { };
struct Simulation { };
Task Push(Simulation& sim, std::vector<int>& log, int v) {
  co_await Event{};
  log.push_back(v);
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_non_coroutine_ref_lambda_in_coroutine_file_is_clean(self):
        files = {"src/core/pipeline.cc": """
#include <vector>
struct Task { };
struct Event { };
Task Sort(std::vector<int> order) {
  co_await Event{};
  auto cmp = [&order](int a, int b) { return order[a] < order[b]; };
  (void)cmp;
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_raw_handle_outside_sim_fires(self):
        # Storing someone else's handle is the hazard; the storer need not
        # itself be a coroutine, and tests are not exempt.
        for rel in ("src/core/scheduler.cc", "src/io/x.cc", "tests/x.cc"):
            files = {rel: "#include <coroutine>\n"
                          "std::coroutine_handle<> saved;\n"}
            self.assertEqual(rules_fired(files), ["coro-raw-handle"], rel)

    def test_raw_handle_inside_sim_kernel_is_clean(self):
        files = {"src/sim/scheduler.cc": """
#include <coroutine>
std::coroutine_handle<> parked;
"""}
        self.assertEqual(rules_fired(files), [])

    def test_handle_in_comment_does_not_fire(self):
        # Token-level matching: prose mentioning the type is not a finding
        # (the regex tier needed an allow for this).
        files = {"src/core/scheduler.cc": """
// The kernel parks a std::coroutine_handle for each waiter.
int parked = 0;
"""}
        self.assertEqual(rules_fired(files), [])

    def test_blocking_primitives_in_coroutine_tu_fire(self):
        # Each primitive is the only std:: blocking name in its file (the
        # lock wrappers hold a local Mu), so exactly one finding can fire
        # and it must name that primitive on the statement's line.
        cases = (
            ("std::this_thread::sleep_for(std::chrono::seconds(1));",
             "std::this_thread::sleep_for"),
            ("std::this_thread::sleep_until(std::chrono::steady_clock::now());",
             "std::this_thread::sleep_until"),
            ("std::mutex m;", "std::mutex"),
            ("std::lock_guard<Mu> lock(mu);", "std::lock_guard"),
            ("std::unique_lock<Mu> lock(mu);", "std::unique_lock"),
            ("std::condition_variable cv;", "std::condition_variable"),
        )
        for stmt, primitive in cases:
            text = f"""
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
struct Task {{ }};
struct Event {{ }};
struct Mu {{ void lock() {{}} void unlock() {{}} }};
Task Pump() {{
  co_await Event{{}};
  Mu mu;
  {stmt}
}}
"""
            line = text.splitlines().index(f"  {stmt}") + 1
            _, report = run_fixture({"src/core/worker.cc": text})
            with self.subTest(primitive=primitive):
                self.assertEqual(
                    [(f["rule"], f["line"]) for f in report["findings"]],
                    [("no-blocking-in-sim", line)])
                self.assertTrue(report["findings"][0]["message"].startswith(
                    f"{primitive} in a coroutine TU"),
                    report["findings"][0]["message"])

    def test_namespace_scope_mutex_in_a_coroutine_tu_fires(self):
        files = {"src/core/worker.cc": """
#include <mutex>
struct Task { };
struct Event { };
std::mutex mu;
Task Pump() {
  co_await Event{};
}
"""}
        self.assertEqual(rules_fired(files), ["no-blocking-in-sim"])

    def test_mutex_without_coroutines_is_clean(self):
        files = {"src/core/worker.cc": """
#include <mutex>
void Pump() {
  std::mutex m;
  (void)m;
}
"""}
        self.assertEqual(rules_fired(files), [])


class SuppressionTest(unittest.TestCase):
    def test_trailing_allow_suppresses_and_is_recorded(self):
        cases = {
            "pointer-ordering": """
#include <set>
struct Run {};
std::set<Run*> live;  // emsim-analyze: allow(pointer-ordering)
""",
            "coro-ref-capture": """
struct Task { };
struct Event { };
void Spawn() {
  int credit = 3;
  auto body = [&credit]() -> Task {  // emsim-analyze: allow(coro-ref-capture)
    co_await Event{};
  };
  (void)body;
}
""",
            "coro-raw-handle": """
#include <coroutine>
std::coroutine_handle<> parked;  // emsim-analyze: allow(coro-raw-handle)
""",
            "no-blocking-in-sim": """
#include <mutex>
struct Task { };
struct Event { };
Task Pump() {
  std::mutex m;  // emsim-analyze: allow(no-blocking-in-sim)
  co_await Event{};
}
""",
        }
        for rule, text in cases.items():
            code, report = run_fixture({"src/core/x.cc": text})
            self.assertEqual(code, 0, rule)
            self.assertEqual(report["findings"], [], rule)
            self.assertEqual([s["rule"] for s in report["suppressions"]],
                             [rule])

    def test_allow_on_preceding_comment_line_suppresses(self):
        files = {"src/core/owners.cc": """
#include <set>
struct Run {};
// emsim-analyze: allow(pointer-ordering)
std::set<Run*> live;
"""}
        code, report = run_fixture(files)
        self.assertEqual(code, 0)
        self.assertEqual(len(report["suppressions"]), 1)

    def test_allow_for_other_rule_does_not_suppress(self):
        files = {"src/core/owners.cc": """
#include <set>
struct Run {};
std::set<Run*> live;  // emsim-analyze: allow(determinism-taint)
"""}
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        self.assertEqual(len(report["findings"]), 1)


class SharedStateUnguardedTest(unittest.TestCase):
    def test_unguarded_member_in_capability_class_fires(self):
        files = {"src/core/reg.cc": """
namespace util { class Mutex {}; }
class Registry {
 public:
  void Add(int v);
 private:
  util::Mutex mu_;
  int count_;
};
"""}
        self.assertEqual(rules_fired(files), ["shared-state-unguarded"])

    def test_guarded_and_exempt_members_are_clean(self):
        files = {"src/core/reg.cc": """
#include <atomic>
namespace util { class Mutex {}; }
class Registry {
 private:
  util::Mutex mu_;
  int count_ EMSIM_GUARDED_BY(mu_);
  std::atomic<int> generation_;
  static constexpr int kLimit = 8;
};
"""}
        self.assertEqual(rules_fired(files), [])

    def test_members_of_lockless_class_are_clean(self):
        files = {"src/core/plain.cc": """
struct Options {
  int shards = 1;
  double budget_ms = 0.0;
};
"""}
        self.assertEqual(rules_fired(files), [])

    def test_mutated_local_static_on_parallel_path_fires_cross_tu(self):
        files = {
            "src/sweep/run.cc": """
void Bump();
namespace emsim {
void RunSweepRange(int n) {
  for (int i = 0; i < n; ++i) Bump();
}
}
""",
            "src/core/bump.cc": """
void Bump() {
  static int counter = 0;
  ++counter;
}
""",
        }
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        finding = report["findings"][0]
        self.assertEqual(finding["rule"], "shared-state-unguarded")
        self.assertIn("RunSweepRange", finding["message"])
        self.assertIn("counter", finding["message"])

    def test_local_static_off_parallel_paths_is_clean(self):
        files = {"src/core/bump.cc": """
void Bump() {
  static int counter = 0;
  ++counter;
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_unmutated_and_sync_local_statics_are_clean(self):
        files = {
            "src/sweep/run.cc": """
int Lookup(int i);
namespace emsim {
int RunSweepRange(int n) { return Lookup(n); }
}
""",
            "src/core/table.cc": """
#include <mutex>
int Lookup(int i) {
  static const int kTable[4] = {1, 2, 3, 4};
  static std::mutex mu;
  (void)mu;
  return kTable[i & 3];
}
""",
        }
        self.assertEqual(rules_fired(files), [])


class LockOrderCycleTest(unittest.TestCase):
    def test_inverse_order_in_one_tu_fires_once(self):
        files = {"src/core/ab.cc": """
#include <mutex>
std::mutex a;
std::mutex b;
void AB() {
  std::lock_guard<std::mutex> la(a);
  std::lock_guard<std::mutex> lb(b);
}
void BA() {
  std::lock_guard<std::mutex> lb(b);
  std::lock_guard<std::mutex> la(a);
}
"""}
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        cycles = [f for f in report["findings"]
                  if f["rule"] == "lock-order-cycle"]
        self.assertEqual(len(cycles), 1)

    def test_cycle_through_cross_tu_call_under_lock_fires(self):
        files = {
            "src/core/one.cc": """
#include <mutex>
extern std::mutex a;
void TakeB();
void CallUnder() {
  std::lock_guard<std::mutex> la(a);
  TakeB();
}
""",
            "src/core/two.cc": """
#include <mutex>
std::mutex a;
std::mutex b;
void TakeB() { std::lock_guard<std::mutex> lb(b); }
void Reverse() {
  std::lock_guard<std::mutex> lb(b);
  std::lock_guard<std::mutex> la(a);
}
""",
        }
        self.assertIn("lock-order-cycle", rules_fired(files))

    def test_double_acquisition_is_a_self_cycle(self):
        files = {"src/core/dbl.cc": """
#include <mutex>
std::mutex m;
void Doubled() {
  std::lock_guard<std::mutex> l1(m);
  std::lock_guard<std::mutex> l2(m);
}
"""}
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        finding = report["findings"][0]
        self.assertEqual(finding["rule"], "lock-order-cycle")
        self.assertIn("re-acquired", finding["message"])

    def test_consistent_order_is_clean(self):
        files = {"src/core/ok.cc": """
#include <mutex>
std::mutex a;
std::mutex b;
void First() {
  std::lock_guard<std::mutex> la(a);
  std::lock_guard<std::mutex> lb(b);
}
void Second() {
  std::lock_guard<std::mutex> la(a);
  std::lock_guard<std::mutex> lb(b);
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_same_method_on_sibling_instance_is_not_a_self_cycle(self):
        # `parent_->Bump()` resolves by simple name to the caller itself;
        # the closure must skip same-qname candidates or every delegating
        # method becomes a false double-lock.
        files = {"src/core/sibling.cc": """
namespace util { class Mutex {}; class MutexLock {
 public: explicit MutexLock(Mutex* m); }; }
class Registry {
 public:
  void Bump(int n);
 private:
  util::Mutex mu_;
  Registry* parent_ EMSIM_GUARDED_BY(mu_) = nullptr;
  int count_ EMSIM_GUARDED_BY(mu_) = 0;
};
void Registry::Bump(int n) {
  util::MutexLock lock(&mu_);
  count_ += n;
  if (parent_) parent_->Bump(n);
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_adopt_and_defer_tags_are_not_acquisitions(self):
        files = {"src/core/adopt.cc": """
#include <mutex>
std::mutex m;
void Adopted() {
  m.lock();
  std::unique_lock<std::mutex> l1(m, std::adopt_lock);
  std::unique_lock<std::mutex> l2(m, std::adopt_lock);
}
"""}
        self.assertEqual(rules_fired(files), [])


class LockHeldBlockingTest(unittest.TestCase):
    def test_direct_blocking_call_under_lock_fires(self):
        files = {"src/core/flush.cc": """
#include <mutex>
#include <unistd.h>
std::mutex m;
void Flush(int fd) {
  std::lock_guard<std::mutex> l(m);
  fsync(fd);
}
"""}
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        finding = report["findings"][0]
        self.assertEqual(finding["rule"], "lock-held-blocking")
        self.assertIn("fsync", finding["message"])

    def test_transitive_blocking_through_cross_tu_call_fires(self):
        files = {
            "src/core/hold.cc": """
#include <mutex>
std::mutex m;
void WriteDurable(int fd);
void Publish(int fd) {
  std::lock_guard<std::mutex> l(m);
  WriteDurable(fd);
}
""",
            "src/core/durable.cc": """
#include <unistd.h>
void WriteDurable(int fd) { fsync(fd); }
""",
        }
        self.assertEqual(rules_fired(files), ["lock-held-blocking"])

    def test_blocking_outside_the_lock_scope_is_clean(self):
        files = {"src/core/flush.cc": """
#include <mutex>
#include <unistd.h>
std::mutex m;
void Flush(int fd) {
  {
    std::lock_guard<std::mutex> l(m);
  }
  fsync(fd);
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_blocking_in_deferred_lambda_under_lock_is_clean(self):
        files = {"src/core/defer.cc": """
#include <functional>
#include <mutex>
#include <unistd.h>
std::mutex m;
std::function<void()> pending;
void Queue(int fd) {
  std::lock_guard<std::mutex> l(m);
  pending = [fd] { fsync(fd); };
}
"""}
        self.assertEqual(rules_fired(files), [])

    def test_bare_cv_wait_outside_a_recheck_loop_fires(self):
        files = {"src/core/wait.cc": """
#include <condition_variable>
#include <mutex>
std::mutex m;
std::condition_variable cv;
void BadWait() {
  std::unique_lock<std::mutex> l(m);
  cv.wait(l);
}
"""}
        code, report = run_fixture(files)
        self.assertEqual(code, 1)
        self.assertEqual(report["findings"][0]["rule"], "lock-held-blocking")
        self.assertIn("re-check loop", report["findings"][0]["message"])

    def test_loop_wrapped_and_predicate_waits_are_clean(self):
        files = {"src/core/wait.cc": """
#include <condition_variable>
#include <mutex>
bool ready;
std::mutex m;
std::condition_variable cv;
void LoopWait() {
  std::unique_lock<std::mutex> l(m);
  while (!ready) cv.wait(l);
}
void BracedWait() {
  std::unique_lock<std::mutex> l(m);
  while (!ready) {
    cv.wait(l);
  }
}
void PredicateWait() {
  std::unique_lock<std::mutex> l(m);
  cv.wait(l, [] { return ready; });
}
"""}
        self.assertEqual(rules_fired(files), [])


class AnnotationParseTest(unittest.TestCase):
    def test_annotated_function_still_carries_taint(self):
        # Capability macros on declarations must not derail function
        # discovery: taint inside an EMSIM_EXCLUDES-annotated definition
        # still reaches the export surface.
        files = {
            "src/stats/json_writer.cc": sink_calling(
                "double Tick();", "Tick()"),
            "src/core/tick.cc": """
#include <chrono>
namespace util { class Mutex {}; }
util::Mutex mu;
double Tick() EMSIM_EXCLUDES(mu) {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
        }
        self.assertEqual(rules_fired(files), ["determinism-taint"])

    def test_annotated_class_members_parse(self):
        files = {"src/core/annotated.cc": """
namespace util { class EMSIM_CAPABILITY("mutex") Mutex {}; }
class EMSIM_SCOPED_CAPABILITY Holder {
 public:
  explicit Holder(util::Mutex* m) EMSIM_ACQUIRE(m);
  ~Holder() EMSIM_RELEASE();
 private:
  util::Mutex* held_;
};
"""}
        self.assertEqual(rules_fired(files), [])


class CleanTreeGateTest(unittest.TestCase):
    """The real tree must analyze clean (suppressions allowed, findings not).
    Mirrors the emsim_lint clean-tree gate; requires a configured build."""

    def test_repo_is_clean(self):
        build = REPO_ROOT / "build"
        if not (build / "compile_commands.json").is_file():
            self.skipTest("no compile_commands.json (build not configured)")
        with tempfile.TemporaryDirectory() as tmp:
            report_path = Path(tmp) / "report.json"
            code = emsim_analyze.main([
                "--build-dir", str(build),
                "--source-root", str(REPO_ROOT),
                "--report", str(report_path),
            ])
            report = json.loads(report_path.read_text(encoding="utf-8"))
        self.assertEqual(
            [(-1, f["path"], f["line"], f["rule"]) for f in
             report["findings"]], [],
            "unsuppressed analyzer findings in the tree")
        self.assertEqual(code, 0)
        # Every suppression must carry an allow() the auditor can find.
        for s in report["suppressions"]:
            self.assertIn(s["rule"], emsim_analyze.RULES)


if __name__ == "__main__":
    unittest.main(verbosity=2)
