#!/usr/bin/env python3
"""Unit tests for tools/lint/emsim_lint.py (registered with ctest as
`lint_test`, label `lint`).

Two halves: fixture strings prove each rule fires (and each suppression /
comment / string-literal escape hatch works), and a full-tree run proves the
repository itself is clean — the same gate CI enforces.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools" / "lint"))

import emsim_lint  # noqa: E402


def rules_fired(relpath, text):
    findings, _ = emsim_lint.lint_text(relpath, text)
    return {f["rule"] for f in findings}


class RuleFixtureTest(unittest.TestCase):
    def test_libc_rand_fires(self):
        self.assertIn("no-libc-rand", rules_fired("src/x.cc", "int r = rand();\n"))
        self.assertIn("no-libc-rand", rules_fired("src/x.cc", "srand(42);\n"))
        self.assertIn("no-libc-rand", rules_fired("src/x.cc", "double d = drand48();\n"))

    def test_member_named_rand_does_not_fire(self):
        self.assertEqual(set(), rules_fired("src/x.cc", "g.rand(7);\n"))
        self.assertEqual(set(), rules_fired("src/x.cc", "int operand(int);\n"))

    def test_wall_clock_fires(self):
        for line in [
            "time_t t = time(nullptr);",
            "std::time(nullptr);",
            "clock();",
            "auto now = std::chrono::system_clock::now();",
            "auto now = std::chrono::high_resolution_clock::now();",
        ]:
            self.assertIn("no-wall-clock", rules_fired("src/x.cc", line + "\n"), line)

    def test_simulated_time_does_not_fire(self):
        self.assertEqual(set(), rules_fired("src/x.cc", "double now = sim.Now();\n"))
        self.assertEqual(set(), rules_fired("src/x.cc", "double total_time(int n);\n"))
        self.assertEqual(
            set(), rules_fired("src/x.cc", "auto t0 = std::chrono::steady_clock::now();\n"))

    def test_std_random_engine_fires(self):
        for line in [
            "std::mt19937 gen;",
            "std::mt19937_64 gen(seed);",
            "std::default_random_engine e;",
            "std::random_device rd;",
        ]:
            self.assertIn("no-std-random-engine", rules_fired("src/x.cc", line + "\n"), line)

    def test_emsim_rng_does_not_fire(self):
        self.assertEqual(set(), rules_fired("src/x.cc", "Rng rng(config.seed);\n"))

    def test_unordered_fires_only_in_export_paths(self):
        line = "std::unordered_map<std::string, int> index;\n"
        self.assertIn("no-unordered-in-export",
                      rules_fired("src/stats/json_writer.cc", line))
        self.assertIn("no-unordered-in-export", rules_fired("src/obs/metrics.h", line))
        self.assertIn("no-unordered-in-export", rules_fired("src/core/result_json.cc", line))
        self.assertNotIn("no-unordered-in-export", rules_fired("src/cache/block_cache.cc", line))
        self.assertNotIn("no-unordered-in-export", rules_fired("src/extsort/run_io.h", line))

    def test_raw_thread_fires_outside_util(self):
        for line in [
            "std::thread worker([] { Run(); });",
            "std::jthread worker(Loop);",
            "auto fut = std::async(std::launch::async, Work);",
            "worker.detach();",
        ]:
            self.assertIn("raw-thread",
                          rules_fired("src/sweep/x.cc", line + "\n"), line)

    def test_raw_thread_scope_and_queries_are_clean(self):
        # The pool implementation itself and tests may spawn threads, and
        # hardware_concurrency is a pure query, not a spawn.
        self.assertEqual(set(), rules_fired(
            "src/util/thread_pool.cc", "std::thread worker(Loop);\n"))
        self.assertEqual(set(), rules_fired(
            "tests/pool_test.cc", "std::thread worker(Loop);\n"))
        self.assertEqual(set(), rules_fired(
            "src/sweep/x.cc",
            "int hw = std::thread::hardware_concurrency();\n"))
        self.assertEqual(set(), rules_fired(
            "src/sweep/x.cc",
            "std::this_thread::sleep_for(std::chrono::milliseconds(2));\n"))

    def test_assert_fires_but_static_assert_and_gtest_do_not(self):
        self.assertIn("check-over-assert", rules_fired("src/x.cc", "assert(n > 0);\n"))
        self.assertEqual(set(), rules_fired("src/x.cc", "static_assert(sizeof(int) == 4);\n"))
        self.assertEqual(set(), rules_fired("tests/x.cc", "ASSERT_TRUE(result.ok());\n"))

    def test_comments_and_strings_do_not_fire(self):
        self.assertEqual(set(), rules_fired("src/x.cc", "// calling rand() would be bad\n"))
        self.assertEqual(set(), rules_fired("src/x.cc", "/* time(nullptr) */ int x;\n"))
        self.assertEqual(set(), rules_fired("src/x.cc", 'Log("rand() is forbidden");\n'))
        self.assertEqual(
            set(), rules_fired("src/x.cc", "/* block\n   with rand();\n   inside */ int y;\n"))

    def test_allow_directive_suppresses_and_is_reported(self):
        findings, suppressions = emsim_lint.lint_text(
            "src/x.cc", "int r = rand();  // emsim-lint: allow(no-libc-rand)\n")
        self.assertEqual([], findings)
        self.assertEqual(1, len(suppressions))
        self.assertEqual("no-libc-rand", suppressions[0]["rule"])

    def test_allow_directive_is_rule_specific(self):
        findings, _ = emsim_lint.lint_text(
            "src/x.cc", "int r = rand();  // emsim-lint: allow(no-wall-clock)\n")
        self.assertEqual(["no-libc-rand"], [f["rule"] for f in findings])


class ResultUncheckedTest(unittest.TestCase):
    CHECKED = (
        "Result<int> parsed = ParseInt(value);\n"
        "if (!parsed.ok()) return parsed.status();\n"
        "use(*parsed);\n"
    )
    NAKED = (
        "Result<int> parsed = ParseInt(value);\n"
        "use(*parsed);\n"
    )

    def test_naked_deref_fires(self):
        self.assertIn("result-unchecked", rules_fired("src/x.cc", self.NAKED))

    def test_naked_value_and_arrow_fire(self):
        base = "Result<int> r = Make();\n"
        self.assertIn("result-unchecked", rules_fired("src/x.cc", base + "use(r.value());\n"))
        self.assertIn("result-unchecked", rules_fired("src/x.cc", base + "use(r->field);\n"))
        self.assertIn("result-unchecked",
                      rules_fired("src/x.cc", base + "take(*std::move(r));\n"))

    def test_ok_gate_within_window_is_clean(self):
        self.assertEqual(set(), rules_fired("src/x.cc", self.CHECKED))
        check = ("Result<int> r = Make();\n"
                 "EMSIM_CHECK_MSG(r.ok(), r.status().ToString().c_str());\n"
                 "use(*std::move(r));\n")
        self.assertEqual(set(), rules_fired("src/x.cc", check))

    def test_ok_gate_outside_window_fires(self):
        far = ("Result<int> r = Make();\n"
               "if (!r.ok()) return r.status();\n"
               + "other();\n" * (emsim_lint.RESULT_OK_WINDOW + 1)
               + "use(*r);\n")
        self.assertIn("result-unchecked", rules_fired("src/x.cc", far))

    def test_non_result_value_calls_do_not_fire(self):
        # Counter/Gauge accessors named value() (src/obs/metrics.cc idiom).
        text = "Counter c;\nout.push_back(c.value());\n"
        self.assertEqual(set(), rules_fired("src/x.cc", text))

    def test_scoped_to_src(self):
        self.assertEqual(set(), rules_fired("tests/x.cc", self.NAKED))
        self.assertEqual(set(), rules_fired("tools/x.cc", self.NAKED))

    def test_allow_directive_suppresses(self):
        text = ("Result<int> r = Make();\n"
                "use(*r);  // emsim-lint: allow(result-unchecked)\n")
        findings, suppressions = emsim_lint.lint_text("src/x.cc", text)
        self.assertEqual([], findings)
        self.assertEqual(["result-unchecked"], [s["rule"] for s in suppressions])


class MultiAllowTest(unittest.TestCase):
    TWO_RULES = "std::mt19937 gen; int r = rand();"

    def test_comma_list_suppresses_every_named_rule(self):
        text = (self.TWO_RULES +
                "  // emsim-lint: allow(no-libc-rand, no-std-random-engine)\n")
        findings, suppressions = emsim_lint.lint_text("src/x.cc", text)
        self.assertEqual([], findings)
        self.assertEqual({"no-libc-rand", "no-std-random-engine"},
                         {s["rule"] for s in suppressions})

    def test_repeated_allow_groups_are_all_honored(self):
        # Historically only the first allow(...) group on a line was parsed.
        text = (self.TWO_RULES + "  // emsim-lint: allow(no-libc-rand) "
                "emsim-lint: allow(no-std-random-engine)\n")
        findings, suppressions = emsim_lint.lint_text("src/x.cc", text)
        self.assertEqual([], findings)
        self.assertEqual({"no-libc-rand", "no-std-random-engine"},
                         {s["rule"] for s in suppressions})

    def test_unrelated_rule_in_list_does_not_widen_the_suppression(self):
        text = (self.TWO_RULES +
                "  // emsim-lint: allow(no-libc-rand, no-wall-clock)\n")
        findings, _ = emsim_lint.lint_text("src/x.cc", text)
        self.assertEqual(["no-std-random-engine"], [f["rule"] for f in findings])

    def test_allowed_rules_helper_parses_only_comments(self):
        self.assertEqual({"a-rule", "b-rule"},
                         emsim_lint.allowed_rules("x;  // emsim-lint: allow(a-rule, b-rule)"))
        self.assertEqual(set(),
                         emsim_lint.allowed_rules('Log("emsim-lint: allow(a-rule)");'))


class ArtifactRawWriteTest(unittest.TestCase):
    def test_ofstream_fires_everywhere_outside_tests(self):
        line = "std::ofstream out(path);\n"
        for relpath in ("src/x.cc", "tools/x.cc", "bench/x.cc"):
            self.assertIn("artifact-raw-write", rules_fired(relpath, line), relpath)

    def test_write_mode_fopen_fires(self):
        for line in [
            'std::FILE* f = std::fopen(path.c_str(), "wb");',
            'FILE* f = fopen(path, "w");',
            'FILE* f = fopen(path, "ab");',
            'FILE* f = fopen(path, "r+b");',
        ]:
            self.assertIn("artifact-raw-write", rules_fired("src/x.cc", line + "\n"), line)

    def test_read_mode_fopen_is_clean(self):
        for line in [
            'std::FILE* f = std::fopen(path.c_str(), "rb");',
            'FILE* f = fopen(path, "r");',
        ]:
            self.assertNotIn("artifact-raw-write", rules_fired("src/x.cc", line + "\n"), line)

    def test_mode_hidden_on_a_later_line_flags_conservatively(self):
        text = "std::FILE* f = std::fopen(path.c_str(),\n"
        self.assertIn("artifact-raw-write", rules_fired("src/x.cc", text))

    def test_atomic_file_usage_is_clean(self):
        text = "Status written = util::WriteFileAtomic(path, doc);\n"
        self.assertEqual(set(), rules_fired("src/x.cc", text))

    def test_tests_are_out_of_scope(self):
        self.assertEqual(
            set(), rules_fired("tests/x.cc", 'FILE* f = fopen(path, "wb");\n'))

    def test_comments_and_strings_do_not_fire(self):
        self.assertEqual(
            set(), rules_fired("src/x.cc", "// never call fopen(path, \"w\") here\n"))
        self.assertEqual(
            set(), rules_fired("src/x.cc", 'Log("std::ofstream is banned");\n'))

    def test_allow_directive_suppresses(self):
        text = ('std::ofstream out(path);  '
                '// emsim-lint: allow(artifact-raw-write)\n')
        findings, suppressions = emsim_lint.lint_text("src/x.cc", text)
        self.assertEqual([], findings)
        self.assertEqual(["artifact-raw-write"], [s["rule"] for s in suppressions])


class IncludeGuardTest(unittest.TestCase):
    def test_expected_guard_derivation(self):
        self.assertEqual("EMSIM_UTIL_CHECK_H_", emsim_lint.expected_guard("src/util/check.h"))
        self.assertEqual("EMSIM_CORE_RESULT_JSON_H_",
                         emsim_lint.expected_guard("src/core/result_json.h"))
        self.assertEqual("EMSIM_BENCH_BENCH_UTIL_H_",
                         emsim_lint.expected_guard("bench/bench_util.h"))

    def test_wrong_guard_fires(self):
        text = "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n"
        self.assertIn("include-guard", rules_fired("src/util/check.h", text))

    def test_missing_guard_fires(self):
        self.assertIn("include-guard", rules_fired("src/util/check.h", "int x;\n"))

    def test_correct_guard_is_clean(self):
        text = "#ifndef EMSIM_UTIL_CHECK_H_\n#define EMSIM_UTIL_CHECK_H_\n#endif\n"
        self.assertEqual(set(), rules_fired("src/util/check.h", text))

    def test_sources_are_not_guard_checked(self):
        self.assertEqual(set(), rules_fired("src/util/check.cc", "int x;\n"))


class FullTreeTest(unittest.TestCase):
    def test_repository_is_clean_and_report_is_machine_readable(self):
        with tempfile.TemporaryDirectory() as tmp:
            report_path = Path(tmp) / "lint-report.json"
            proc = subprocess.run(
                [sys.executable,
                 str(REPO_ROOT / "tools" / "lint" / "emsim_lint.py"),
                 "--root", str(REPO_ROOT),
                 "--report", str(report_path)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            self.assertEqual(0, proc.returncode, proc.stdout)
            report = json.loads(report_path.read_text())
            self.assertEqual("emsim_lint", report["tool"])
            self.assertEqual([], report["findings"])
            self.assertGreater(report["files_scanned"], 100)

    def test_exit_code_is_nonzero_on_findings(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "src"
            bad.mkdir()
            (bad / "dirty.cc").write_text("int r = rand();\n")
            proc = subprocess.run(
                [sys.executable,
                 str(REPO_ROOT / "tools" / "lint" / "emsim_lint.py"),
                 "--root", tmp],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            self.assertEqual(1, proc.returncode, proc.stdout)
            self.assertIn("no-libc-rand", proc.stdout)


if __name__ == "__main__":
    unittest.main()
