#!/usr/bin/env python3
"""Unit tests for tools/lint/include_hygiene.py (registered with ctest as
`include_hygiene_test`, label `lint`).

Fixture trees prove each finding kind fires and each escape hatch holds, and
a full-tree run proves the repository itself is clean — the same gate CI
enforces.
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools" / "lint"))

import include_hygiene  # noqa: E402


def run_tree(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for relpath, text in files.items():
            path = root / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        _, findings, suppressions = include_hygiene.run(root)
        return findings, suppressions


THING_H = ("#ifndef EMSIM_UTIL_THING_H_\n"
           "#define EMSIM_UTIL_THING_H_\n"
           "struct Thing {};\n"
           "#endif\n")

TALLY_H = ("#ifndef EMSIM_UTIL_TALLY_H_\n"
           "#define EMSIM_UTIL_TALLY_H_\n"
           "int Tally(int n);\n"
           "#endif\n")

# Mirrors util/thread_annotations.h + util/mutex.h: the class keyword is
# followed by a macro attribute, with and without an argument list.
ANNOTATIONS_H = ("#ifndef EMSIM_UTIL_ANNOTATIONS_H_\n"
                 "#define EMSIM_UTIL_ANNOTATIONS_H_\n"
                 "#define EMSIM_CAPABILITY(x) __attribute__((capability(x)))\n"
                 "#define EMSIM_SCOPED_CAPABILITY __attribute__((scoped_lockable))\n"
                 "#endif\n")
LOCK_H = ("#ifndef EMSIM_UTIL_LOCK_H_\n"
          "#define EMSIM_UTIL_LOCK_H_\n"
          '#include "util/annotations.h"\n'
          'class EMSIM_CAPABILITY("mutex") Mutex {};\n'
          "class EMSIM_SCOPED_CAPABILITY MutexLock {};\n"
          "#endif\n")


class ExportParseTest(unittest.TestCase):
    def test_macro_attribute_is_skipped(self):
        exports = include_hygiene.parse_exports(LOCK_H)
        self.assertIn("Mutex", exports)
        self.assertIn("MutexLock", exports)
        self.assertNotIn("EMSIM_SCOPED_CAPABILITY", exports)

    def test_all_caps_class_name_is_still_exported(self):
        self.assertIn("RNG", include_hygiene.parse_exports("struct RNG {};\n"))


class FixtureTest(unittest.TestCase):
    def test_macro_attributed_class_counts_as_used(self):
        findings, _ = run_tree({
            "src/util/annotations.h": ANNOTATIONS_H,
            "src/util/lock.h": LOCK_H,
            "src/a.cc": '#include "util/lock.h"\n\nMutex mu;\n',
        })
        self.assertEqual([], findings)

    def test_unused_std_include_is_flagged(self):
        findings, _ = run_tree(
            {"src/a.cc": "#include <vector>\n\nint Answer() { return 42; }\n"})
        self.assertEqual(["unused-include"], [f["kind"] for f in findings])
        self.assertEqual("<vector>", findings[0]["what"])

    def test_used_std_include_is_clean(self):
        findings, _ = run_tree(
            {"src/a.cc": "#include <vector>\n\nstd::vector<int> V() { return {}; }\n"})
        self.assertEqual([], findings)

    def test_unused_project_include_is_flagged(self):
        findings, _ = run_tree({
            "src/util/thing.h": THING_H,
            "src/a.cc": '#include "util/thing.h"\n\nint Answer() { return 42; }\n',
        })
        flagged = [(f["kind"], f["path"], f["what"]) for f in findings]
        self.assertIn(("unused-include", "src/a.cc", '"util/thing.h"'), flagged)

    def test_missing_direct_include_for_project_symbol(self):
        findings, _ = run_tree({
            "src/util/thing.h": THING_H,
            "src/a.cc": "Thing Make();\n\nThing Make() { return Thing{}; }\n",
        })
        missing = [f for f in findings if f["kind"] == "missing-direct-include"]
        self.assertEqual(1, len(missing))
        self.assertEqual("Thing", missing[0]["what"])
        self.assertEqual(["src/util/thing.h"], missing[0]["candidates"])

    def test_missing_direct_include_ignores_member_access_and_longer_names(self):
        # `Thing` reaches a.cc only through wrap.h. Member access and
        # identifiers that merely contain the name are not uses of it; a
        # qualified use is.
        files = {
            "src/util/thing.h": THING_H,
            "src/util/wrap.h": ("#ifndef EMSIM_UTIL_WRAP_H_\n"
                                "#define EMSIM_UTIL_WRAP_H_\n"
                                '#include "util/thing.h"\n'
                                "struct Wrap { int Thing; };\n"
                                "#endif\n"),
            "src/a.cc": ('#include "util/wrap.h"\n\n'
                         "int Use(Wrap& obj, Wrap* p) {\n"
                         "  return obj.Thing + p->Thing + ThingLonger +\n"
                         "         Prefix_Thing;\n"
                         "}\n"),
        }
        findings, _ = run_tree(files)
        self.assertEqual([], findings)
        files["src/a.cc"] += "ns::Thing Make();\n"
        findings, _ = run_tree(files)
        self.assertEqual([("missing-direct-include", "src/a.cc", 7, "Thing")],
                         [(f["kind"], f["path"], f["line"], f["what"])
                          for f in findings])

    def test_missing_direct_include_for_std_symbol(self):
        findings, _ = run_tree(
            {"src/a.cc": "int N(const std::vector<int>& v) { return (int)v.size(); }\n"})
        missing = [(f["kind"], f["what"]) for f in findings]
        self.assertIn(("missing-direct-include", "<vector>"), missing)

    def test_missing_direct_cstdint_is_flagged(self):
        findings, _ = run_tree(
            {"src/a.cc": "int64_t Twice(int64_t x) { return 2 * x; }\n"})
        self.assertEqual([("missing-direct-include", "<cstdint>")],
                         [(f["kind"], f["what"]) for f in findings])

    def test_allow_directive_suppresses_and_is_reported(self):
        findings, suppressions = run_tree({
            "src/a.cc": "#include <vector>  // emsim-lint: allow(include-hygiene)\n"
                        "\nint Answer() { return 42; }\n"})
        self.assertEqual([], findings)
        self.assertEqual(1, len(suppressions))
        self.assertEqual("unused-include", suppressions[0]["kind"])

    def test_member_named_like_a_header_symbol_is_not_a_use(self):
        files = {
            "src/util/tally.h": TALLY_H,
            "src/a.cc": "class Box {\n public:\n  void Tally(int n) { n_ += n; }\n"
                        " private:\n  int n_ = 0;\n};\n"
                        "void Fill(Box& b) { b.Tally(1); }\n",
        }
        findings, _ = run_tree(files)
        self.assertEqual([], findings)
        files["src/a.cc"] = '#include "util/tally.h"\n\n' + files["src/a.cc"]
        findings, _ = run_tree(files)
        self.assertEqual([("unused-include", '"util/tally.h"')],
                         [(f["kind"], f["what"]) for f in findings])

    def test_member_bodies_and_annotation_macros_still_count(self):
        findings, _ = run_tree({
            "src/util/annotations.h": ANNOTATIONS_H,
            "src/util/tally.h": TALLY_H,
            "src/a.cc": '#include "util/annotations.h"\n#include "util/tally.h"\n\n'
                        "class Box {\n public:\n"
                        "  int Count() const EMSIM_CAPABILITY(x) { return Tally(1); }\n"
                        "};\n",
        })
        self.assertEqual([], findings)

    def test_associated_header_include_is_never_flagged(self):
        findings, _ = run_tree({
            "src/util/thing.h": THING_H,
            "src/util/thing.cc": '#include "util/thing.h"\n\nint Unrelated() { return 0; }\n',
        })
        self.assertEqual(
            [], [f for f in findings if f["path"] == "src/util/thing.cc"])


class FullTreeTest(unittest.TestCase):
    def test_repository_is_clean(self):
        proc = subprocess.run(
            [sys.executable,
             str(REPO_ROOT / "tools" / "lint" / "include_hygiene.py"),
             "--root", str(REPO_ROOT)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(0, proc.returncode, proc.stdout)
        self.assertIn(" 0 finding(s), 0 suppression(s)", proc.stdout)


if __name__ == "__main__":
    unittest.main()
