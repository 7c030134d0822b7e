#!/usr/bin/env python3
"""emsim determinism lint.

Project-specific static checks that no off-the-shelf tool knows about. The
simulator's contract is that equal seeds produce byte-identical output
(aggregates, JSON exports, golden files), so this lint forbids every known
source of run-to-run nondeterminism at the source level:

  no-libc-rand         rand()/srand()/random() — unseeded global C RNG.
  no-wall-clock        time(), clock(), gettimeofday(), std::chrono
                       system_clock/high_resolution_clock — wall-clock reads
                       leak real time into simulated results.
  no-std-random-engine std:: random engines and std::random_device — the only
                       sanctioned generator is emsim::Rng (explicitly seeded,
                       identical streams on every platform).
  no-unordered-in-export
                       unordered_{map,set} in result/JSON-export paths —
                       their iteration order is not byte-stable across
                       libstdc++ versions, so exports must use sorted
                       containers (std::map) or explicit sorting.
  check-over-assert    assert() — compiled out under NDEBUG, so Release and
                       Debug runs would diverge in what they enforce; use
                       EMSIM_CHECK / EMSIM_DCHECK.
  result-unchecked     naked `.value()` / `*x` / `x->` on a variable declared
                       `Result<T>` in src/ with no `x.ok()` check on the same
                       or any of the preceding 15 lines — dereferencing an
                       error Result aborts the process, so every access must
                       sit visibly behind an ok() gate (an if, a return, or
                       an EMSIM_CHECK).
  artifact-raw-write   std::ofstream or write-mode fopen() outside tests/ —
                       a crash mid-write publishes a torn file under its
                       final name, defeating the footer durability
                       contract (docs/SWEEPS.md); artifacts must be staged
                       through util::AtomicFile / util::WriteFileAtomic.
                       Read-mode fopen ("r", "rb") is fine.
  include-guard        headers must guard with EMSIM_<PATH>_H_ derived from
                       their repo-relative path (e.g. src/util/check.h ->
                       EMSIM_UTIL_CHECK_H_).
  raw-thread           std::thread / std::jthread / std::async / .detach()
                       outside src/util/ and tests/ — ad-hoc threads bypass
                       util::ThreadPool's bounded, joined, capability-
                       annotated workers (and the emsim_analyze lock rules
                       that key off its roots); a detached thread can outlive
                       the results it writes. std::thread::hardware_concurrency
                       (a pure query) is fine.

The coroutine-safety rules (coro-ref-capture, coro-raw-handle,
no-blocking-in-sim) live in emsim_analyze.py, which checks them on tokens.

A finding can be suppressed for one line with a trailing
`// emsim-lint: allow(<rule-id>)` comment; `allow(rule-a, rule-b)` lists and
repeated allow(...) groups suppress several rules on one line. Every
suppressed finding is reported per rule in the JSON report so suppressions
stay auditable.

Usage:
  tools/lint/emsim_lint.py --root . [--report lint-report.json] [--list-rules]

Exit status: 0 when clean, 1 when any finding, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Directories scanned relative to --root. Headers and sources only.
SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

# Result/JSON-export paths: files whose output must be byte-stable. A file
# belongs to the export surface when any of these regexes matches its
# repo-relative POSIX path.
EXPORT_PATH_PATTERNS = (
    r"^src/core/result",      # MergeResult + its JSON projection
    r"^src/core/experiment",  # trial aggregation feeding every bench artifact
    r"^src/stats/json_writer",
    r"^src/stats/table",      # formatted tables embedded in bench output
    r"^src/obs/",             # metrics registry exported into MergeResult
)

ALLOW_RE = re.compile(r"emsim-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


def allowed_rules(raw_line: str) -> set:
    """Every rule id named by `// emsim-lint: allow(...)` directives on this
    line. Comma lists and repeated allow(...) groups both work:
    `allow(rule-a, rule-b)` == `allow(rule-a) allow(rule-b)`."""
    rules = set()
    comment = raw_line.find("//")
    if comment < 0:
        return rules
    for m in ALLOW_RE.finditer(raw_line, comment):
        rules.update(r.strip() for r in m.group(1).split(","))
    return rules
LINE_COMMENT_RE = re.compile(r"//(?!\s*emsim-lint:).*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Rule:
    """One lint rule: a regex applied per physical line after comment and
    string-literal stripping, restricted to a path predicate."""

    def __init__(self, rule_id, pattern, message, applies=None):
        self.rule_id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.applies = applies or (lambda relpath: True)


def _in_export_path(relpath: str) -> bool:
    return any(re.search(p, relpath) for p in EXPORT_PATH_PATTERNS)


RULES = [
    Rule(
        "no-libc-rand",
        r"(?<![\w:.])(?:s?rand|random|rand_r|drand48)\s*\(",
        "libc RNG is unseeded global state; draw from an explicitly seeded emsim::Rng",
    ),
    Rule(
        "no-wall-clock",
        r"(?:(?<![\w:.])|(?<=std::))(?:time|clock|gettimeofday|clock_gettime|localtime|gmtime)\s*\("
        r"|std::chrono::(?:system_clock|high_resolution_clock)",
        "wall-clock reads make output depend on real time; use simulated time "
        "(sim::Simulation::Now) or steady_clock strictly for bench wall timing",
    ),
    Rule(
        "no-std-random-engine",
        r"std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|random_device|"
        r"ranlux\w+|knuth_b)",
        "std:: random engines are not byte-stable across platforms and invite "
        "unseeded construction; the sanctioned generator is emsim::Rng",
    ),
    Rule(
        "no-unordered-in-export",
        r"\bunordered_(?:map|set|multimap|multiset)\b",
        "unordered container in a result/JSON-export path: iteration order is not "
        "byte-stable; use std::map or sort explicitly before emitting",
        applies=_in_export_path,
    ),
    Rule(
        "raw-thread",
        r"\bstd::(?:jthread\b|thread\b(?!\s*::))"
        r"|(?<![\w:])std::async\s*\("
        r"|\.detach\s*\(\)",
        "ad-hoc thread outside src/util/: route parallelism through "
        "util::ThreadPool (bounded, joined, capability-annotated) so the "
        "concurrency analyzer's parallel roots stay accurate; "
        "std::thread::hardware_concurrency is fine",
        applies=lambda relpath: not relpath.startswith(("src/util/",
                                                        "tests/")),
    ),
    Rule(
        "check-over-assert",
        r"(?<![\w._])assert\s*\(",
        "assert() vanishes under NDEBUG so Release and Debug enforce different "
        "invariants; use EMSIM_CHECK (always on) or EMSIM_DCHECK (debug-only, "
        "still type-checked)",
    ),
]


# result-unchecked: the scan is two-pass per file. Pass one collects every
# variable introduced as `Result<T> name = ...` / `Result<T> name{...}`; pass
# two flags accesses (`name.value()`, `*name`, `*std::move(name)`, `name->`)
# with no `name.ok()` within the current line or the RESULT_OK_WINDOW lines
# above it. The window is a deliberate approximation — real dataflow needs a
# compiler — sized so every sanctioned idiom (`if (!r.ok()) return ...;`,
# `EMSIM_CHECK(r.ok());`, early-return ladders) passes while a bare
# dereference far from any check is caught. Scoped to src/: tests and tools
# assert liberally and gtest's ASSERT_TRUE(r.ok()) may sit in another helper.
RESULT_OK_WINDOW = 15
RESULT_DECL_RE = re.compile(r"\bResult<[^;=]*>\s+(\w+)\s*[={]")
RESULT_UNCHECKED_MESSAGE = (
    "Result access without a visible ok() check: dereferencing an error "
    "Result aborts; gate it with ok() (if/return/EMSIM_CHECK) within the "
    f"preceding {RESULT_OK_WINDOW} lines")


def _result_unchecked_findings(relpath, code_lines):
    """code_lines: list of (lineno, stripped_code, raw, allowed_rules)."""
    if not relpath.startswith("src/"):
        return [], []
    names = set()
    for _, code, _, _ in code_lines:
        for m in RESULT_DECL_RE.finditer(code):
            names.add(m.group(1))
    findings = []
    suppressions = []
    for name in sorted(names):
        esc = re.escape(name)
        use_re = re.compile(
            rf"(?<![\w.]){esc}\s*\.\s*value\s*\(\)"
            rf"|\*\s*(?:std::move\(\s*)?{esc}\b"
            rf"|(?<![\w.]){esc}\s*->")
        ok_re = re.compile(rf"(?<![\w.]){esc}\s*\.\s*ok\s*\(\)")
        for idx, (lineno, code, raw, allowed) in enumerate(code_lines):
            if not use_re.search(code):
                continue
            window = code_lines[max(0, idx - RESULT_OK_WINDOW): idx + 1]
            if any(ok_re.search(c) for _, c, _, _ in window):
                continue
            entry = {
                "rule": "result-unchecked",
                "path": relpath,
                "line": lineno,
                "message": RESULT_UNCHECKED_MESSAGE,
                "snippet": raw.strip()[:160],
            }
            if "result-unchecked" in allowed:
                suppressions.append(entry)
            else:
                findings.append(entry)
    return findings, suppressions


# artifact-raw-write: every artifact writer must stage through
# util::AtomicFile (write temp -> fsync -> rename) so a crash can never
# publish a torn file under its final name — the merge trusts any artifact
# whose footer verifies, so a torn-but-lucky raw write would poison it. The scan needs the RAW line for the fopen mode because
# strip_noncode() blanks string literals; the stripped line still gates the
# match so fopen/ofstream in comments or strings do not fire. Tests are out
# of scope: corrupting files on purpose is what the integrity tests do.
ARTIFACT_RAW_WRITE_MESSAGE = (
    "raw file write bypasses util::AtomicFile: a crash mid-write publishes a "
    "torn file under its final name, which downstream readers would trust; "
    "stage artifacts through util::AtomicFile / util::WriteFileAtomic "
    "(read-mode fopen is fine)")
FOPEN_CALL_RE = re.compile(r"(?<![\w.])(?:std::\s*)?fopen\s*\(")
FOPEN_MODE_RE = re.compile(r',\s*"([^"]*)"\s*\)')
OFSTREAM_RE = re.compile(r"\b(?:std::\s*)?ofstream\b")


def _artifact_raw_write_findings(relpath, code_lines):
    """code_lines: list of (lineno, stripped_code, raw, allowed_rules)."""
    if relpath.startswith("tests/"):
        return [], []
    findings = []
    suppressions = []
    for lineno, code, raw, allowed in code_lines:
        hit = bool(OFSTREAM_RE.search(code))
        if not hit and FOPEN_CALL_RE.search(code):
            # Mode string lives in the raw line (strings are stripped from
            # `code`). A mode on a later line, or none at all, flags
            # conservatively — put the mode on the call line or use allow().
            m_raw = FOPEN_CALL_RE.search(raw)
            mode_m = FOPEN_MODE_RE.search(raw, m_raw.end()) if m_raw else None
            mode = mode_m.group(1) if mode_m else None
            if mode is None or any(c in mode for c in "wa+"):
                hit = True
        if not hit:
            continue
        entry = {
            "rule": "artifact-raw-write",
            "path": relpath,
            "line": lineno,
            "message": ARTIFACT_RAW_WRITE_MESSAGE,
            "snippet": raw.strip()[:160],
        }
        if "artifact-raw-write" in allowed:
            suppressions.append(entry)
        else:
            findings.append(entry)
    return findings, suppressions


def expected_guard(relpath: str) -> str:
    """src/util/check.h -> EMSIM_UTIL_CHECK_H_; bench/bench_util.h ->
    EMSIM_BENCH_BENCH_UTIL_H_. The leading src/ is dropped (library headers
    are included as util/check.h), every other directory is kept."""
    parts = Path(relpath).parts
    if parts[0] == "src":
        parts = parts[1:]
    stem = "/".join(parts)
    stem = re.sub(r"\.(h|hpp)$", "", stem)
    return "EMSIM_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def strip_noncode(line: str) -> str:
    """Removes string literals and non-directive comments so rule regexes do
    not fire on prose. Keeps `emsim-lint:` directives intact."""
    line = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", line)


def lint_text(relpath: str, text: str):
    """Returns (findings, suppressions) for one file's contents. Pure so the
    unit test can feed fixture strings."""
    findings = []
    suppressions = []
    code_lines = []  # (lineno, stripped_code, raw, allowed) for stateful rules
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        # Block comments: drop commented regions, tracking continuation.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        while "/*" in line:
            start = line.find("/*")
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        allowed = allowed_rules(raw)
        code = strip_noncode(line)
        code_lines.append((lineno, code, raw, allowed))
        for rule in RULES:
            if not rule.applies(relpath):
                continue
            if not rule.pattern.search(code):
                continue
            entry = {
                "rule": rule.rule_id,
                "path": relpath,
                "line": lineno,
                "message": rule.message,
                "snippet": raw.strip()[:160],
            }
            if rule.rule_id in allowed:
                suppressions.append(entry)
            else:
                findings.append(entry)
    unchecked, unchecked_suppressed = _result_unchecked_findings(relpath, code_lines)
    findings.extend(unchecked)
    suppressions.extend(unchecked_suppressed)
    raw_write, raw_write_suppressed = _artifact_raw_write_findings(relpath, code_lines)
    findings.extend(raw_write)
    suppressions.extend(raw_write_suppressed)
    if relpath.endswith((".h", ".hpp")):
        want = expected_guard(relpath)
        guard_re = re.compile(r"^#ifndef\s+(\S+)\s*$", re.MULTILINE)
        m = guard_re.search(text)
        got = m.group(1) if m else None
        if got != want or f"#define {want}" not in text:
            findings.append({
                "rule": "include-guard",
                "path": relpath,
                "line": (text[: m.start()].count("\n") + 1) if m else 1,
                "message": f"include guard must be {want}" +
                           (f" (found {got})" if got else " (none found)"),
                "snippet": (m.group(0) if m else "").strip()[:160],
            })
    return findings, suppressions


def iter_sources(root: Path):
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root to scan")
    parser.add_argument("--report", help="write a machine-readable JSON findings report")
    parser.add_argument("--list-rules", action="store_true", help="print rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}: {rule.message}")
        print(f"result-unchecked: {RESULT_UNCHECKED_MESSAGE}")
        print(f"artifact-raw-write: {ARTIFACT_RAW_WRITE_MESSAGE}")
        print("include-guard: headers must guard with EMSIM_<PATH>_H_")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"emsim_lint: no such directory: {root}", file=sys.stderr)
        return 2

    findings = []
    suppressions = []
    scanned = 0
    for path in iter_sources(root):
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        file_findings, file_suppressions = lint_text(relpath, text)
        findings.extend(file_findings)
        suppressions.extend(file_suppressions)
        scanned += 1

    report = {
        "tool": "emsim_lint",
        "version": 1,
        "files_scanned": scanned,
        "findings": findings,
        "suppressions": suppressions,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for f in findings:
        print(f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}")
        if f["snippet"]:
            print(f"    {f['snippet']}")
    summary = (f"emsim_lint: {scanned} files, {len(findings)} finding(s), "
               f"{len(suppressions)} suppression(s)")
    print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
