#!/usr/bin/env python3
"""emsim include-hygiene lint — a poor-man's include-what-you-use.

The toolchain image ships no IWYU binary, so this pass rebuilds the two checks
that matter from first principles, with no compiler dependency:

  unused-include          a directly-included header none of whose exported
                          symbols are referenced anywhere in the file.
  missing-direct-include  a symbol whose defining header is not directly
                          included (the file leans on a transitive include,
                          which breaks silently when the intermediary drops it).

Export maps come from two sources:

  * Project headers are parsed for the symbols they declare at namespace
    level: classes/structs/enums, free functions, `using` aliases, typedefs,
    macros and constexpr constants. Member names never enter the map (brace
    depth is tracked, with `namespace {` transparent), so `x.value()` does not
    count as using a header that declares a class with a `value()` method.
    Likewise a member function the scanned file declares in a class body is
    its own name, not a use of a header's same-named free symbol.
  * Standard headers use a curated symbol table (STD_EXPORTS below) covering
    every std header this repository includes. Headers outside the table —
    third-party ones like <gtest/gtest.h>, or headers whose use is inherently
    invisible to a token scan like <new> (placement new) — are never flagged.

Deliberate approximations, mirroring IWYU's own conventions:

  * foo.cc may rely on anything its associated header foo.h includes directly
    (the "associated header" exception), and the associated include itself is
    never flagged unused.
  * A header that exports only operators (nothing nameable) is never flagged
    unused — the scan cannot see operator calls.
  * A finding can be suppressed with a trailing
    `// emsim-lint: allow(include-hygiene)` on the include line (unused) or
    the first-use line (missing); suppressions land in the JSON report so
    they stay auditable.

Usage:
  tools/lint/include_hygiene.py --root . [--report out.json] [--fix]

`--fix` deletes unsuppressed unused-include lines in place (missing includes
are reported only; adding one is a judgement call about which block it joins).

Exit status: 0 when clean, 1 when any finding, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

# Std headers whose use a token scan cannot see (placement new, feature-test
# macros), plus anything third-party-shaped (<a/b.h>, <x.h>): never flagged,
# neither as unused nor as missing.
STD_OPAQUE = {"new", "version", "ciso646"}

# Curated std-header symbol table: header -> usage regex. Matching is done on
# comment/string-stripped text with include lines removed. The table aims to
# be disjoint (each symbol maps to one header) so "missing" has one candidate.
STD_EXPORTS = {
    "algorithm": (
        r"std::(?:sort|stable_sort|nth_element|partial_sort|is_sorted|"
        r"min_element|max_element|minmax_element|min|max|clamp|"
        r"fill(?:_n)?|copy(?:_n|_if|_backward)?|transform|"
        r"find(?:_if(?:_not)?)?|count(?:_if)?|any_of|all_of|none_of|"
        r"remove(?:_if)?|replace(?:_if)?|unique|reverse|rotate|"
        r"lower_bound|upper_bound|equal_range|binary_search|"
        r"push_heap|pop_heap|make_heap|sort_heap|"
        r"partition|stable_partition|for_each|mismatch|equal|"
        r"lexicographical_compare|swap_ranges|generate(?:_n)?|"
        r"merge|set_intersection|set_union|set_difference|includes|shuffle)\b"
    ),
    "array": r"std::array\b",
    "atomic": r"std::(?:atomic\w*|memory_order\w*)\b",
    "chrono": r"std::chrono\b",
    "cmath": (
        r"std::(?:abs|fabs|sqrt|cbrt|pow|exp|exp2|expm1|log|log2|log10|log1p|"
        r"ceil|floor|round|lround|llround|trunc|fmod|remainder|isnan|isfinite|"
        r"isinf|hypot|sin|cos|tan|asin|acos|atan|atan2|sinh|cosh|tanh|erf|erfc|"
        r"lgamma|tgamma|copysign|nextafter|frexp|ldexp|modf|fmin|fmax|nan)\b"
        r"|(?<![\w:.])(?:sqrt|fabs|pow|exp2|log2|log10|ceil|floor|lround|fmod|"
        r"hypot|atan2|erf|lgamma)\s*\("
        r"|\b(?:M_PI|HUGE_VAL|NAN|INFINITY)\b"
    ),
    "condition_variable": r"std::condition_variable\w*\b",
    "coroutine": (
        r"std::(?:coroutine_handle|coroutine_traits|suspend_always|"
        r"suspend_never|noop_coroutine\w*)\b"
    ),
    "cstdarg": r"\bva_(?:list|start|end|arg|copy)\b",
    # Bare size_t/ptrdiff_t count: the repo spells them unqualified, and
    # <cstddef> is the only header required to provide them.
    "cstddef": (
        r"\b(?:std::)?(?:size_t|ptrdiff_t|max_align_t|nullptr_t)\b"
        r"|std::byte\b|\boffsetof\b"
    ),
    "cstdint": (
        r"\b(?:u?int(?:8|16|32|64)(?:_least\d+|_fast\d+)?_t|u?intptr_t|u?intmax_t|"
        r"U?INT(?:8|16|32|64)_(?:MAX|MIN|C)|SIZE_MAX|PTRDIFF_(?:MAX|MIN))\b"
    ),
    "cstdio": (
        r"std::(?:FILE|fopen|fclose|fread|fwrite|fgets|fputs|fprintf|printf|"
        r"snprintf|sscanf|fflush|fseek|ftell|remove|rename|perror|puts|putchar|"
        r"vsnprintf|vfprintf|fgetc|getc|ungetc|tmpfile|setvbuf)\b"
        r"|(?<![\w:.])(?:fopen|fclose|fread|fwrite|fgets|fputs|fprintf|printf|"
        r"snprintf|sscanf|fflush|fseek|ftell|perror|putchar|vsnprintf|vfprintf|"
        r"fgetc|ungetc|tmpfile|setvbuf)\s*\("
        r"|\b(?:stdin|stdout|stderr|EOF|SEEK_SET|SEEK_CUR|SEEK_END|BUFSIZ)\b"
        r"|(?<!std::)\bFILE\b"
    ),
    "cstdlib": (
        r"std::(?:abort|exit|atexit|getenv|system|malloc|calloc|realloc|free|"
        r"aligned_alloc|strtol|strtoll|strtoul|strtoull|strtod|strtof|atoi|atol|"
        r"atof|qsort|bsearch|labs|llabs|div|ldiv)\b"
        r"|(?<![\w:.])(?:abort|getenv|strtol|strtoll|strtoul|strtoull|strtod|"
        r"strtof|atoi|atol|atof|aligned_alloc)\s*\("
        r"|\bEXIT_(?:SUCCESS|FAILURE)\b"
    ),
    "cstring": (
        r"std::(?:memcpy|memset|memmove|memcmp|memchr|strlen|strcmp|strncmp|"
        r"strcpy|strncpy|strcat|strncat|strchr|strrchr|strstr|strerror|strtok)\b"
        r"|(?<![\w:.])(?:memcpy|memset|memmove|memcmp|strlen|strcmp|strncmp|"
        r"strcpy|strncpy|strchr|strrchr|strstr|strerror)\s*\("
    ),
    "deque": r"std::deque\b",
    "functional": (
        r"std::(?:function|bind|bind_front|ref|cref|invoke|hash|less|greater|"
        r"less_equal|greater_equal|equal_to|not_fn|plus|minus|multiplies|"
        r"reference_wrapper|identity)\b"
    ),
    "limits": r"std::numeric_limits\b",
    "list": r"std::list\b",
    "map": r"std::(?:multi)?map\b",
    "memory": (
        r"std::(?:unique_ptr|shared_ptr|weak_ptr|make_unique|make_shared|"
        r"allocator|addressof|to_address|enable_shared_from_this|"
        r"default_delete|pointer_traits|destroy_at|construct_at)\b"
    ),
    "mutex": (
        r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
        r"lock_guard|unique_lock|scoped_lock|call_once|once_flag|try_to_lock|"
        r"defer_lock|adopt_lock)\b"
    ),
    "numeric": (
        r"std::(?:accumulate|iota|reduce|transform_reduce|inner_product|"
        r"partial_sum|adjacent_difference|gcd|lcm|midpoint)\b"
    ),
    "optional": r"std::(?:optional|nullopt|make_optional|bad_optional_access)\b",
    "queue": r"std::(?:priority_queue|queue)\b",
    "set": r"std::(?:multi)?set\b",
    "span": r"std::(?:span|dynamic_extent)\b",
    "sstream": r"std::(?:o|i)?stringstream\b",
    "string": (
        r"std::(?:string(?!_view)|to_string|stoi|stol|stoll|stoul|stoull|stod|"
        r"stof|getline|char_traits)\b"
    ),
    "string_view": r"std::string_view\b",
    "thread": r"std::(?:this_thread|jthread|thread)\b",
    "tuple": (
        r"std::(?:tuple(?:_size|_element)?|make_tuple|forward_as_tuple|tie|"
        r"apply|ignore)\b"
    ),
    "type_traits": (
        r"std::(?:is_\w+|enable_if\w*|decay\w*|remove_\w+|add_\w+|conditional\w*|"
        r"common_type\w*|underlying_type\w*|invoke_result\w*|void_t|true_type|"
        r"false_type|integral_constant|declare\w*|type_identity\w*)\b"
    ),
    "unordered_map": r"std::unordered_(?:multi)?map\b",
    "unordered_set": r"std::unordered_(?:multi)?set\b",
    "utility": (
        r"std::(?:move(?![\w_])|forward|swap|exchange|pair|make_pair|declval|"
        r"in_place\w*|piecewise_construct|index_sequence\w*|"
        r"make_index_sequence|integer_sequence|cmp_\w+|unreachable)\b"
    ),
    "vector": r"std::vector\b",
}

# The repo spells size_t unqualified, and only the C-compatibility headers
# are required to define ::size_t (the container headers guarantee just
# std::size_t — and on gcc-12/libstdc++, <vector> alone really does not leak
# the global name). <cstddef> is demanded unless one of these is included.
SIZE_T_PROVIDERS = {"cstddef", "cstdio", "cstdlib", "cstring", "ctime"}

ALLOW_RE = re.compile(r"//\s*emsim-lint:\s*allow\(\s*include-hygiene\s*[,)]")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")')

# ---------------------------------------------------------------------------
# Source text preparation
# ---------------------------------------------------------------------------

_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'')
_LINE_COMMENT_RE = re.compile(r"//.*?$", re.MULTILINE)
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure so
    line numbers computed on the stripped text match the original."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = _BLOCK_COMMENT_RE.sub(blank, text)
    text = _STRING_RE.sub(blank, text)
    return _LINE_COMMENT_RE.sub(blank, text)


# ---------------------------------------------------------------------------
# Export-map extraction for project headers
# ---------------------------------------------------------------------------

_NAMESPACE_OPEN_RE = re.compile(r"\b(?:inline\s+)?namespace\b[^{};]*\{")
_DECL_RES = (
    re.compile(r"#\s*define\s+([A-Za-z_]\w*)"),
    # Skips `[[attr]]`, `alignas(...)` and a macro attribute such as
    # `EMSIM_CAPABILITY("mutex")` (all caps, optional argument list).
    re.compile(r"\b(?:class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?"
               r"(?:alignas\([^)]*\)\s*)?(?:[A-Z][A-Z0-9_]+(?:\([^)]*\))?\s+)?"
               r"([A-Za-z_]\w*)"),
    re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)"),
    re.compile(r"\busing\s+([A-Za-z_]\w*)\s*="),
    re.compile(r"\btypedef\s+[^;]*?\b([A-Za-z_]\w*)\s*;"),
    # Free functions: a name followed by '(' after a plausible return type.
    re.compile(r"(?:^|[;}>]\s*|\n\s*)[\w:&<>,*~\s]*?[\w>&*]\s+"
               r"([A-Za-z_]\w*)\s*\("),
    # Namespace-scope constants.
    re.compile(r"\b(?:inline\s+|static\s+)?constexpr\b[^=;({]*?"
               r"\b([A-Za-z_]\w*)\s*[={]"),
)
_DECL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "static_assert", "decltype", "operator", "new", "delete", "co_await",
    "co_return", "co_yield", "const", "constexpr", "noexcept", "class",
    "struct", "enum", "union", "namespace", "using", "typedef", "template",
    "typename", "public", "private", "protected", "final", "override",
}


def parse_exports(text: str) -> set[str]:
    """Names a header makes available to its includers: declarations at
    namespace level only (brace depth tracked, namespace braces transparent)."""
    stripped = strip_comments_and_strings(text)
    exports: set[str] = set()
    depth = 0
    for line in stripped.splitlines():
        effective = _NAMESPACE_OPEN_RE.sub(" ", line)
        # `extern "C" {` — the string literal is already blanked; treat the
        # residual `extern {` as transparent too.
        effective = re.sub(r"\bextern\s*\{", " ", effective)
        if depth == 0:
            for decl_re in _DECL_RES:
                for m in decl_re.finditer(line):
                    name = m.group(1)
                    if name not in _DECL_KEYWORDS:
                        exports.add(name)
        depth += effective.count("{") - effective.count("}")
        depth = max(depth, 0)
    return exports


# A `{` that opens a class body: the class key and an optional name, macro
# attribute and base clause run right up to the brace.
_CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?(?:alignas\([^)]*\)\s*)?"
    r"(?:[A-Z][A-Z0-9_]+(?:\([^)]*\))?\s+)?(?:[A-Za-z_][\w:]*\s*)?"
    r"(?:final\s*)?(?::[^{};()]*)?$")
# A member function declarator: a name and '(' after a return type.
_MEMBER_DECL_RE = re.compile(r"[\w>&*]\s+([A-Za-z_]\w*)\s*\(")


def blank_member_declarations(stripped: str) -> str:
    """Blanks the name of every member function declared directly in a class
    body. `void Record(int)` inside a class declares the file's own member; it
    is no use of a namespace-scope `Record` from some header. All-caps names
    (annotation macros such as `EMSIM_EXCLUDES(mu_)`) are kept, and so is
    everything inside member function bodies, which sit one brace deeper."""
    chars = list(stripped)
    stack: list[bool] = []   # per open brace: does it open a class body?
    head_start = 0           # start of the text since the last ; { or }
    region_start = None      # start of the current class-body stretch

    def blank_region(begin: int, end: int):
        for m in _MEMBER_DECL_RE.finditer(stripped, begin, end):
            name = m.group(1)
            if name.isupper() or name in _DECL_KEYWORDS:
                continue
            for i in range(m.start(1), m.end(1)):
                chars[i] = " "

    for i, c in enumerate(stripped):
        if c not in "{};":
            continue
        if region_start is not None and c != ";":
            blank_region(region_start, i)
            region_start = None
        if c == "{":
            stack.append(bool(_CLASS_HEAD_RE.search(stripped[head_start:i])))
        elif c == "}" and stack:
            stack.pop()
        if c != ";" and stack and stack[-1]:
            region_start = i + 1
        head_start = i + 1
    return "".join(chars)


# ---------------------------------------------------------------------------
# Per-file analysis
# ---------------------------------------------------------------------------

_USE_TOKEN_RE = re.compile(r"(?<![\w.])(?<!->)\w+")


def symbol_use_re(names) -> re.Pattern:
    """Word-boundary match that rejects member access (`x.Run()`, `p->Run()`):
    a member named like an exported symbol is not a use of the header."""
    alt = "|".join(re.escape(n) for n in sorted(names))
    return re.compile(r"(?<![\w.])(?<!->)(?:" + alt + r")\b")


class Include:
    def __init__(self, lineno: int, spec: str, allowed: bool):
        self.lineno = lineno
        self.spec = spec            # <vector> or "util/check.h", verbatim
        self.allowed = allowed
        self.is_std = spec.startswith("<")
        self.name = spec[1:-1]      # vector / util/check.h


def parse_includes(text: str):
    includes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(raw)
        if m:
            includes.append(Include(lineno, m.group(1), bool(ALLOW_RE.search(raw))))
    return includes


def resolve_project_include(name: str, including: Path, root: Path):
    """"util/check.h" -> root/src/util/check.h; "bench_util.h" (bench-local)
    resolves relative to the including file first, mirroring -I order."""
    for base in (including.parent, root / "src", root):
        candidate = base / name
        if candidate.is_file():
            try:
                return candidate.resolve().relative_to(root).as_posix()
            except ValueError:
                return None
    return None


class HygieneChecker:
    def __init__(self, root: Path):
        self.root = root
        self.exports: dict[str, set[str]] = {}       # relpath -> names
        self.providers: dict[str, set[str]] = {}     # name -> {relpath, ...}
        self.direct_includes: dict[str, list[Include]] = {}
        self.texts: dict[str, str] = {}
        self._usage_cache: dict[str, str] = {}

    def load(self, files: dict[str, str]):
        """files: relpath -> text for every scanned source."""
        self.texts = files
        for relpath, text in files.items():
            self.direct_includes[relpath] = parse_includes(text)
            if relpath.endswith((".h", ".hpp")):
                names = parse_exports(text)
                self.exports[relpath] = names
                for name in names:
                    self.providers.setdefault(name, set()).add(relpath)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _layered_provider(user: str, provider: str) -> bool:
        """Layering: src/ may only include src/; every other tree (tests,
        bench, tools, examples) may include src/ or its own directory. A
        bench-only symbol must never generate a suggestion for a src/ file."""
        user_top = user.split("/", 1)[0]
        provider_top = provider.split("/", 1)[0]
        return provider_top == "src" or provider_top == user_top

    def _associated_header(self, relpath: str):
        if not relpath.endswith((".cc", ".cpp")):
            return None
        stem = re.sub(r"\.(cc|cpp)$", "", relpath)
        for suffix in (".h", ".hpp"):
            if stem + suffix in self.texts:
                return stem + suffix
        return None

    def _resolved_project_includes(self, relpath: str):
        """relpath's direct project includes resolved to repo-relative paths."""
        resolved = {}
        for inc in self.direct_includes.get(relpath, []):
            if inc.is_std:
                continue
            target = resolve_project_include(
                inc.name, self.root / relpath, self.root)
            if target is not None:
                resolved[target] = inc
        return resolved

    def _usage_text(self, relpath: str) -> str:
        """Comment/string-stripped text with include directives and member
        function declarations blanked."""
        cached = self._usage_cache.get(relpath)
        if cached is not None:
            return cached
        stripped = blank_member_declarations(
            strip_comments_and_strings(self.texts[relpath]))
        lines = stripped.splitlines()
        for inc in self.direct_includes[relpath]:
            idx = inc.lineno - 1
            if idx < len(lines):
                lines[idx] = ""
        text = "\n".join(lines)
        self._usage_cache[relpath] = text
        return text

    def _first_use_line(self, relpath: str, pattern: re.Pattern):
        usage = self._usage_text(relpath)
        m = pattern.search(usage)
        if not m:
            return None, False
        lineno = usage[: m.start()].count("\n") + 1
        raw = self.texts[relpath].splitlines()[lineno - 1]
        return lineno, bool(ALLOW_RE.search(raw))

    # -- checks ------------------------------------------------------------

    def check_file(self, relpath: str):
        findings, suppressions = [], []
        usage = self._usage_text(relpath)
        assoc = self._associated_header(relpath)
        resolved = self._resolved_project_includes(relpath)

        # 1. unused-include -------------------------------------------------
        for inc in self.direct_includes[relpath]:
            entry = None
            if inc.is_std:
                if "/" in inc.name or inc.name.endswith(".h") or \
                        inc.name in STD_OPAQUE:
                    continue  # third-party or token-opaque: never flagged
                pattern = STD_EXPORTS.get(inc.name)
                if pattern is None or re.search(pattern, usage):
                    continue
                entry = self._entry("unused-include", relpath, inc.lineno,
                                    inc.spec,
                                    f"no symbol from {inc.spec} is referenced")
            else:
                target = resolve_project_include(
                    inc.name, self.root / relpath, self.root)
                if target is None or target == assoc:
                    continue  # unresolvable or the associated header
                names = self.exports.get(target)
                if not names:
                    continue  # header exports nothing nameable: cannot judge
                if symbol_use_re(names).search(usage):
                    continue
                entry = self._entry("unused-include", relpath, inc.lineno,
                                    inc.spec,
                                    f"no symbol declared in {inc.spec} is referenced")
            (suppressions if inc.allowed else findings).append(entry)

        # 2. missing-direct-include ----------------------------------------
        direct_std = {inc.name for inc in self.direct_includes[relpath] if inc.is_std}
        direct_project = set(resolved)
        provided_project = set(direct_project)
        if assoc is not None:
            provided_project.add(assoc)
            direct_std |= {i.name for i in self.direct_includes.get(assoc, [])
                           if i.is_std}
            provided_project |= set(self._resolved_project_includes(assoc))
        # Symbols the file itself declares (incl. forward declarations).
        self_names = parse_exports(self.texts[relpath])

        for header, pattern in sorted(STD_EXPORTS.items()):
            if header in direct_std:
                continue
            if header == "cstddef" and direct_std & SIZE_T_PROVIDERS:
                continue
            compiled = re.compile(pattern)
            lineno, allowed = self._first_use_line(relpath, compiled)
            if lineno is None:
                continue
            entry = self._entry(
                "missing-direct-include", relpath, lineno, f"<{header}>",
                f"symbol from <{header}> used without a direct include")
            (suppressions if allowed else findings).append(entry)

        # Every name the file could use, under the same member-access rules
        # as symbol_use_re: an exported name absent from this set cannot
        # match, so the per-name regex search below is skipped for it.
        used_tokens = set(_USE_TOKEN_RE.findall(usage))
        checked: set[str] = set()
        for header, names in sorted(self.exports.items()):
            if header == relpath or header in provided_project:
                continue
            if not self._layered_provider(relpath, header):
                continue
            for name in sorted(names):
                if name in checked or name in self_names \
                        or name not in used_tokens:
                    continue
                providers = {p for p in self.providers[name]
                             if self._layered_provider(relpath, p)}
                if not providers:
                    continue
                if providers & provided_project or relpath in providers:
                    continue
                checked.add(name)
                lineno, allowed = self._first_use_line(relpath, symbol_use_re([name]))
                if lineno is None:
                    continue
                candidates = sorted(providers)
                entry = self._entry(
                    "missing-direct-include", relpath, lineno, name,
                    f"`{name}` is declared in {', '.join(candidates)}, none of "
                    "which is directly included")
                entry["candidates"] = candidates
                (suppressions if allowed else findings).append(entry)

        return findings, suppressions

    @staticmethod
    def _entry(kind, relpath, lineno, what, message):
        return {
            "rule": "include-hygiene",
            "kind": kind,
            "path": relpath,
            "line": lineno,
            "what": what,
            "message": message,
        }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def iter_sources(root: Path):
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def run(root: Path, fix: bool = False):
    files: dict[str, str] = {}
    for path in iter_sources(root):
        relpath = path.relative_to(root).as_posix()
        files[relpath] = path.read_text(encoding="utf-8", errors="replace")

    checker = HygieneChecker(root)
    checker.load(files)

    findings, suppressions = [], []
    for relpath in sorted(files):
        file_findings, file_suppressions = checker.check_file(relpath)
        findings.extend(file_findings)
        suppressions.extend(file_suppressions)

    if fix:
        doomed: dict[str, set[int]] = {}
        for f in findings:
            if f["kind"] == "unused-include":
                doomed.setdefault(f["path"], set()).add(f["line"])
        for relpath, line_numbers in doomed.items():
            lines = files[relpath].splitlines(keepends=True)
            kept = [l for i, l in enumerate(lines, start=1)
                    if i not in line_numbers]
            (root / relpath).write_text("".join(kept), encoding="utf-8")

    return len(files), findings, suppressions


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root to scan")
    parser.add_argument("--report", help="write a machine-readable JSON report")
    parser.add_argument("--fix", action="store_true",
                        help="delete unsuppressed unused-include lines in place")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"include_hygiene: no such directory: {root}", file=sys.stderr)
        return 2

    scanned, findings, suppressions = run(root, fix=args.fix)

    report = {
        "tool": "include_hygiene",
        "version": 1,
        "files_scanned": scanned,
        "findings": findings,
        "suppressions": suppressions,
    }
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for f in findings:
        print(f"{f['path']}:{f['line']}: [{f['kind']}] {f['message']}")
    summary = (f"include_hygiene: {scanned} files, {len(findings)} finding(s), "
               f"{len(suppressions)} suppression(s)"
               + (" (unused includes removed)" if args.fix and findings else ""))
    print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
