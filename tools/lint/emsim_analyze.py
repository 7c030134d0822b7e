#!/usr/bin/env python3
"""emsim semantic determinism analyzer — the third static-analysis tier.

The regex tier (emsim_lint.py) forbids nondeterminism *tokens* wherever they
appear; this tool understands the *determinism contract*: it builds a per-TU
index of function definitions, links them into a cross-TU call graph, and
runs taint-style reachability rules that line regexes structurally cannot
express. A wall-clock read three calls upstream of `result_json` is invisible
to a regex; here it is a finding with the call chain attached.

Rules (ids are what `allow(...)` takes; `--list-rules` prints this catalog):

  determinism-taint    A value source that differs between equal-seed runs —
                       wall/steady clock reads, thread ids, std::hash of a
                       pointer type, pointer-to-integer casts, iteration over
                       an unordered container — inside the export surface.
                       The export surface is: every function defined in a
                       sink file (MergeResult + result_json, stats/accumulator,
                       stats/json_writer, the sweep shard/merge codec,
                       src/obs/), every function that directly calls
                       one of those, and everything transitively called from
                       either set. Findings carry the call chain from a sink.
  pointer-ordering     sort/set/map/priority_queue/less/greater keyed on a
                       raw pointer value, or a comparator lambda comparing
                       its pointer parameters. Pointer order is ASLR-random
                       and differs across the re-exec'd --sweep-worker
                       processes, so any such ordering is nondeterministic.
                       Checked tree-wide.
  float-reduction-order
                       Parallel aggregation functions (AggregateTrials,
                       RunTrials*/RunSweep*, MergeShardArtifacts and their
                       same-file helpers) must combine trial statistics
                       through the stats::Accumulator Add/Merge/State
                       contract; ad-hoc `+=`/`x = x + ...` on a double makes
                       the result depend on reduction order. src/stats/ is
                       the sanctioned implementation and is exempt.
  coro-ref-capture     A lambda, anywhere in the file, whose brace-matched
                       body suspends (co_await/co_return) and whose capture
                       list captures by reference, or that reads a
                       by-reference parameter after its first suspension
                       point: the frame outlives the enclosing scope, so the
                       reference dangles at resume. Named coroutines (the
                       caller keeps the referents alive across sim.Run())
                       are the sanctioned pattern and are not flagged.
                       Token-level scope analysis — multi-line captures,
                       strings and comments cannot confuse it.
  coro-raw-handle      std::coroutine_handle mentioned anywhere outside
                       src/sim/, coroutine file or not (token-level, so prose
                       in comments never fires).
  no-blocking-in-sim   Host blocking primitives (sleep_for/until, std::mutex
                       family, locks, condition_variable) anywhere in a file
                       that contains coroutine code.
  shared-state-unguarded
                       Mutable shared state with no declared discipline:
                       a function-local `static` that is mutated and
                       reachable from a parallel entry point (ThreadPool::
                       Run/RunTasks/WorkerLoop, RunSweepRange, RunTrials,
                       RunSweep) and is neither const, std::atomic, once_flag, nor a
                       lock-bearing type; or a data member of a lock-bearing
                       class (one that owns a Mutex) that is neither
                       EMSIM_GUARDED_BY, std::atomic, const, nor a
                       synchronization object itself.
  lock-order-cycle     A cycle in the cross-TU lock-acquisition graph. An
                       edge A -> B is recorded whenever capability B is
                       acquired through an RAII locker (util::MutexLock,
                       lock_guard, unique_lock, scoped_lock, shared_lock —
                       adopt/defer/try tags skipped) while A is held,
                       including acquisitions reached through bounded-depth
                       calls into other functions and TUs. Capability names
                       are qualified by the owning class so `mu_` in two
                       classes stays distinct; a self-edge (re-acquiring a
                       held capability) is a one-node cycle. Each cycle is
                       reported once per capability set.
  lock-held-blocking   A blocking operation while a capability is held:
                       subprocess spawn/wait (fork, waitpid, system,
                       popen), fsync/fdatasync, or
                       sleep_for/sleep_until — directly or through a
                       bounded-depth callee — or a predicate-less
                       condition-variable wait(lock) that is not wrapped in
                       a re-check loop (`while (cond) cv.Wait(lock);` is the
                       sanctioned form).

A finding is suppressed for one line with a trailing
`// emsim-analyze: allow(<rule-id>)` comment, or with a standalone comment
line directly above the flagged line (for lines that cannot grow a trailing
comment within the 100-column format limit). Comma lists work. Suppressed
findings are recorded in the JSON report so they stay auditable.

Usage:
  tools/lint/emsim_analyze.py --build-dir build [--source-root .]
      [--report out.json] [--list-rules]

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

LINT_DIRS = ("src", "tools", "bench", "tests", "examples")

# --- Rule configuration ------------------------------------------------------

# Sink files: where byte-exact export artifacts are produced. Functions
# defined here are the taint sinks ("export roots").
EXPORT_SINK_PATTERNS = (
    r"^src/core/result",          # MergeResult + its JSON projection
    r"^src/stats/accumulator",    # the Accumulator::State merge contract
    r"^src/stats/json_writer",
    r"^src/sweep/(shard|merge)",  # sweep wire codec
    r"^src/obs/",                 # metrics registry exported into MergeResult
)

# Parallel-aggregation functions policed by float-reduction-order, by simple
# name, plus their direct same-file helpers.
AGG_ROOT_NAMES = {
    "AggregateTrials", "AggregateGrid", "RunTrials", "RunSweep", "RunSweepRange",
    "MergeShardArtifacts",
}
# The sanctioned reduction implementation: Welford Add/Merge lives here.
FLOAT_EXEMPT_RE = re.compile(r"^src/stats/")

SIM_KERNEL_RE = re.compile(r"^src/sim/")

WALL_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
LIBC_CLOCK_CALLS = {"time", "clock", "gettimeofday", "clock_gettime",
                    "localtime", "gmtime"}
THREAD_ID_CALLS = {"pthread_self", "gettid"}
PTR_INT_TYPES = {"uintptr_t", "intptr_t", "size_t", "ptrdiff_t", "uint64_t",
                 "int64_t", "uint32_t", "int32_t", "uintmax_t", "intmax_t"}
ORDERED_TEMPLATES = {"set", "map", "multiset", "multimap", "priority_queue",
                     "less", "greater"}
UNORDERED_TEMPLATES = {"unordered_map", "unordered_set", "unordered_multimap",
                       "unordered_multiset"}
BLOCKING_IDS = {"mutex", "timed_mutex", "recursive_mutex",
                "recursive_timed_mutex", "shared_mutex", "lock_guard",
                "unique_lock", "scoped_lock", "shared_lock",
                "condition_variable", "condition_variable_any"}

# --- Concurrency-rule configuration (capability discipline) ------------------

# Entry points that run caller-supplied work on several threads: every
# function reachable from one of these executes in a parallel context, so
# mutable statics it touches need a declared discipline. Matched against the
# definition's qualified name by whole-name or `::`-suffix.
PARALLEL_ROOTS = (
    "ThreadPool::Run", "ThreadPool::RunTasks", "ThreadPool::WorkerLoop",
    "RunSweepRange", "RunTrials", "RunSweep",
)

# RAII locker types that acquire a capability for a lexical scope. An
# acquisition through one of these while another capability is held records a
# lock-order edge; constructions carrying adopt/defer/try tags transfer or
# delay ownership and are not acquisitions.
LOCKER_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock",
                "shared_lock"}
LOCKER_SKIP_TAGS = {"adopt_lock", "defer_lock", "try_to_lock"}

# Operations that block the calling thread on the host OS (or spawn and wait
# on real processes): forbidden while a capability is held, directly or
# through a bounded-depth callee.
BLOCKING_CALLS = {"fsync", "fdatasync", "fork", "system", "popen", "waitpid",
                  "sleep_for", "sleep_until"}

# Type tokens that exempt a static or a data member from
# shared-state-unguarded: their own synchronization (atomic, once_flag),
# immutability, per-thread storage, or being a synchronization object.
SYNC_TYPE_TOKENS = {"atomic", "atomic_flag", "once_flag", "mutex",
                    "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
                    "shared_mutex", "Mutex", "CondVar", "MutexLock",
                    "condition_variable", "condition_variable_any",
                    "lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
STATIC_EXEMPT_TOKENS = SYNC_TYPE_TOKENS | {"const", "constexpr",
                                           "thread_local"}
# Mutex-owning member types that mark a class as lock-bearing.
CAP_TYPE_TOKENS = {"Mutex", "mutex", "shared_mutex", "timed_mutex",
                   "recursive_mutex", "recursive_timed_mutex"}
# Depth bound for propagating held capabilities into callees (lock-order
# edges and blocking closures). Chains longer than this are out of scope by
# design: every locking path in the tree resolves within two hops.
LOCK_CALL_DEPTH = 3

RULES = {
    "determinism-taint":
        "a run-to-run-varying value source (wall/steady clock, thread id, "
        "pointer hash, pointer-to-int cast, unordered iteration) is on the "
        "export surface — it can reach MergeResult / JSON artifact bytes",
    "pointer-ordering":
        "ordering keyed on raw pointer values (set/map/priority_queue/less/"
        "greater of T*, or a comparator comparing pointer parameters): "
        "pointer order is ASLR-random across --sweep-worker processes",
    "float-reduction-order":
        "parallel aggregation combines doubles ad hoc (+=) instead of "
        "through the stats::Accumulator Add/Merge/State contract; the "
        "result depends on reduction order",
    "coro-ref-capture":
        "lambda coroutine captures by reference or reads a reference "
        "parameter after co_await: the frame outlives the scope, the "
        "reference dangles at resume",
    "coro-raw-handle":
        "std::coroutine_handle outside src/sim/ escapes the frame-pool/"
        "calendar ownership bookkeeping",
    "no-blocking-in-sim":
        "host blocking primitive (sleep/mutex/condvar) in a coroutine TU: "
        "simulated time must come from the calendar",
    "shared-state-unguarded":
        "mutable shared state without a declared discipline: a mutated "
        "function-local static reachable from a parallel entry point, or a "
        "data member of a lock-bearing class that is neither "
        "EMSIM_GUARDED_BY, std::atomic, nor const",
    "lock-order-cycle":
        "cycle in the cross-TU lock-acquisition graph (capability B acquired "
        "while A is held and, elsewhere, A while B — or a held capability "
        "re-acquired): lock-order cycles deadlock under contention",
    "lock-held-blocking":
        "blocking operation (subprocess spawn/wait, fsync, sleep) while a "
        "capability is held — or a condition-variable wait without a "
        "predicate re-check loop: a blocked holder stalls every contending "
        "thread",
}

ALLOW_RE = re.compile(
    r"emsim-analyze:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "catch", "new", "delete", "co_await", "co_return", "co_yield", "throw",
    "static_assert", "decltype", "noexcept", "case", "default", "do", "else",
    "goto", "try", "using", "typedef", "template", "typename", "operator",
    "static_cast", "const_cast", "dynamic_cast", "reinterpret_cast",
    "requires", "defined", "assert",
}
BUILTIN_TYPES = {
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "auto", "size_t", "int8_t", "int16_t", "int32_t",
    "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "uintptr_t",
    "intptr_t",
}

# --- Tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*(?s:.*?)\*/)
    | (?P<raw>R"(?P<delim>[^()\s\\]{0,16})\((?s:.*?)\)(?P=delim)")
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<chr>'(?:[^'\\\n]|\\.)*')
    | (?P<num>\.?[0-9](?:[\w.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct>::|->\*?|\+\+|--|<<=|>>=|<=>|<<|<=|>=|==|!=|&&|\|\||\+=|-=|
                \*=|/=|%=|&=|\|=|\^=|\.\.\.|[^\s])
    """,
    re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind},{self.text!r},{self.line})"


def strip_preprocessor(text: str) -> str:
    """Blanks preprocessor directive lines (and their backslash
    continuations), preserving line structure."""
    lines = text.split("\n")
    out = []
    in_directive = False
    for line in lines:
        if in_directive or re.match(r"\s*#", line):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            out.append(line)
    return "\n".join(out)


def tokenize(text: str):
    """Token stream with comments dropped and line numbers attached.
    Preprocessor directives are blanked first (include lines are handled by
    the dependency scanner, not the parser)."""
    tokens = []
    line = 1
    pos = 0
    stripped = strip_preprocessor(text)
    for m in _TOKEN_RE.finditer(stripped):
        line += stripped.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup if m.lastgroup != "delim" else "raw"
        if kind == "comment":
            continue
        if kind in ("str", "raw", "chr"):
            tokens.append(Token(kind, '""', line))
        else:
            tokens.append(Token(kind, m.group(0), line))
    return tokens


# --- File IR extraction -----------------------------------------------------
#
# The per-file IR is plain dicts and lists:
#   {"functions": [{"qname", "name", "file", "line",
#                   "calls": [[full, simple, line], ...],
#                   "facts": [{"rule", "kind", "line", "detail"}, ...]}],
#    "file_facts": [{"rule", "kind", "line", "detail"}, ...],
#    "is_coro": bool}

_NAME_STOP = KEYWORDS | {"return", "else"}


class FileParser:
    def __init__(self, relpath: str, text: str):
        self.rel = relpath
        self.toks = tokenize(text)
        self.functions = []
        self.file_facts = []
        self.classes = []
        self.clock_aliases = set()
        self.unordered_names = set()   # names declared with unordered_* types
        self.is_coro = False

    # -- helpers ------------------------------------------------------------

    def _match_forward(self, i, open_text, close_text):
        """Index just past the token matching toks[i] (an open bracket)."""
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == open_text:
                depth += 1
            elif t == close_text:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n

    def _match_angle(self, i):
        """Index just past the `>` matching toks[i] == '<'. Conservative:
        gives up (returns i+1) when the bracket soup cannot be balanced."""
        depth = 0
        n = len(self.toks)
        j = i
        while j < n and j < i + 400:
            t = self.toks[j].text
            if t == "<":
                depth += 1
            elif t == ">" or t == ">>":
                depth -= 2 if t == ">>" else 1
                if depth <= 0:
                    return j + 1
            elif t in (";", "{", "}"):
                break
            j += 1
        return i + 1

    def fact(self, rule, kind, tok_idx, detail, fn=None):
        entry = {"rule": rule, "kind": kind,
                 "line": self.toks[tok_idx].line, "detail": detail}
        if fn is not None:
            fn["facts"].append(entry)
        else:
            self.file_facts.append(entry)
        return entry

    def _skip_annotation(self, j):
        """Index past an EMSIM_* capability-annotation macro (and its
        optional argument list) at toks[j], or j unchanged."""
        toks = self.toks
        if j < len(toks) and toks[j].kind == "id" \
                and toks[j].text.startswith("EMSIM_"):
            j += 1
            if j < len(toks) and toks[j].text == "(":
                j = self._match_forward(j, "(", ")")
        return j

    # -- file-level scans ----------------------------------------------------

    def scan_file_level(self):
        toks = self.toks
        n = len(toks)
        for i, tok in enumerate(toks):
            text = tok.text
            if text in ("co_await", "co_return", "co_yield"):
                self.is_coro = True
            elif text == "coroutine_handle":
                self.fact("coro-raw-handle", "raw-handle", i,
                          "std::coroutine_handle")
            elif text == "[" and self._is_lambda_intro(i):
                self._check_coroutine_lambda(i)
            elif text in BLOCKING_IDS and i >= 2 \
                    and toks[i - 1].text == "::" and toks[i - 2].text == "std":
                self.fact("no-blocking-in-sim", "blocking", i, f"std::{text}")
            elif text in ("sleep_for", "sleep_until") and i >= 2 \
                    and toks[i - 1].text == "::" \
                    and toks[i - 2].text == "this_thread":
                self.fact("no-blocking-in-sim", "blocking", i,
                          f"std::this_thread::{text}")
            elif text == "using" and i + 2 < n and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "=":
                j = i + 3
                rhs = []
                while j < n and toks[j].text != ";":
                    rhs.append(toks[j].text)
                    j += 1
                if WALL_CLOCKS & set(rhs):
                    self.clock_aliases.add(toks[i + 1].text)
            elif text in ORDERED_TEMPLATES and i + 1 < n \
                    and toks[i + 1].text == "<":
                end = self._match_angle(i + 1)
                self._check_pointer_key(i, i + 2, end - 1)
            elif text in UNORDERED_TEMPLATES and i + 1 < n \
                    and toks[i + 1].text == "<":
                end = self._match_angle(i + 1)
                if end < n and toks[end].kind == "id":
                    self.unordered_names.add(toks[end].text)

    def _check_pointer_key(self, tmpl_idx, arg_begin, arg_end):
        """Flags `set<T*>` / `map<T*, ...>` / `less<T*>`: a `*` in the first
        template argument (depth 0 relative to the outer `<`)."""
        depth = 0
        saw_star = False
        for j in range(arg_begin, arg_end):
            t = self.toks[j].text
            if t in ("<", "("):
                depth += 1
            elif t in (">", ")"):
                depth -= 1
            elif depth == 0 and t == ",":
                break
            elif depth == 0 and t == "*":
                saw_star = True
        if saw_star:
            tok = self.toks[tmpl_idx]
            self.fact("pointer-ordering", "pointer-key", tmpl_idx,
                      f"std::{tok.text} keyed on a raw pointer type")

    # -- function discovery --------------------------------------------------

    def parse(self):
        self.scan_file_level()
        toks = self.toks
        n = len(toks)
        i = 0
        depth = 0
        scopes = []      # (kind, name, depth-after-open)
        pending = None   # scope waiting for its '{'
        while i < n:
            tok = toks[i]
            text = tok.text
            if text == "{":
                depth += 1
                if pending is not None:
                    scopes.append((pending[0], pending[1], depth))
                    pending = None
                i += 1
                continue
            if text == "}":
                if scopes and scopes[-1][2] == depth:
                    scopes.pop()
                depth = max(0, depth - 1)
                i += 1
                continue
            if text == ";":
                pending = None
                i += 1
                continue
            if text == "namespace":
                parts = []
                j = i + 1
                while j < n and (toks[j].kind == "id" or toks[j].text == "::"):
                    if toks[j].kind == "id":
                        parts.append(toks[j].text)
                    j += 1
                if j < n and toks[j].text == "{":
                    pending = ("namespace", "::".join(parts) or "<anon>")
                    i = j
                    continue
                i = j
                continue
            if text in ("class", "struct") and (i == 0 or
                                                toks[i - 1].text != "enum"):
                j = i + 1
                name = "<anon>"
                while j < n and toks[j].kind == "id":
                    # Capability annotations sit between the keyword and the
                    # name: `class EMSIM_CAPABILITY("mutex") Mutex {`.
                    if toks[j].text.startswith("EMSIM_") \
                            or toks[j].text == "alignas":
                        j += 1
                        if j < n and toks[j].text == "(":
                            j = self._match_forward(j, "(", ")")
                        continue
                    name = toks[j].text
                    j += 1
                    if j < n and toks[j].text == "<":
                        j = self._match_angle(j)
                # Definition if a '{' arrives before ';', '=', or '('.
                k = j
                while k < n and toks[k].text not in ("{", ";", "=", "("):
                    k += 1
                if k < n and toks[k].text == "{":
                    pending = ("class", name)
                    i = k
                    continue
                i = j
                continue
            if text == "(" and i > 0:
                consumed = self._try_function(i, scopes)
                if consumed is not None:
                    i = consumed
                    continue
            i += 1

    def _name_before(self, i):
        """Collects the (possibly qualified) name ending at toks[i-1];
        returns (parts, first_index) or (None, None)."""
        k = i - 1
        parts = []
        if k >= 0 and self.toks[k].kind == "id":
            parts.insert(0, self.toks[k].text)
            k -= 1
            while k - 1 >= 0 and self.toks[k].text == "::" \
                    and self.toks[k - 1].kind == "id":
                parts.insert(0, self.toks[k - 1].text)
                k -= 2
        if not parts:
            return None, None
        return parts, k + 1

    def _try_function(self, i, scopes):
        """toks[i] == '(' at namespace/class scope: if this opens a function
        definition, record it, scan the body, and return the index just past
        the body; otherwise None."""
        toks = self.toks
        n = len(toks)
        parts, first = self._name_before(i)
        if parts is None or parts[-1] in _NAME_STOP:
            return None
        if parts[-1] in BUILTIN_TYPES:
            return None
        prev = toks[first - 1].text if first - 1 >= 0 else ""
        if prev in (".", "->", "new", "::"):
            return None
        close = self._match_forward(i, "(", ")")
        if close >= n:
            return None
        body_open = self._skip_to_body(close)
        if body_open is None:
            return None
        body_end = self._match_forward(body_open, "{", "}")
        scope_name = "::".join(s[1] for s in scopes if s[1] != "<anon>")
        qname = "::".join(parts) if not scope_name else \
            scope_name + "::" + "::".join(parts)
        fn = {
            "qname": qname,
            "name": parts[-1],
            "file": self.rel,
            "line": toks[first].line,
            "calls": [],
            "facts": [],
            "locked_calls": [],   # calls made while a capability is held
            "blocking": [],       # blocking ops anywhere in the body
        }
        params = toks[i + 1:close - 1]
        self._scan_body(fn, params, body_open + 1, body_end - 1)
        self.functions.append(fn)
        return body_end

    def _skip_to_body(self, i):
        """From just past the parameter ')': skips qualifiers, trailing
        return types, and constructor initializers. Returns the index of the
        body '{', or None for a declaration."""
        toks = self.toks
        n = len(toks)
        seen_colon = False
        while i < n:
            text = toks[i].text
            if text == "{":
                return i
            if text in (";", "}", "="):
                return None  # declaration, `= default`, `= 0`, ...
            if text in ("const", "noexcept", "override", "final", "mutable",
                        "&", "&&", "try", "volatile", "requires"):
                i += 1
                if i < n and toks[i].text == "(":  # noexcept(...)
                    i = self._match_forward(i, "(", ")")
                continue
            if toks[i].kind == "id" and text.startswith("EMSIM_"):
                # Capability annotations after the parameter list:
                # `void Lock() EMSIM_ACQUIRE() { ... }`.
                i = self._skip_annotation(i)
                continue
            if text == "->":
                i += 1
                # Trailing return type: id / :: / template args / * / &.
                while i < n and toks[i].text not in ("{", ";", "="):
                    if toks[i].text == "<":
                        i = self._match_angle(i)
                    else:
                        i += 1
                continue
            if text == ":":
                seen_colon = True
                i += 1
                continue
            if seen_colon:
                # Constructor initializer list: name ( ... ) / name { ... }.
                if text == "(":
                    i = self._match_forward(i, "(", ")")
                elif text == "<":
                    i = self._match_angle(i)
                else:
                    i += 1
                continue
            return None
        return None

    # -- body analysis -------------------------------------------------------

    def _param_names(self, params, type_filter=None):
        """Names declared in a parameter token list. With type_filter, only
        parameters whose type tokens intersect the filter set."""
        names = []
        depth = 0
        group = []
        groups = [group]
        for tok in params:
            if tok.text in ("<", "(", "["):
                depth += 1
            elif tok.text in (">", ")", "]"):
                depth -= 1
            elif tok.text == "," and depth == 0:
                group = []
                groups.append(group)
                continue
            group.append(tok)
        for group in groups:
            ids = [t.text for t in group if t.kind == "id"]
            if len(ids) < 2:
                continue  # unnamed parameter or no type
            if type_filter is not None and not (set(ids[:-1]) & type_filter):
                continue
            names.append(ids[-1])
        return names

    def _ref_param_names(self, params):
        """Parameter names declared by reference (T& name / T&& name)."""
        names = []
        depth = 0
        saw_ref = False
        last_id = None
        for tok in params:
            if tok.text in ("<", "(", "["):
                depth += 1
            elif tok.text in (">", ")", "]"):
                depth -= 1
            elif tok.text == "," and depth == 0:
                if saw_ref and last_id is not None:
                    names.append(last_id)
                saw_ref = False
                last_id = None
                continue
            if depth == 0 and tok.text in ("&", "&&"):
                saw_ref = True
            if depth == 0 and tok.kind == "id":
                last_id = tok.text
        if saw_ref and last_id is not None:
            names.append(last_id)
        return names

    def _loop_context(self, begin, end):
        """(loop_brace_idxs, single_stmt_ranges) for while/for/do bodies in
        [begin, end): which '{' tokens open a loop body, and which token
        ranges form un-braced single-statement loop bodies. Used to accept
        `while (cond) cv.Wait(lock);` as a predicate re-check loop."""
        toks = self.toks
        braces = set()
        ranges = []
        i = begin
        while i < end:
            text = toks[i].text
            if text == "do" and i + 1 < end and toks[i + 1].text == "{":
                braces.add(i + 1)
            elif text in ("while", "for") and i + 1 < end \
                    and toks[i + 1].text == "(":
                close = self._match_forward(i + 1, "(", ")")
                if close < end and toks[close].text == "{":
                    braces.add(close)
                elif close < end:
                    j = close
                    while j < end and toks[j].text != ";":
                        j += 1
                    ranges.append((close, j))
            i += 1
        return braces, ranges

    ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                  "<<=", ">>=", "++", "--"}

    def _is_mutated(self, name, begin, end, decl_begin, decl_end):
        """True when `name` is written (assignment, ++/--, address taken)
        anywhere in [begin, end) outside its declaration."""
        toks = self.toks
        for w in range(begin, end):
            if decl_begin <= w <= decl_end:
                continue
            if toks[w].kind != "id" or toks[w].text != name:
                continue
            prev = toks[w - 1].text if w - 1 >= begin else ""
            if prev in (".", "->", "::"):
                continue  # member access named like the static
            nxt = toks[w + 1].text if w + 1 < end else ""
            if nxt in self.ASSIGN_OPS or prev in ("++", "--", "&"):
                return True
        return False

    def _scan_body(self, fn, params, begin, end):
        toks = self.toks
        float_vars = set(self._param_names(params, {"double", "float"}))
        unordered_local = set(self.unordered_names)
        loop_braces, loop_stmt_ranges = self._loop_context(begin, end)
        depth = 0
        loop_depths = []
        lock_stack = []     # (capability name, brace depth at declaration)
        lambda_braces = set()
        barrier_depths = []  # depths of lambda bodies: outer locks are not
                             # held inside (the body usually runs deferred)

        def held_caps():
            floor = barrier_depths[-1] if barrier_depths else 0
            return [c for c, d in lock_stack if d >= floor]

        i = begin
        while i < end:
            tok = toks[i]
            text = tok.text

            if text == "{":
                depth += 1
                if i in loop_braces:
                    loop_depths.append(depth)
                if i in lambda_braces:
                    barrier_depths.append(depth)
                i += 1
                continue
            if text == "}":
                while lock_stack and lock_stack[-1][1] >= depth:
                    lock_stack.pop()
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                if barrier_depths and barrier_depths[-1] == depth:
                    barrier_depths.pop()
                depth = max(0, depth - 1)
                i += 1
                continue

            # RAII capability acquisition: `util::MutexLock lock(&mu_);`,
            # `std::lock_guard<std::mutex> lk(mu);`. adopt/defer/try tags
            # transfer or delay ownership — not acquisitions.
            if tok.kind == "id" and text in LOCKER_TYPES:
                j = i + 1
                if j < end and toks[j].text == "<":
                    j = self._match_angle(j)
                if j < end and toks[j].kind == "id" and j + 1 < end \
                        and toks[j + 1].text == "(":
                    close = self._match_forward(j + 1, "(", ")")
                    args = toks[j + 2:close - 1]
                    arg_ids = {t.text for t in args if t.kind == "id"}
                    if not (arg_ids & LOCKER_SKIP_TAGS):
                        caps = self._locker_caps(args)
                        for cap in caps:
                            entry = self.fact(
                                "lock-order-cycle", "acquire", i, cap, fn)
                            entry["cap"] = cap
                            entry["held"] = held_caps()
                            lock_stack.append((cap, depth))
                        if caps:
                            i = close
                            continue

            # Blocking call while a capability is held (every blocking op is
            # also recorded for the bounded-depth transitive closure).
            if tok.kind == "id" and text in BLOCKING_CALLS and i + 1 < end \
                    and toks[i + 1].text == "(":
                fn["blocking"].append(text)
                held = held_caps()
                if held:
                    entry = self.fact(
                        "lock-held-blocking", "blocking", i,
                        f"blocking `{text}()` while holding "
                        f"`{held[-1]}`", fn)
                    entry["held"] = held

            # Predicate-less condition-variable wait while a capability is
            # held must sit inside a re-check loop: a bare wait wakes
            # spuriously and proceeds on a false condition.
            if text in ("wait", "Wait") and held_caps() and i > 0 \
                    and toks[i - 1].text in (".", "->") and i + 1 < end \
                    and toks[i + 1].text == "(":
                close = self._match_forward(i + 1, "(", ")")
                if not self._wait_has_predicate(i + 2, close - 1):
                    in_loop = bool(loop_depths) or any(
                        s <= i < e for s, e in loop_stmt_ranges)
                    if not in_loop:
                        held = held_caps()
                        entry = self.fact(
                            "lock-held-blocking", "cv-wait-no-predicate", i,
                            f"`{text}(lock)` with no predicate and no "
                            f"re-check loop while holding "
                            f"`{held[-1]}`", fn)
                        entry["held"] = held

            # Function-local static: shared by every thread running this
            # function. Recorded with its declaration tokens; exemption and
            # reachability are decided cross-TU at analyze time.
            if text == "static" and i + 1 < end:
                j = i + 1
                decl = []
                while j < end and toks[j].text not in (";", "=", "(", "{") \
                        and len(decl) < 14:
                    decl.append(toks[j])
                    j += 1
                names = [t for t in decl if t.kind == "id"
                         and t.text not in KEYWORDS]
                if names and (j >= end or toks[j].text != "("):
                    name = names[-1].text
                    entry = self.fact(
                        "shared-state-unguarded", "local-static", i,
                        f"function-local `static {name}`", fn)
                    entry["static_name"] = name
                    entry["types"] = [t.text for t in decl
                                      if t.text != name]
                    entry["mutated"] = self._is_mutated(name, begin, end,
                                                        i, j)

            # Lambda introducer? The body keeps getting scanned by this walk;
            # registering its opening brace suspends the outer lock stack
            # inside (the body typically runs deferred, not under the lock).
            if text == "[" and self._is_lambda_intro(i):
                body_open = self._scan_lambda(fn, i, end)
                if body_open is not None:
                    lambda_braces.add(body_open)

            # Declarations that matter: double/float locals; unordered vars
            # are collected file-wide in scan_file_level.
            if text in ("double", "float") and i + 1 < end \
                    and toks[i + 1].kind == "id" and i > 0 \
                    and toks[i - 1].text not in ("<", ",", "(", "::"):
                nxt = toks[i + 2].text if i + 2 < end else ""
                if nxt in ("=", ";", "{", ","):
                    float_vars.add(toks[i + 1].text)

            # Compound float accumulation (rule 3 raw material).
            if tok.kind == "id" and text in float_vars and i + 1 < end \
                    and toks[i + 1].text in ("+=", "-=", "*=", "/="):
                self.fact("float-reduction-order", "compound-assign", i,
                          f"`{text} {toks[i + 1].text}` on a floating-point "
                          "accumulator", fn)
            if tok.kind == "id" and text in float_vars and i + 3 < end \
                    and toks[i + 1].text == "=" and toks[i + 2].text == text \
                    and toks[i + 3].text in ("+", "-", "*", "/"):
                self.fact("float-reduction-order", "reassign", i,
                          f"`{text} = {text} {toks[i + 3].text} ...` on a "
                          "floating-point accumulator", fn)

            # Range-for over an unordered container.
            if text == "for" and i + 1 < end and toks[i + 1].text == "(":
                close = self._match_forward(i + 1, "(", ")")
                inner = toks[i + 2:close - 1]
                for k, t in enumerate(inner):
                    if t.text == ":" and k + 1 < len(inner) \
                            and inner[k + 1].kind == "id" \
                            and inner[k + 1].text in unordered_local:
                        self.fact("determinism-taint", "unordered-iter",
                                  i + 2 + k,
                                  f"iteration over unordered container "
                                  f"`{inner[k + 1].text}`", fn)
                        break

            # std::hash<T*>.
            if text == "hash" and i + 1 < end and toks[i + 1].text == "<":
                h_end = self._match_angle(i + 1)
                if any(t.text == "*" for t in toks[i + 2:h_end - 1]):
                    self.fact("determinism-taint", "pointer-hash", i,
                              "std::hash of a pointer type", fn)

            # reinterpret_cast<integer>(...) — pointer bits as a value.
            if text == "reinterpret_cast" and i + 1 < end \
                    and toks[i + 1].text == "<":
                c_end = self._match_angle(i + 1)
                args = {t.text for t in toks[i + 2:c_end - 1]}
                if args & PTR_INT_TYPES and "*" not in args:
                    self.fact("determinism-taint", "pointer-to-int", i,
                              "reinterpret_cast of pointer bits to an "
                              "integer", fn)

            # Calls.
            if tok.kind == "id" and i + 1 < end and toks[i + 1].text == "(":
                self._record_call(fn, i, held=held_caps())
            i += 1

    def _locker_caps(self, args):
        """Capability names acquired by an RAII locker's argument list: the
        last id of each top-level comma group (`&mu_` -> mu_; scoped_lock
        may take several), skipping `this`."""
        caps = []
        depth = 0
        last_id = None
        for t in args:
            if t.text in ("<", "(", "["):
                depth += 1
            elif t.text in (">", ")", "]"):
                depth -= 1
            elif t.text == "," and depth == 0:
                if last_id is not None:
                    caps.append(last_id)
                last_id = None
                continue
            if depth == 0 and t.kind == "id" and t.text != "this":
                last_id = t.text
        if last_id is not None:
            caps.append(last_id)
        return caps

    def _wait_has_predicate(self, begin, end):
        """True when a cv wait's argument list carries a predicate: a second
        top-level argument or a lambda."""
        depth = 0
        for j in range(begin, end):
            t = self.toks[j].text
            if t in ("(", "<"):
                depth += 1
            elif t in (")", ">"):
                depth -= 1
            elif t == "[":
                return True  # predicate lambda (subscripts: fail open)
            elif t == "," and depth == 0:
                return True
        return False

    def _record_call(self, fn, i, held=()):
        toks = self.toks
        parts, first = self._name_before(i + 1)
        if parts is None:
            return
        simple = parts[-1]
        if simple in KEYWORDS or simple in BUILTIN_TYPES:
            return
        full = "::".join(parts)
        fn["calls"].append([full, simple, toks[i].line])
        if held:
            fn["locked_calls"].append({"full": full, "simple": simple,
                                       "line": toks[i].line,
                                       "held": list(held)})
        # Determinism sources expressed as calls.
        part_set = set(parts)
        if simple == "now" and (part_set & WALL_CLOCKS
                                or part_set & self.clock_aliases):
            self.fact("determinism-taint", "wall-clock", i,
                      f"`{full}()` — wall/steady clock read", fn)
        elif simple == "get_id" and "this_thread" in part_set:
            self.fact("determinism-taint", "thread-id", i,
                      f"`{full}()` — thread identity", fn)
        elif simple in THREAD_ID_CALLS and len(parts) == 1:
            self.fact("determinism-taint", "thread-id", i,
                      f"`{simple}()` — thread identity", fn)
        elif simple in LIBC_CLOCK_CALLS and len(parts) <= 2 \
                and (len(parts) == 1 or parts[0] == "std"):
            prev = toks[first - 1].text if first - 1 >= 0 else ""
            if prev not in (".", "->"):
                self.fact("determinism-taint", "wall-clock", i,
                          f"`{full}()` — libc wall-clock read", fn)

    # -- lambdas -------------------------------------------------------------

    def _is_lambda_intro(self, i):
        if i + 1 < len(self.toks) and self.toks[i + 1].text == "[":
            return False  # [[attribute]]
        prev = self.toks[i - 1] if i > 0 else None
        if prev is None:
            return True
        if prev.kind in ("id", "num") or prev.text in (")", "]"):
            return False  # subscript
        return True

    def _lambda_at(self, i, end):
        """(captures, params, body_open, body_end) for the lambda introduced
        by toks[i] == '[', or None when the brackets open no lambda body."""
        toks = self.toks
        cap_end = self._match_forward(i, "[", "]")
        if cap_end >= end:
            return None
        captures = toks[i + 1:cap_end - 1]
        j = cap_end
        params = []
        if j < end and toks[j].text == "(":
            p_end = self._match_forward(j, "(", ")")
            params = toks[j + 1:p_end - 1]
            j = p_end
        # Skip specifiers / trailing return type up to the body.
        guard = 0
        while j < end and toks[j].text != "{" and guard < 40:
            if toks[j].text in (";", ")", "}", ","):
                return None  # not a lambda after all
            if toks[j].text == "<":
                j = self._match_angle(j)
            else:
                j += 1
            guard += 1
        if j >= end or toks[j].text != "{":
            return None
        return captures, params, j, self._match_forward(j, "{", "}")

    def _first_suspend(self, body_open, body_end):
        """Token index of the first co_await/co_return/co_yield in the body
        toks[body_open:body_end], or None for a body that never suspends."""
        return next((k for k in range(body_open + 1, body_end - 1)
                     if self.toks[k].text in ("co_await", "co_return",
                                              "co_yield")), None)

    def _check_coroutine_lambda(self, i):
        """coro-ref-capture for the lambda at toks[i], wherever it sits:
        function body, class member initializer or namespace scope."""
        lam = self._lambda_at(i, len(self.toks))
        if lam is None:
            return
        captures, params, body_open, body_end = lam
        suspend_at = self._first_suspend(body_open, body_end)
        if suspend_at is None:
            return
        if any(t.text in ("&", "&&") for t in captures):
            self.fact("coro-ref-capture", "ref-capture", i,
                      "lambda coroutine captures by reference")
            return
        ref_params = set(self._ref_param_names(params))
        for k in range(suspend_at + 1, body_end - 1):
            t = self.toks[k]
            if t.kind == "id" and t.text in ref_params:
                self.fact("coro-ref-capture", "ref-param-after-await", k,
                          f"reference parameter `{t.text}` read after a "
                          "suspension point")
                return

    def _scan_lambda(self, fn, i, end):
        """Returns the body-open index of the lambda at toks[i] (or None) and
        records a pointer comparator. Coroutine lambdas are checked file-wide
        by _check_coroutine_lambda instead."""
        lam = self._lambda_at(i, end)
        if lam is None:
            return None
        _captures, params, j, body_end = lam
        if self._first_suspend(j, body_end) is not None:
            return j
        body = self.toks[j + 1:body_end - 1]
        # Comparator lambda over pointer parameters: (T* a, T* b) { a < b }.
        ptr_params = self._pointer_param_names(params)
        if len(ptr_params) >= 2:
            for k, t in enumerate(body):
                if t.kind == "id" and t.text in ptr_params \
                        and k + 2 < len(body) \
                        and body[k + 1].text in ("<", ">", "<=", ">=") \
                        and body[k + 2].kind == "id" \
                        and body[k + 2].text in ptr_params:
                    self.fact("pointer-ordering", "pointer-comparator",
                              j + 1 + k,
                              f"comparator orders pointer parameters "
                              f"`{t.text}` and `{body[k + 2].text}`", fn)
                    break
        return j

    def _pointer_param_names(self, params):
        names = set()
        depth = 0
        group = []
        groups = [group]
        for tok in params:
            if tok.text in ("<", "(", "["):
                depth += 1
            elif tok.text in (">", ")", "]"):
                depth -= 1
            elif tok.text == "," and depth == 0:
                group = []
                groups.append(group)
                continue
            group.append(tok)
        for group in groups:
            ids = [t.text for t in group if t.kind == "id"]
            if len(ids) >= 2 and any(t.text == "*" for t in group):
                names.add(ids[-1])
        return names

    # -- class-member scan (capability discipline) ---------------------------

    CLASS_SKIP_STMT = {"public", "private", "protected", "using", "typedef",
                       "friend", "template", "enum", "class", "struct",
                       "static_assert"}

    def scan_classes(self):
        """Collects every class/struct definition's data members with their
        EMSIM_GUARDED_BY status, for the shared-state-unguarded rule. The
        linear scan visits nested classes on its own."""
        toks = self.toks
        for i in range(len(toks)):
            if toks[i].text not in ("class", "struct"):
                continue
            # `enum class`, `template <class T, class U>`: not definitions.
            if i > 0 and toks[i - 1].text in ("enum", "<", ","):
                continue
            header = self._class_header(i)
            if header is not None:
                self._scan_class_body(header[0], i, header[1])

    def _class_header(self, i):
        """(name, body_open_index) when toks[i] ('class'/'struct') opens a
        definition; None for forward declarations, variables of elaborated
        type, and template parameters."""
        toks = self.toks
        n = len(toks)
        j = i + 1
        name = None
        while j < n and toks[j].kind == "id":
            if toks[j].text.startswith("EMSIM_") or toks[j].text == "alignas":
                j += 1
                if j < n and toks[j].text == "(":
                    j = self._match_forward(j, "(", ")")
                continue
            if toks[j].text == "final":
                j += 1
                continue
            name = toks[j].text
            j += 1
            if j < n and toks[j].text == "<":
                j = self._match_angle(j)
        if name is None:
            return None
        k = j
        while k < n and toks[k].text not in ("{", ";", "=", "("):
            k += 1
        if k < n and toks[k].text == "{":
            return name, k
        return None

    @staticmethod
    def _stmt_is_function(stmt):
        """A class-body statement is a function declaration when its first
        top-level '(' follows a plain identifier (annotation macros are not
        function names) with no '=' before it."""
        for k, (tok, _idx) in enumerate(stmt):
            if tok.text == "=":
                return False
            if tok.text == "(":
                return k > 0 and stmt[k - 1][0].kind == "id" \
                    and not stmt[k - 1][0].text.startswith("EMSIM_")
        return False

    MEMBER_EXEMPT_TOKENS = SYNC_TYPE_TOKENS | {"const", "constexpr"}

    def _scan_class_body(self, cls_name, cls_tok, body_open):
        toks = self.toks
        body_end = self._match_forward(body_open, "{", "}")
        members = []
        has_cap = False

        def classify(stmt):
            nonlocal has_cap
            while len(stmt) >= 2 \
                    and stmt[0][0].text in ("public", "private", "protected") \
                    and stmt[1][0].text == ":":
                stmt = stmt[2:]
            if not stmt:
                return
            texts = [t.text for t, _idx in stmt]
            if texts[0] in self.CLASS_SKIP_STMT or "operator" in texts:
                return
            if self._stmt_is_function(stmt):
                return
            guarded = any(t in ("EMSIM_GUARDED_BY", "EMSIM_PT_GUARDED_BY")
                          for t in texts)
            name_pos = None
            for k, (tok, _idx) in enumerate(stmt):
                if tok.text == "=" or tok.text.startswith("EMSIM_"):
                    break
                if tok.kind == "id" and tok.text not in KEYWORDS:
                    name_pos = k
            if name_pos is None:
                return
            name_tok = stmt[name_pos][0]
            type_texts = {t.text for t, _idx in stmt[:name_pos]}
            if type_texts & CAP_TYPE_TOKENS:
                has_cap = True
            members.append({
                "name": name_tok.text,
                "line": name_tok.line, "guarded": guarded,
                "exempt": bool(type_texts & self.MEMBER_EXEMPT_TOKENS),
            })

        stmt = []
        i = body_open + 1
        while i < body_end - 1:
            text = toks[i].text
            if text == ";":
                classify(stmt)
                stmt = []
                i += 1
                continue
            if text == "{":
                end = self._match_forward(i, "{", "}")
                if self._stmt_is_function(stmt) or \
                        (stmt and stmt[0][0].text in ("class", "struct",
                                                      "enum")):
                    stmt = []          # body consumed; nested classes get
                    i = end            # their own scan_classes visit
                    continue
                i = end                # default member initializer `x{3}`
                continue
            if text == "(":
                stmt.append((toks[i], i))
                i = self._match_forward(i, "(", ")")
                continue
            if text == "<" and stmt and stmt[-1][0].kind == "id":
                i = self._match_angle(i)
                continue
            stmt.append((toks[i], i))
            i += 1
        classify(stmt)

        if members:
            self.classes.append({
                "name": cls_name,
                "line": toks[cls_tok].line, "has_cap": has_cap,
                "members": members,
            })

    def ir(self):
        self.parse()
        self.scan_classes()
        return {
            "functions": self.functions,
            "file_facts": self.file_facts,
            "classes": self.classes,
            "is_coro": self.is_coro,
        }


def rel_of_path(path: Path, root: Path):
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return None


# --- Dependency scanning (same contract as run_clang_tidy.py) ---------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+("([^"]+)"|<([^>]+)>)',
                        re.MULTILINE)
INCLUDE_DIR_RE = re.compile(r"(?:^|\s)-(?:I|isystem)\s*(\S+)")


class DependencyScanner:
    """Transitive project-header closure of a TU: every project header the
    TU includes gets indexed along with it."""

    def __init__(self, root: Path):
        self.root = root
        self._direct: dict = {}
        self._text: dict = {}

    def read(self, path: Path) -> str:
        data = self._text.get(path)
        if data is None:
            try:
                data = path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                data = ""
            self._text[path] = data
        return data

    def _direct_includes(self, path: Path):
        cached = self._direct.get(path)
        if cached is None:
            cached = []
            for m in INCLUDE_RE.finditer(self.read(path)):
                if m.group(2) is not None:
                    cached.append((m.group(2), True))
                else:
                    cached.append((m.group(3), False))
            self._direct[path] = cached
        return cached

    def _resolve(self, spec, is_quote, includer: Path, include_dirs):
        bases = ([includer.parent] if is_quote else []) + include_dirs
        for base in bases:
            candidate = base / spec
            if candidate.is_file():
                candidate = candidate.resolve()
                try:
                    candidate.relative_to(self.root)
                except ValueError:
                    return None
                return candidate
        return None

    def closure(self, tu: Path, include_dirs):
        seen = set()
        stack = [tu]
        while stack:
            current = stack.pop()
            for spec, is_quote in self._direct_includes(current):
                target = self._resolve(spec, is_quote, current, include_dirs)
                if target is not None and target not in seen and target != tu:
                    seen.add(target)
                    stack.append(target)
        return sorted(seen)


def include_dirs_of(command: str, directory: Path):
    dirs = []
    for m in INCLUDE_DIR_RE.finditer(command):
        raw = m.group(1).strip('"')
        path = Path(raw)
        if not path.is_absolute():
            path = directory / path
        dirs.append(path)
    return dirs


def load_database(db_path: Path, root: Path):
    tus = []
    for entry in json.loads(db_path.read_text(encoding="utf-8")):
        path = Path(entry["file"])
        if not path.is_absolute():
            path = Path(entry["directory"]) / path
        path = path.resolve()
        try:
            rel = path.relative_to(root)
        except ValueError:
            continue
        if not (rel.parts and rel.parts[0] in LINT_DIRS):
            continue
        command = entry.get("command")
        if command is None:
            command = " ".join(entry.get("arguments", []))
        tus.append((path, Path(entry["directory"]), command))
    unique = {str(path): (path, directory, command)
              for path, directory, command in tus}
    return [unique[key] for key in sorted(unique)]


# --- Cross-TU analysis -------------------------------------------------------

def in_sink_file(relpath: str) -> bool:
    return any(re.search(p, relpath) for p in EXPORT_SINK_PATTERNS)


class Program:
    """The merged cross-TU view: every function definition, a name-resolved
    call graph, and the derived export surface."""

    def __init__(self, files: dict):
        self.files = files
        self.defs = []           # function dicts + "id"
        self.by_simple = {}
        self.by_qname = {}
        for rel in sorted(files):
            for fn in files[rel]["functions"]:
                fn = dict(fn)
                fn["id"] = len(self.defs)
                self.defs.append(fn)
                self.by_simple.setdefault(fn["name"], []).append(fn["id"])
                self.by_qname.setdefault(fn["qname"], []).append(fn["id"])

    def resolve(self, full: str, simple: str):
        """Candidate definition ids for a call: qualified-suffix matches
        when the spelling is qualified, else every simple-name match."""
        if "::" in full:
            suffix = "::" + full
            out = [i for q, ids in self.by_qname.items()
                   if q == full or q.endswith(suffix) for i in ids]
            if out:
                return out
        return self.by_simple.get(simple, [])

    def export_surface(self):
        """fn id -> chain-parent id (or None for a root), for every function
        on the export surface."""
        sinks = [fn["id"] for fn in self.defs if in_sink_file(fn["file"])]
        sink_set = set(sinks)
        roots = list(sinks)
        for fn in self.defs:
            if fn["id"] in sink_set:
                continue
            for full, simple, _line in fn["calls"]:
                if any(c in sink_set for c in self.resolve(full, simple)):
                    roots.append(fn["id"])
                    break
        parent = {}
        queue = []
        for r in roots:
            if r not in parent:
                parent[r] = None
                queue.append(r)
        while queue:
            cur = queue.pop(0)
            for full, simple, _line in self.defs[cur]["calls"]:
                for callee in self.resolve(full, simple):
                    if callee not in parent:
                        parent[callee] = cur
                        queue.append(callee)
        return parent

    def chain(self, parent, fn_id):
        names = []
        cur = fn_id
        guard = 0
        while cur is not None and guard < 32:
            names.append(self.defs[cur]["qname"] or self.defs[cur]["name"])
            cur = parent.get(cur)
            guard += 1
        names.reverse()
        return " -> ".join(names)

    def reachable_from(self, root_suffixes):
        """fn id -> chain-parent id (or None for a root) for every function
        reachable from definitions whose qualified name matches one of
        `root_suffixes` (exact, `::`-suffix, or bare simple name)."""
        parent = {}
        queue = []
        for fn in self.defs:
            q = fn["qname"]
            for root in root_suffixes:
                if q == root or q.endswith("::" + root) \
                        or ("::" not in root and fn["name"] == root):
                    parent[fn["id"]] = None
                    queue.append(fn["id"])
                    break
        while queue:
            cur = queue.pop(0)
            for full, simple, _line in self.defs[cur]["calls"]:
                for callee in self.resolve(full, simple):
                    if callee not in parent:
                        parent[callee] = cur
                        queue.append(callee)
        return parent

    def aggregation_set(self):
        """Aggregation roots plus their direct same-file callees."""
        out = set()
        roots = [fn for fn in self.defs if fn["name"] in AGG_ROOT_NAMES
                 and not FLOAT_EXEMPT_RE.search(fn["file"])]
        for fn in roots:
            out.add(fn["id"])
            for full, simple, _line in fn["calls"]:
                for callee in self.resolve(full, simple):
                    if self.defs[callee]["file"] == fn["file"] \
                        and not FLOAT_EXEMPT_RE.search(
                            self.defs[callee]["file"]):
                        out.add(callee)
        return out


def class_prefix(fn):
    """The enclosing-scope prefix of a function's qualified name (used to
    qualify member capabilities so `mu_` in two classes stays distinct)."""
    q = fn["qname"]
    return q.rsplit("::", 1)[0] if "::" in q else ""


def qualify_cap(fn, cap):
    prefix = class_prefix(fn)
    return f"{prefix}::{cap}" if prefix else cap


class LockAnalysis:
    """Bounded-depth closures over the resolved call graph: which
    capabilities a function (transitively) acquires, and which blocking
    operations it (transitively) performs. Both closures skip callee
    candidates with the caller's own qualified name — a member call like
    `other_.Note(...)` resolves by simple name to the caller itself and
    would otherwise manufacture self-recursion."""

    def __init__(self, program):
        self.program = program
        self._acquires = {}
        self._blocking = {}

    def _callees(self, fn):
        out = []
        for full, simple, _line in fn["calls"]:
            for c in self.program.resolve(full, simple):
                callee = self.program.defs[c]
                if c != fn["id"] and callee["qname"] != fn["qname"]:
                    out.append(c)
        return out

    def acquires(self, fn_id, depth=LOCK_CALL_DEPTH):
        """Qualified capabilities acquired by fn or its callees (bounded)."""
        key = (fn_id, depth)
        cached = self._acquires.get(key)
        if cached is not None:
            return cached
        self._acquires[key] = set()   # cycle guard while computing
        fn = self.program.defs[fn_id]
        out = {qualify_cap(fn, fact["cap"]) for fact in fn["facts"]
               if fact["rule"] == "lock-order-cycle"
               and fact["kind"] == "acquire"}
        if depth > 0:
            for c in self._callees(fn):
                out |= self.acquires(c, depth - 1)
        self._acquires[key] = out
        return out

    def blocking(self, fn_id, depth=LOCK_CALL_DEPTH):
        """Blocking operation names performed by fn or its callees."""
        key = (fn_id, depth)
        cached = self._blocking.get(key)
        if cached is not None:
            return cached
        self._blocking[key] = set()
        fn = self.program.defs[fn_id]
        out = set(fn.get("blocking", ()))
        if depth > 0:
            for c in self._callees(fn):
                out |= self.blocking(c, depth - 1)
        self._blocking[key] = out
        return out


def _find_cycle_through(graph, a, b):
    """Shortest capability path b -> ... -> a in the lock-order graph (BFS),
    or None. Together with the edge a -> b this closes a cycle."""
    if a == b:
        return [a]
    parent = {b: None}
    queue = [b]
    while queue:
        cur = queue.pop(0)
        for nxt in graph.get(cur, {}):
            if nxt in parent:
                continue
            parent[nxt] = cur
            if nxt == a:
                path = [a]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path   # [b, ..., a]
            queue.append(nxt)
    return None


def analyze_program(files: dict):
    """Findings (pre-suppression) for the merged per-file IRs."""
    program = Program(files)
    surface = program.export_surface()
    agg = program.aggregation_set()
    preach = program.reachable_from(PARALLEL_ROOTS)
    locks = LockAnalysis(program)
    cap_class_names = {cls["name"] for file_ir in files.values()
                       for cls in file_ir.get("classes", ())
                       if cls["has_cap"]}
    static_exempt = STATIC_EXEMPT_TOKENS | cap_class_names
    findings = []

    def emit(rule, path, line, message, detail):
        findings.append({"rule": rule, "path": path, "line": line,
                         "message": message, "detail": detail})

    for fn in program.defs:
        for fact in fn["facts"]:
            rule = fact["rule"]
            if rule == "determinism-taint":
                if fn["id"] in surface:
                    where = program.chain(surface, fn["id"])
                    emit(rule, fn["file"], fact["line"],
                         f"{fact['detail']} on the export surface "
                         f"(export path: {where}); nondeterministic values "
                         "must not reach MergeResult/JSON artifacts",
                         fact["kind"])
            elif rule == "float-reduction-order":
                if fn["id"] in agg and not FLOAT_EXEMPT_RE.search(fn["file"]):
                    emit(rule, fn["file"], fact["line"],
                         f"{fact['detail']} in aggregation function "
                         f"`{fn['qname']}`; combine trial statistics through "
                         "stats::Accumulator (Add/Merge/State), never ad-hoc "
                         "float arithmetic", fact["kind"])
            elif rule == "pointer-ordering":
                emit(rule, fn["file"], fact["line"],
                     f"{fact['detail']}; pointer order is ASLR-random across "
                     "sweep-worker processes — key on a stable id instead",
                     fact["kind"])
            elif rule == "shared-state-unguarded":
                if fact["kind"] == "local-static" and fact.get("mutated") \
                        and fn["id"] in preach \
                        and not (set(fact.get("types", ())) & static_exempt):
                    where = program.chain(preach, fn["id"])
                    emit(rule, fn["file"], fact["line"],
                         f"{fact['detail']} is written on a parallel path "
                         f"({where}) with no capability guarding it; hoist "
                         "it into a class behind EMSIM_GUARDED_BY or make "
                         "it atomic/const", fact["kind"])
            elif rule == "lock-held-blocking":
                emit(rule, fn["file"], fact["line"],
                     f"{fact['detail']} in `{fn['qname']}`; blocking while "
                     "holding a capability stalls every waiter — drop the "
                     "lock around the slow operation", fact["kind"])

    # Lock-order discipline: collect held-vs-acquired edges (directly, and
    # through calls made with a capability held, to a bounded depth), then
    # report each capability cycle once. A self-edge is a double acquisition
    # of a non-recursive mutex — a guaranteed self-deadlock.
    edges = {}   # capA -> {capB: (path, line, detail)}

    def add_edge(a, b, path, line, detail):
        edges.setdefault(a, {}).setdefault(b, (path, line, detail))

    for fn in program.defs:
        for fact in fn["facts"]:
            if fact["rule"] == "lock-order-cycle" \
                    and fact["kind"] == "acquire":
                cap = qualify_cap(fn, fact["cap"])
                for held in fact.get("held", ()):
                    held_q = qualify_cap(fn, held)
                    add_edge(held_q, cap, fn["file"], fact["line"],
                             f"`{fn['qname']}` acquires `{cap}` while "
                             f"holding `{held_q}`")
        for lc in fn.get("locked_calls", ()):
            if not lc["held"]:
                continue
            callees = [c for c in program.resolve(lc["full"], lc["simple"])
                       if c != fn["id"]
                       and program.defs[c]["qname"] != fn["qname"]]
            acquired = set()
            blocked = set()
            for c in callees:
                acquired |= locks.acquires(c, LOCK_CALL_DEPTH - 1)
                blocked |= locks.blocking(c, LOCK_CALL_DEPTH - 1)
            for cap in sorted(acquired):
                for held in lc["held"]:
                    held_q = qualify_cap(fn, held)
                    add_edge(held_q, cap, fn["file"], lc["line"],
                             f"`{fn['qname']}` calls `{lc['full']}` (which "
                             f"acquires `{cap}`) while holding `{held_q}`")
            if blocked:
                ops = ", ".join(f"`{b}`" for b in sorted(blocked))
                emit("lock-held-blocking", fn["file"], lc["line"],
                     f"`{fn['qname']}` calls `{lc['full']}` while holding "
                     f"`{qualify_cap(fn, lc['held'][-1])}`, and the callee "
                     f"blocks (transitively reaches {ops}); drop the lock "
                     "around the slow operation", "blocking-call")

    reported_cycles = set()
    for a in sorted(edges):
        for b in sorted(edges[a]):
            path_nodes = _find_cycle_through(edges, a, b)
            if path_nodes is None:
                continue
            cycle = frozenset(path_nodes) | {a}
            if cycle in reported_cycles:
                continue
            reported_cycles.add(cycle)
            src, line, detail = edges[a][b]
            if len(cycle) == 1:
                emit("lock-order-cycle", src, line,
                     f"capability `{a}` is re-acquired while already held "
                     f"({detail}); the mutex is non-recursive, so this "
                     "self-deadlocks", "double-lock")
            else:
                order = " -> ".join([a] + path_nodes)
                emit("lock-order-cycle", src, line,
                     f"lock-order cycle {order}: {detail}, and the reverse "
                     "order is taken elsewhere — pick one global acquisition "
                     "order for these capabilities", "cycle")

    for rel in sorted(files):
        for fact in files[rel]["file_facts"]:
            rule = fact["rule"]
            if rule == "coro-ref-capture":
                emit(rule, rel, fact["line"],
                     f"{fact['detail']}; the coroutine frame outlives the "
                     "enclosing scope, so the reference dangles at resume "
                     "time", fact["kind"])
            elif rule == "coro-raw-handle":
                if not SIM_KERNEL_RE.search(rel):
                    emit(rule, rel, fact["line"],
                         "std::coroutine_handle outside src/sim/ defeats the "
                         "frame-pool/calendar ownership bookkeeping; "
                         "communicate through sim Events and Signals",
                         fact["kind"])
            elif rule == "pointer-ordering":
                emit(rule, rel, fact["line"],
                     f"{fact['detail']}; pointer order is ASLR-random across "
                     "sweep-worker processes — key on a stable id instead",
                     fact["kind"])
            elif rule == "no-blocking-in-sim":
                if files[rel]["is_coro"]:
                    emit(rule, rel, fact["line"],
                         f"{fact['detail']} in a coroutine TU; simulated "
                         "time and synchronization must come from the "
                         "calendar (sim::Delay, Events, Signals)",
                         fact["kind"])
        for cls in files[rel].get("classes", ()):
            if not cls["has_cap"]:
                continue
            for member in cls["members"]:
                if member["guarded"] or member["exempt"]:
                    continue
                emit("shared-state-unguarded", rel, member["line"],
                     f"member `{cls['name']}::{member['name']}` of a "
                     "capability-bearing class has no EMSIM_GUARDED_BY "
                     "annotation; guard it, make it atomic/const, or move "
                     "it out of the locked class", "member")

    findings.sort(key=lambda f: (f["path"], f["line"], f["rule"]))
    return findings


# --- Suppressions ------------------------------------------------------------

def apply_suppressions(findings, root: Path):
    """Splits findings into (kept, suppressed). A finding is suppressed by a
    trailing `// emsim-analyze: allow(rule)` comment on its line, or — for
    lines too long to grow a trailing comment — by a standalone
    `// emsim-analyze: allow(rule)` comment line directly above it."""
    line_cache = {}
    kept, suppressed = [], []
    for f in findings:
        lines = line_cache.get(f["path"])
        if lines is None:
            try:
                lines = (root / f["path"]).read_text(
                    encoding="utf-8", errors="replace").splitlines()
            except OSError:
                lines = []
            line_cache[f["path"]] = lines
        raw = lines[f["line"] - 1] if 0 < f["line"] <= len(lines) else ""
        allowed = set()
        comment = raw.find("//")
        if comment >= 0:
            for m in ALLOW_RE.finditer(raw, comment):
                allowed.update(r.strip() for r in m.group(1).split(","))
        above = lines[f["line"] - 2] if 1 < f["line"] <= len(lines) + 1 else ""
        if above.lstrip().startswith("//"):
            for m in ALLOW_RE.finditer(above):
                allowed.update(r.strip() for r in m.group(1).split(","))
        f = dict(f)
        f["snippet"] = raw.strip()[:160]
        if f["rule"] in allowed:
            suppressed.append(f)
        else:
            kept.append(f)
    return kept, suppressed


# --- Driver ------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="build tree containing compile_commands.json")
    parser.add_argument("--source-root", default=".")
    parser.add_argument("--report", help="write a JSON findings report here")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}: {RULES[rule]}")
        return 0

    started = time.monotonic()
    root = Path(args.source_root).resolve()
    build_dir = Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        print(f"emsim_analyze: {db_path} not found; configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON first", file=sys.stderr)
        return 2

    tus = load_database(db_path, root)
    if not tus:
        print("emsim_analyze: no files under "
              f"{'/'.join(LINT_DIRS)} in the compilation database",
              file=sys.stderr)
        return 2

    # Index every TU and each project header it includes, once.
    scanner = DependencyScanner(root)
    files: dict = {}
    for tu, directory, command in tus:
        dirs = include_dirs_of(command, directory)
        for path in [tu] + scanner.closure(tu, dirs):
            rel = rel_of_path(path, root)
            if rel is not None and rel not in files:
                files[rel] = FileParser(rel, scanner.read(path)).ir()

    findings = analyze_program(files)
    findings, suppressions = apply_suppressions(findings, root)

    report = {
        "tool": "emsim_analyze",
        "version": 1,
        "tus": len(tus),
        "files_indexed": len(files),
        "findings": findings,
        "suppressions": suppressions,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")

    for f in findings:
        print(f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}")
        if f.get("snippet"):
            print(f"    {f['snippet']}")
    status = (f"emsim_analyze: {len(tus)} TUs ({len(files)} files), "
              f"{len(findings)} finding(s), {len(suppressions)} "
              f"suppression(s), {time.monotonic() - started:.1f}s wall")
    print(status, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
