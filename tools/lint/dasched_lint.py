#!/usr/bin/env python3
"""dasched_lint: project-specific static analysis for the dasched contracts.

The simulator's correctness story rests on three contracts that the type
system cannot express and that ordinary warnings do not cover:

  1. Hot paths are allocation-free in steady state (`DASCHED_HOT`).
  2. Results are bit-deterministic: no wall-clock / rand calls, no iteration
     over unordered containers on result-affecting paths, no pointer-valued
     sort keys.
  3. Observers (telemetry + invariant checks) are passive: they may only
     make const calls into simulation state (`DASCHED_OBSERVER_PASSIVE`).
  4. `TraceEvent` stays a 32-byte trivially-copyable POD (the trace.bin
     format is a raw memcpy of it).

This tool enforces all four over every translation unit in
`compile_commands.json`.  The front-end is GCC itself: each TU is compiled
with `-fdump-tree-gimple-lineno`, which emits every function body the TU
instantiates (including inlined template code from headers) in a flat
three-address form with demangled qualified names and `[file:line:col]`
statement prefixes.  That gives us a real intra-TU call graph without
needing a clang toolchain in the build image.

Annotations are discovered textually from the sources (`DASCHED_HOT`,
`DASCHED_OBSERVER_PASSIVE` from src/util/annotations.h); observer classes
are additionally discovered structurally (anything deriving from a
`*Observer` interface).  Known-good sites are suppressed inline with

    // dasched-lint: allow(<rule>): <reason>

on the flagged line or the line above it; everything else goes through the
checked-in baseline (tools/lint/baseline.txt), which makes the CI gate
"no *new* violations".

Rules
-----
  hot-alloc            allocation reachable intra-TU from a DASCHED_HOT root
  nondet-source        rand()/time()/clock_gettime()/random_device/... call
  nondet-unordered-iter  iteration over std::unordered_{map,set,...}
  nondet-ptr-sort-key  std::sort / std::stable_sort over pointer keys
  observer-nonconst    observer method calls a non-const method of sim state
  observer-const-cast  const_cast in an observer implementation file
  stale-sim-state-class  a SIM_STATE_CLASSES entry names no class declared
                       under <root>/src, so observer-nonconst cannot cover it
  trace-pod            TraceEvent layout probe failed (size/POD-ness)

Exit status: 0 when every finding is baselined or suppressed, 1 otherwise.
With --expect RULE the polarity flips: 0 iff at least one finding of RULE
was produced (used by the seeded-violation fixtures under tests/lint/).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------

ALL_RULES = (
    "hot-alloc",
    "nondet-source",
    "nondet-unordered-iter",
    "nondet-ptr-sort-key",
    "observer-nonconst",
    "observer-const-cast",
    "stale-sim-state-class",
    "trace-pod",
)

# Allocating entry points.  The two-argument `operator new (size, ptr)` form
# is placement new and does not allocate; it is filtered by argument count.
ALLOC_CALLEES = {
    "operator new",
    "operator new []",
    "malloc",
    "calloc",
    "realloc",
    "aligned_alloc",
    "strdup",
}

# Wall-clock and PRNG entry points that break run-to-run determinism.
NONDET_CALLEES = {
    "rand",
    "srand",
    "random",
    "drand48",
    "lrand48",
    "rand_r",
    "time",
    "clock",
    "gettimeofday",
    "clock_gettime",
    "getrandom",
}
NONDET_CALLEE_PATTERNS = [
    re.compile(r"std::chrono::_V2::(system|steady|high_resolution)_clock::now"),
    re.compile(r"std::chrono::(system|steady|high_resolution)_clock::now"),
    re.compile(r"std::random_device::"),
]

# Only begin()/cbegin() mark iteration: `find() != end()` is a pure
# membership test and must not fire the rule.
UNORDERED_ITER_RE = re.compile(
    r"std::unordered_(?:multi)?(?:map|set)<.*>::c?begin\b"
)

PTR_SORT_RE = re.compile(r"std::(?:stable_)?sort<")

# Simulation-state classes observers receive (directly or transitively).
# Callbacks hand these out as const&; the rule catches mutation smuggled in
# through stored non-const pointers or const_cast.  Each entry must name a
# class declared under src/ (rule stale-sim-state-class), so a rename cannot
# silently drop a class from the rule.
SIM_STATE_CLASSES = {
    "Disk",
    "Simulator",
    "IoNode",
    "StorageSystem",
    "StorageCache",
    "AccessScheduler",
    "Cluster",
    "ElevatorQueue",
    "GlobalBuffer",
    "PowerPolicy",
}

LINT_RELPATH = "tools/lint/dasched_lint.py"

SUPPRESS_RE = re.compile(r"//\s*dasched-lint:\s*allow\(([a-z0-9-]+)\)")

# --------------------------------------------------------------------------
# Small data carriers
# --------------------------------------------------------------------------


class Finding:
    __slots__ = ("rule", "file", "line", "symbol", "message")

    def __init__(self, rule, file, line, symbol, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.symbol = symbol
        self.message = message

    def key(self):
        """Line-number-free identity used for baseline matching."""
        return (self.rule, self.file, self.symbol)

    def render(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


class GimpleFunction:
    __slots__ = ("name", "calls", "file")

    def __init__(self, name):
        self.name = name          # demangled pre-paren signature name
        self.calls = []           # list of (callee_name, nargs, file, line)
        self.file = None          # first project file seen in the body


# --------------------------------------------------------------------------
# GIMPLE dump parsing
# --------------------------------------------------------------------------

LOC_RE = re.compile(r"\[([^\[\]:]+):(\d+):\d+\]")
LHS_RE = re.compile(r"^\s*[\w.$]+\s*=\s*")


def split_callee(text):
    """Finds the parameter-list ``" ("`` in a cleaned GIMPLE statement.

    GIMPLE prints no space before '(' except ahead of a parameter list, so
    the first " (" at angle-bracket depth 0 separates callee from args.
    Returns (callee, args) or None.
    """
    depth = 0
    prev = ""
    for i, ch in enumerate(text):
        if ch == "<" and prev not in "-<":  # skip "->"; "<<" is shift
            depth += 1
        elif ch == ">" and prev not in "->":
            if depth > 0:
                depth -= 1
        elif ch == "(" and prev == " " and depth == 0:
            callee = text[: i - 1].strip()
            args = text[i + 1 :]
            end = args.rfind(")")
            if end >= 0:
                args = args[:end]
            return callee, args
        prev = ch
    return None


def count_args(args):
    """Top-level comma count + 1 (0 for an empty argument list)."""
    args = args.strip()
    if not args:
        return 0
    depth = 0
    n = 1
    for i, ch in enumerate(args):
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        elif ch == "," and depth == 0:
            n += 1
    return n


def strip_return_type(sig):
    """Drops the return type from a col-0 GIMPLE signature prefix.

    The name is the last space-separated token outside <>/() — except that
    "operator new"/"operator delete" span two tokens.
    """
    depth = 0
    last_space = -1
    prev = ""
    for i, ch in enumerate(sig):
        if ch in "<(" and prev not in "-<":
            depth += 1
        elif ch in ">)" and prev not in "->":
            if depth > 0:
                depth -= 1
        elif ch == " " and depth == 0:
            last_space = i
        prev = ch
    name = sig[last_space + 1 :]
    head = sig[:last_space].rstrip() if last_space >= 0 else ""
    if head.endswith("operator"):
        name = "operator " + name
    return name


SIG_RE = re.compile(r"^[^\s{}].* \(.*\)$")


def parse_gimple(path):
    """Parses one -fdump-tree-gimple-lineno dump into GimpleFunctions."""
    functions = {}
    current = None
    pending_sig = None
    with open(path, "r", errors="replace") as f:
        for raw in f:
            line = raw.rstrip("\n")
            if not line:
                continue
            if current is None:
                if line.startswith("__attribute__"):
                    continue
                if pending_sig is not None:
                    stripped = line.strip()
                    if stripped == "{" or stripped.endswith("{"):
                        current = GimpleFunction(strip_return_type(pending_sig))
                        pending_sig = None
                        continue
                    # Not a body open: the candidate was a stray declaration.
                    pending_sig = None
                if not line[0].isspace() and SIG_RE.match(line):
                    parsed = split_callee(line)
                    pending_sig = parsed[0] if parsed else None
                continue
            # Inside a function body.
            if line == "}":
                functions.setdefault(current.name, current)
                current = None
                continue
            locs = LOC_RE.findall(line)
            file = locs[0][0] if locs else None
            lineno = int(locs[0][1]) if locs else 0
            if current.file is None and file and not file.startswith("/usr/"):
                current.file = file
            cleaned = LOC_RE.sub("", line).strip()
            cleaned = LHS_RE.sub("", cleaned)
            if " (" not in cleaned:
                continue
            parsed = split_callee(cleaned)
            if not parsed:
                continue
            callee, args = parsed
            if (
                not callee
                or callee.startswith(("OBJ_TYPE_REF", "D.", "_", "(", "&", "*"))
                or callee in ("if", "while", "switch", "return", "goto", "try")
                or "=" in callee
            ):
                continue
            current.calls.append((callee, count_args(args), file, lineno))
    return functions


def run_gimple_dump(gxx, src, flags, workdir):
    """Compiles `src` to GIMPLE, returning the parsed functions (or None)."""
    fd, dump = tempfile.mkstemp(suffix=".gimple")
    os.close(fd)
    cmd = (
        [gxx]
        + flags
        + ["-O0", "-S", "-o", os.devnull,
           f"-fdump-tree-gimple-lineno={dump}", src]
    )
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, capture_output=True, text=True, timeout=300
        )
        if proc.returncode != 0:
            sys.stderr.write(
                f"dasched_lint: failed to compile {src}:\n{proc.stderr}\n"
            )
            return None
        return parse_gimple(dump)
    finally:
        try:
            os.unlink(dump)
        except OSError:
            pass


def flags_from_command(entry):
    """Extracts reusable compiler flags from a compile_commands entry."""
    argv = (
        shlex.split(entry["command"])
        if "command" in entry
        else list(entry["arguments"])
    )
    flags = []
    skip = False
    for arg in argv[1:]:
        if skip:
            skip = False
            continue
        if arg in ("-o", "-c"):
            skip = arg == "-o"
            continue
        if arg == entry["file"] or arg.endswith((".cc", ".cpp", ".o")):
            continue
        if arg.startswith("-O"):
            continue  # the dump pass re-adds -O0 itself
        flags.append(arg)
    return flags


# --------------------------------------------------------------------------
# Source-side discovery: annotations, class scopes, constness, suppressions
# --------------------------------------------------------------------------


def strip_comments(text):
    """Blanks out comments/strings, preserving offsets and newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif ch in "\"'":
            q = ch
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(q + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:DASCHED_\w+\s+)?(\w+)(\s+final)?\s*(?::[^;{]*)?\{",
    re.S,
)


class SourceModel:
    """Textual model of the project sources: scopes, constness, annotations."""

    def __init__(self):
        self.hot_methods = set()        # {"Class::method", "::function"}
        self.passive_classes = set()    # annotated observer classes
        self.structural_observers = set()
        self.const_methods = set()      # {(Class, method)}
        self.declared_methods = set()   # {(Class, method)}
        self.class_files = {}           # class -> file it is declared in
        self.suppressions = {}          # file -> {line -> {rules}}
        self.const_cast_sites = {}      # file -> [(line, class)]

    def scan_file(self, path):
        try:
            with open(path, "r", errors="replace") as f:
                text = f.read()
        except OSError:
            return
        self._scan_suppressions(path, text)
        clean = strip_comments(text)
        self._scan_classes(path, clean)
        self._scan_hot(clean)

    def _scan_suppressions(self, path, text):
        table = {}
        lines = text.splitlines()
        for lineno, line in enumerate(lines, 1):
            for m in SUPPRESS_RE.finditer(line):
                rule = m.group(1)
                # An allow-comment covers its own line; a standalone one
                # also covers the rest of its comment block and the first
                # code line after it.
                table.setdefault(lineno, set()).add(rule)
                if line.lstrip().startswith("//"):
                    nxt = lineno + 1
                    while nxt <= len(lines) and \
                            lines[nxt - 1].lstrip().startswith("//"):
                        table.setdefault(nxt, set()).add(rule)
                        nxt += 1
                    table.setdefault(nxt, set()).add(rule)
        if table:
            self.suppressions[path] = table

    def _class_spans(self, clean):
        """Yields (name, body_start, body_end) for each class/struct."""
        for m in CLASS_HEAD_RE.finditer(clean):
            name = m.group(2)
            start = m.end() - 1  # at '{'
            depth = 0
            for i in range(start, len(clean)):
                if clean[i] == "{":
                    depth += 1
                elif clean[i] == "}":
                    depth -= 1
                    if depth == 0:
                        yield name, start + 1, i, m.group(0)
                        break

    METHOD_RE = re.compile(r"(~?\w+)\s*\(")
    CONST_TAIL_RE = re.compile(
        r"(~?\w+)\s*\(([^()]|\([^()]*\))*\)\s*const\b"
    )

    def _scan_classes(self, path, clean):
        for name, start, end, head in self._class_spans(clean):
            body = clean[start:end]
            self.class_files.setdefault(name, path)
            if "DASCHED_OBSERVER_PASSIVE" in head:
                self.passive_classes.add(name)
            if re.search(r"public\s+\w*Observer\b", head) or re.search(
                r"public\s+InvariantCheck\b", head
            ):
                self.structural_observers.add(name)
            for m in self.METHOD_RE.finditer(body):
                method = m.group(1)
                if method in ("if", "for", "while", "switch", "return",
                              "sizeof", "static_assert", "catch", "operator"):
                    continue
                self.declared_methods.add((name, method))
            for m in self.CONST_TAIL_RE.finditer(body):
                self.const_methods.add((name, m.group(1)))

    HOT_RE = re.compile(r"DASCHED_HOT\s+[\w:<>&,*\s]*?(\w+)\s*\(")

    def _scan_hot(self, clean):
        for name, start, end, _head in self._class_spans(clean):
            body = clean[start:end]
            for m in self.HOT_RE.finditer(body):
                self.hot_methods.add(f"{name}::{m.group(1)}")
        # Free functions: DASCHED_HOT outside any class span.
        spans = [(s, e) for _n, s, e, _h in self._class_spans(clean)]
        for m in self.HOT_RE.finditer(clean):
            if not any(s <= m.start() < e for s, e in spans):
                self.hot_methods.add(f"::{m.group(1)}")

    def scan_const_casts(self, path, observer_files):
        if path not in observer_files:
            return
        try:
            with open(path, "r", errors="replace") as f:
                lines = f.read().splitlines()
        except OSError:
            return
        for lineno, line in enumerate(lines, 1):
            code = line.split("//", 1)[0]
            if "const_cast" in code:
                self.const_cast_sites.setdefault(path, []).append(lineno)

    def is_suppressed(self, path, line, rule):
        table = self.suppressions.get(path)
        return bool(table) and rule in table.get(line, ())

    def observer_classes(self):
        # Pure interfaces (DiskObserver itself, etc.) never enter
        # structural_observers: their class heads derive from nothing.
        return self.passive_classes | self.structural_observers


# --------------------------------------------------------------------------
# Rule evaluation over one parsed TU
# --------------------------------------------------------------------------


def method_key_of(gimple_name):
    """Maps 'dasched::Foo::bar' -> ('Foo', 'bar'); None for free functions."""
    # Drop template argument lists so A<B>::f splits cleanly.
    depth = 0
    flat = []
    prev = ""
    for ch in gimple_name:
        if ch == "<" and prev not in "-<":
            depth += 1
        elif ch == ">" and prev not in "->" and depth > 0:
            depth -= 1
        elif depth == 0:
            flat.append(ch)
        prev = ch
    parts = "".join(flat).split("::")
    if len(parts) >= 2:
        return parts[-2], parts[-1]
    return None


def is_project_path(path, roots):
    return path is not None and any(
        os.path.abspath(path).startswith(r) for r in roots
    )


def in_hot_set(func_name, hot_methods):
    key = method_key_of(func_name)
    if key and f"{key[0]}::{key[1]}" in hot_methods:
        return True
    tail = func_name.rsplit("::", 1)[-1]
    return f"::{tail}" in hot_methods and "::" not in func_name.replace(
        "::" + tail, ""
    )


def check_tu(functions, model, roots, relpath):
    findings = []
    by_name = functions

    # ---- hot-alloc: BFS from every hot root ----------------------------
    for root_name, root in by_name.items():
        if not in_hot_set(root_name, model.hot_methods):
            continue
        seen = {root_name}
        # queue holds (function, attribution site): the project call site
        # whose edge led here, so findings point at code the user can edit.
        queue = [(root, None)]
        reported = set()
        while queue:
            fn, attrib = queue.pop()
            for callee, nargs, file, line in fn.calls:
                site = (
                    (file, line)
                    if is_project_path(file, roots)
                    else attrib
                )
                if site and model.is_suppressed(site[0], site[1], "hot-alloc"):
                    continue
                base = callee.split("<", 1)[0]
                if callee in ALLOC_CALLEES or base in ALLOC_CALLEES:
                    if callee.startswith("operator new") and nargs >= 2:
                        continue  # placement form: no allocation
                    loc = site or (file, line)
                    if loc in reported:
                        continue
                    reported.add(loc)
                    findings.append(
                        Finding(
                            "hot-alloc",
                            relpath(loc[0]),
                            loc[1],
                            root_name,
                            f"allocation ({callee}) reachable from "
                            f"DASCHED_HOT {root_name}",
                        )
                    )
                    continue
                if callee not in seen and callee in by_name:
                    seen.add(callee)
                    queue.append((by_name[callee], site or attrib))

    # ---- per-call rules ------------------------------------------------
    for fn_name, fn in by_name.items():
        fn_is_project = is_project_path(fn.file, roots)
        key = method_key_of(fn_name)
        fn_in_observer = bool(key) and key[0] in model.observer_classes()
        for callee, nargs, file, line in fn.calls:
            if not is_project_path(file, roots):
                continue
            site_file, site_line = file, line

            def emit(rule, message):
                if not model.is_suppressed(site_file, site_line, rule):
                    findings.append(
                        Finding(rule, relpath(site_file), site_line,
                                fn_name, message)
                    )

            base = callee.split("<", 1)[0].strip()
            if base in NONDET_CALLEES or any(
                p.search(callee) for p in NONDET_CALLEE_PATTERNS
            ):
                emit(
                    "nondet-source",
                    f"nondeterminism source {base or callee}() called "
                    f"from {fn_name}",
                )
            if UNORDERED_ITER_RE.search(callee):
                emit(
                    "nondet-unordered-iter",
                    f"iteration over unordered container in {fn_name} "
                    "(iteration order is not deterministic across "
                    "libstdc++ versions)",
                )
            if PTR_SORT_RE.search(callee) and (
                "**" in callee or re.search(r"std::less<[^>]*\*\s*>", callee)
            ):
                emit(
                    "nondet-ptr-sort-key",
                    f"sort over pointer keys in {fn_name} (pointer order "
                    "depends on allocation addresses)",
                )
            if fn_is_project and fn_in_observer:
                ckey = method_key_of(callee)
                if (
                    ckey
                    and ckey[0] in SIM_STATE_CLASSES
                    and ckey in model.declared_methods
                    and ckey not in model.const_methods
                    and ckey[1] != ckey[0]  # constructors are fine
                    and not ckey[1].startswith("~")
                ):
                    emit(
                        "observer-nonconst",
                        f"observer {key[0]}::{key[1]} calls non-const "
                        f"{ckey[0]}::{ckey[1]} on simulation state",
                    )
    return findings


# --------------------------------------------------------------------------
# trace-pod probe
# --------------------------------------------------------------------------


def check_trace_pod(gxx, include_dirs, header, type_name, relpath):
    probe = (
        f'#include "{header}"\n'
        "#include <cstddef>\n"
        "#include <type_traits>\n"
        f"static_assert(sizeof({type_name}) == 32,\n"
        f'              "{type_name} must stay exactly 32 bytes");\n'
        f"static_assert(std::is_trivially_copyable_v<{type_name}>,\n"
        f'              "{type_name} must stay trivially copyable");\n'
        f"static_assert(std::is_standard_layout_v<{type_name}>,\n"
        f'              "{type_name} must stay standard-layout");\n'
    )
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cc", delete=False
    ) as f:
        f.write(probe)
        probe_path = f.name
    try:
        cmd = [gxx, "-std=c++20", "-fsyntax-only"] + [
            f"-I{d}" for d in include_dirs
        ] + [probe_path]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            detail = next(
                (
                    l.split("error:", 1)[1].strip()
                    for l in proc.stderr.splitlines()
                    if "error:" in l
                ),
                "probe failed to compile",
            )
            return [
                Finding(
                    "trace-pod",
                    relpath(header),
                    1,
                    type_name,
                    f"POD layout contract violated: {detail}",
                )
            ]
        return []
    finally:
        os.unlink(probe_path)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def check_sim_state_classes(model, src_root):
    """One finding per SIM_STATE_CLASSES entry with no declaration in src/."""
    with open(__file__) as f:
        entry_lines = {
            line.strip().rstrip(","): lineno
            for lineno, line in enumerate(f.read().splitlines(), 1)
        }
    findings = []
    for cls in sorted(SIM_STATE_CLASSES):
        path = model.class_files.get(cls, "")
        if not path.startswith(src_root + os.sep):
            findings.append(
                Finding(
                    "stale-sim-state-class", LINT_RELPATH,
                    entry_lines.get(f'"{cls}"', 0), cls,
                    f"SIM_STATE_CLASSES lists '{cls}', but no class of that "
                    "name is declared under src/; observer-nonconst does "
                    "not cover it",
                )
            )
    return findings


def load_baseline(path):
    keys = set()
    if path and os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) == 3:
                    keys.add(tuple(parts))
    return keys


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dasched_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--compile-commands",
                    help="path to compile_commands.json")
    ap.add_argument("--tu", action="append", default=[],
                    help="analyze this standalone TU (repeatable)")
    ap.add_argument("--flags", default="",
                    help="compiler flags for --tu files")
    ap.add_argument("--filter", default=r"/(src|tools)/",
                    help="regex selecting TUs from the compile db")
    ap.add_argument("--baseline",
                    help="accepted-findings file (rule<TAB>file<TAB>symbol)")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write current findings as the new baseline")
    ap.add_argument("--expect", choices=ALL_RULES,
                    help="fixture mode: succeed iff RULE fires")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--gxx", default=os.environ.get("CXX", "g++"))
    ap.add_argument("--root", default=None,
                    help="project root (default: cwd or git toplevel)")
    ap.add_argument("--pod-header", default="telemetry/events.h")
    ap.add_argument("--pod-type", default="dasched::TraceEvent")
    ap.add_argument("--no-pod-check", action="store_true")
    ap.add_argument("--report", help="also write findings to this file")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root or os.getcwd())
    src_root = os.path.join(root, "src")
    roots = [root]

    def relpath(p):
        p = os.path.abspath(p)
        return os.path.relpath(p, root) if p.startswith(root) else p

    # ---- gather TUs ----------------------------------------------------
    tus = []  # (source_path, flags, workdir)
    if args.compile_commands:
        with open(args.compile_commands) as f:
            db = json.load(f)
        pat = re.compile(args.filter)
        for entry in db:
            src = entry["file"]
            if not pat.search(src):
                continue
            tus.append((src, flags_from_command(entry),
                        entry.get("directory", root)))
    extra_flags = shlex.split(args.flags)
    for tu in args.tu:
        tus.append((os.path.abspath(tu), extra_flags, root))
    if not tus and not args.expect == "trace-pod":
        if not args.compile_commands and not args.tu:
            ap.error("need --compile-commands or --tu")

    # ---- source model --------------------------------------------------
    model = SourceModel()
    scan_files = []
    for base in (src_root, os.path.join(root, "tools")):
        for dirpath, _dirs, files in os.walk(base):
            for name in files:
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    scan_files.append(os.path.join(dirpath, name))
    for tu, _f, _d in tus:
        if tu not in scan_files:
            scan_files.append(tu)
    for path in scan_files:
        model.scan_file(path)
    observer_files = {
        model.class_files[c]
        for c in model.observer_classes()
        if c in model.class_files
    }
    # Implementation files of observer headers (foo.h -> foo.cc).
    observer_files |= {
        f[:-2] + ".cc" for f in list(observer_files) if f.endswith(".h")
    }
    for path in scan_files:
        model.scan_const_casts(path, observer_files)

    # ---- run the TUs ---------------------------------------------------
    findings = []

    def analyze(tu):
        src, flags, workdir = tu
        functions = run_gimple_dump(args.gxx, src, flags, workdir)
        if functions is None:
            return [
                Finding("hot-alloc", relpath(src), 0, "<compile>",
                        "TU failed to compile under the lint front-end")
            ]
        return check_tu(functions, model, roots, relpath)

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as ex:
        for result in ex.map(analyze, tus):
            findings.extend(result)

    # ---- textual + probe rules ----------------------------------------
    for path, lines in model.const_cast_sites.items():
        for line in lines:
            if not model.is_suppressed(path, line, "observer-const-cast"):
                findings.append(
                    Finding(
                        "observer-const-cast", relpath(path), line,
                        os.path.basename(path),
                        "const_cast in an observer implementation "
                        "(observers must stay passive)",
                    )
                )

    findings.extend(check_sim_state_classes(model, src_root))

    if not args.no_pod_check:
        include_dirs = [src_root]
        for tu in args.tu:
            include_dirs.append(os.path.dirname(os.path.abspath(tu)))
        findings.extend(
            check_trace_pod(args.gxx, include_dirs, args.pod_header,
                            args.pod_type, relpath)
        )

    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    # ---- fixture mode --------------------------------------------------
    if args.expect:
        hits = [f for f in findings if f.rule == args.expect]
        for f in hits:
            print(f.render())
        if hits:
            print(f"dasched_lint: --expect {args.expect}: "
                  f"{len(hits)} finding(s), as expected")
            return 0
        print(f"dasched_lint: --expect {args.expect}: rule did not fire",
              file=sys.stderr)
        return 1

    # ---- baseline ------------------------------------------------------
    if args.write_baseline:
        with open(args.write_baseline, "w") as f:
            f.write("# dasched_lint baseline: rule<TAB>file<TAB>symbol\n")
            f.write("# Regenerate with --write-baseline; entries here are\n")
            f.write("# accepted pre-existing findings, not an allow-list\n")
            f.write("# for new code.  Prefer inline allow() comments.\n")
            for key in sorted({f.key() for f in findings}):
                f.write("\t".join(key) + "\n")
        print(f"dasched_lint: wrote {len({f.key() for f in findings})} "
              f"baseline entries to {args.write_baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    fresh = [f for f in findings if f.key() not in baseline]
    suppressed = len(findings) - len(fresh)

    out_lines = [f.render() for f in fresh]
    for line in out_lines:
        print(line)
    if args.report:
        with open(args.report, "w") as f:
            f.write("\n".join(out_lines) + ("\n" if out_lines else ""))
    print(
        f"dasched_lint: {len(tus)} TU(s), {len(fresh)} finding(s)"
        + (f", {suppressed} baselined" if suppressed else "")
    )
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
