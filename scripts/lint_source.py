#!/usr/bin/env python3
"""Source lint for the E-morphic sources (see docs/correctness.md).

The repo's results must be bit-reproducible across runs, machines, and
thread counts; this lint catches the three C++ patterns that historically
break that promise, plus a layering rule and a dead-code rule:

  unordered-iteration   Range-for over a std::unordered_map/set declared in
                        the same file. Hash-table iteration order is
                        unspecified and varies across libstdc++ versions and
                        ASLR runs, so it must never feed an output ordering —
                        either iterate a sorted view or waive the line with a
                        reason explaining why the order cannot escape
                        (order-independent accumulation, error-path-only, ...).

  nondeterministic-seed rand()/srand()/time()/std::random_device/
                        address-derived values used as seeds. All randomness
                        must flow from util/rng.hpp with an explicit seed.

  stdout-in-library     std::cout/printf in src/: library code reports
                        through return values and structured results, never
                        the process's stdout (the service daemon shares it).
                        Examples and benches are free to print.

  include-layering      A file under src/{aig,sat,egraph,cec,opt,extract,
                        mapper}/ includes flow/, service/, core/ or ml/.
                        Dependencies point one way (aig -> egraph/sat ->
                        opt/extract/mapper -> flow -> service); a lower layer
                        that needs an upper one gets split instead.

  orphan-header         A src/**/*.hpp that no file under src/, bench/,
                        examples/ or perfbench/src/ includes. Code only the
                        tests reach is dead weight; delete it, or waive the
                        header's `#pragma once` line with the reason it
                        exists (e.g. a test-only seam).

  thread-in-library     A ThreadPool or std::thread held by value (an object,
                        a container element, an optional) or a std::thread /
                        std::jthread / std::async call, in src/ outside
                        util/thread_pool.*. Threads are spent only where they
                        measurably pay (docs/architecture.md, "Parallelism"),
                        so every site that starts one carries a waiver naming
                        the knob it serves; pointers and references to a
                        caller's pool are free.

Waiver syntax (same line or the line directly above):

    // lint:allow(<rule>) <reason>

The reason is mandatory: a waiver without one is itself a finding. Exit
status is 0 when clean, 1 when any finding survives.

Usage: scripts/lint_source.py [--root DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

RULES = ("unordered-iteration", "nondeterministic-seed", "stdout-in-library",
         "include-layering", "orphan-header", "thread-in-library")

# Where an include keeps a src/ header alive (tests deliberately excluded).
INCLUDER_DIRS = ("src", "bench", "examples", "perfbench/src")

WAIVER_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)\s*(.*)$")

# Greedy <...> so nested template arguments (e.g. std::vector<Var> values)
# stay inside the bracket match.
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*&?\s*"
    r"(\w+)\s*[;={(,)]"
)
RANGE_FOR_RE = re.compile(r"for\s*\(.*?:\s*([A-Za-z_]\w*(?:\.\w+|->\w+)?)\s*\)")

SEED_PATTERNS = (
    (re.compile(r"\bsrand\s*\("), "srand() seeds global state"),
    (re.compile(r"(?<!\w)rand\s*\(\s*\)"), "rand() is non-reproducible"),
    (re.compile(r"\bstd::time\s*\(|(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "wall-clock used as a value"),
    (re.compile(r"\bstd::random_device\b"), "random_device is non-deterministic"),
    (re.compile(r"reinterpret_cast<\s*(?:std::)?u?int(?:ptr)?(?:64)?_t\s*>\s*\(\s*(?:this|&)"),
     "object address used as a value (ASLR-dependent)"),
)

# The layers below flow/ and the upper layers they must never include.
LOWER_LAYERS = ("aig", "sat", "egraph", "cec", "opt", "extract", "mapper")
UPPER_INCLUDE_RE = re.compile(r'#include\s+"((?:flow|service|core|ml)/[^"]*)"')

# A thread or pool by value, or a call that starts a thread. `std::thread::`
# (hardware_concurrency, id), `ThreadPool*`/`&` and the forward declaration
# start nothing.
THREAD_PATTERNS = (
    (re.compile(r"\bstd::j?thread\b(?!\s*(?:::|[&*]))"),
     "std::thread in library code"),
    (re.compile(r"\bstd::async\s*\("), "std::async in library code"),
    (re.compile(r"(?<![\w:])(?<!class )ThreadPool\b(?!\s*(?:::|[&*;]))"),
     "ThreadPool by value in library code"),
)
THREAD_EXEMPT = ("src/util/thread_pool.hpp", "src/util/thread_pool.cpp")

STDOUT_PATTERNS = (
    (re.compile(r"\bstd::cout\b"), "std::cout in library code"),
    (re.compile(r"(?<![\w:.])printf\s*\("), "printf in library code"),
)


def strip_strings(line: str) -> str:
    """Blank out string/char literals so their contents cannot match rules."""
    out = []
    quote = None
    i = 0
    while i < len(line):
        c = line[i]
        if quote is None:
            if c in "\"'":
                quote = c
            out.append(c)
        else:
            if c == "\\":
                out.append("..")
                i += 2
                continue
            if c == quote:
                quote = None
                out.append(c)
            else:
                out.append(".")
        i += 1
    return "".join(out)


def code_part(line: str) -> str:
    """The line with string literals blanked and any // comment removed."""
    stripped = strip_strings(line)
    cut = stripped.find("//")
    return stripped[:cut] if cut >= 0 else stripped


class File:
    def __init__(self, path: pathlib.Path, root: pathlib.Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.lines = path.read_text(encoding="utf-8").splitlines()
        # Waivers indexed by the line they cover (their own and the next).
        self.waivers: dict[int, tuple[str, str, int]] = {}
        self.findings: list[tuple[int, str, str]] = []
        self.used_waivers: set[int] = set()
        for idx, line in enumerate(self.lines):
            m = WAIVER_RE.search(line)
            if m:
                rule, reason = m.group(1), m.group(2).strip()
                self.waivers[idx] = (rule, reason, idx)
                self.waivers[idx + 1] = (rule, reason, idx)

    def report(self, idx: int, rule: str, message: str) -> None:
        waiver = self.waivers.get(idx)
        if waiver is not None and waiver[0] == rule:
            if not waiver[1]:
                self.findings.append(
                    (waiver[2], "waiver-without-reason",
                     f"waiver for {rule} carries no reason"))
            self.used_waivers.add(waiver[2])
            return
        self.findings.append((idx, rule, message))


def unordered_names(lines: list[str]) -> set[str]:
    names = set()
    for line in lines:
        for m in UNORDERED_DECL_RE.finditer(code_part(line)):
            names.add(m.group(1))
    return names


def lint_file(f: File, names: set[str], check_stdout: bool) -> None:
    layer = f.rel.split("/")[1]
    for idx, raw in enumerate(f.lines):
        m = UPPER_INCLUDE_RE.match(raw.strip())
        if m and layer in LOWER_LAYERS:
            f.report(idx, "include-layering",
                     f"src/{layer}/ includes \"{m.group(1)}\" — a lower "
                     "layer must not depend on flow/, service/, core/ or ml/")
        line = code_part(raw)
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(1)
            leaf = re.split(r"\.|->", expr)[-1]
            if leaf in names:
                f.report(idx, "unordered-iteration",
                         f"range-for over unordered container '{expr}' — "
                         "hash order must not feed output ordering "
                         "(sort first, or waive with the reason the order "
                         "cannot escape)")
        for pattern, why in SEED_PATTERNS:
            if pattern.search(line):
                f.report(idx, "nondeterministic-seed", why)
        if check_stdout:
            for pattern, why in STDOUT_PATTERNS:
                if pattern.search(line):
                    f.report(idx, "stdout-in-library", why)
        if f.rel not in THREAD_EXEMPT:
            for pattern, why in THREAD_PATTERNS:
                if pattern.search(line):
                    f.report(idx, "thread-in-library",
                             f"{why}: waive it naming the knob it serves")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()

    src = root / "src"
    if not src.is_dir():
        print(f"lint_source: no src/ under {root}", file=sys.stderr)
        return 2

    files = [File(path, root) for path in sorted(src.rglob("*"))
             if path.suffix in (".cpp", ".hpp", ".h", ".cc")]
    names_by_rel = {f.rel: {n for n in unordered_names(f.lines)
                            if len(n) >= 3}
                    for f in files}

    # Headers included (by their src/-relative path) from program code.
    included: set[str] = set()
    for d in INCLUDER_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                m = re.match(r'\s*#include\s+"([^"]+)"', line)
                if m:
                    included.add(m.group(1))

    # A file's unordered names: its own declarations plus those of the src/
    # headers it directly #includes — members are declared in headers but
    # iterated in .cpp files, so file-local scoping would miss exactly the
    # interesting cases, while a global pool flags ordered locals that
    # happen to share a name with some unrelated file's hash map.
    include_re = re.compile(r'#include\s+"([^"]+)"')

    total = 0
    for f in files:
        names = set(names_by_rel[f.rel])
        for line in f.lines:
            m = include_re.match(line.strip())
            if m:
                names |= names_by_rel.get("src/" + m.group(1), set())
        lint_file(f, names, check_stdout=True)
        header = f.rel[len("src/"):]
        if f.rel.endswith(".hpp") and header not in included:
            idx = next((i for i, line in enumerate(f.lines)
                        if line.strip() == "#pragma once"), 0)
            f.report(idx, "orphan-header",
                     f"no file under {', '.join(INCLUDER_DIRS)} includes "
                     f"\"{header}\"")
        for idx in sorted(f.waivers[k][2] for k in f.waivers):
            if idx not in f.used_waivers and idx in f.waivers \
                    and f.waivers[idx][2] == idx:
                f.findings.append(
                    (idx, "unused-waiver",
                     f"waiver for {f.waivers[idx][0]} matches no finding"))
        # Deduplicate (a finding can register once per overlapping scan).
        seen = set()
        for idx, rule, message in sorted(f.findings):
            key = (idx, rule)
            if key in seen:
                continue
            seen.add(key)
            print(f"{f.rel}:{idx + 1}: [{rule}] {message}")
            total += 1

    if total:
        print(f"\nlint_source: {total} finding(s). See docs/correctness.md "
              "for the waiver syntax.", file=sys.stderr)
        return 1
    print("lint_source: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
