#!/usr/bin/env python3
"""Source lint for the E-morphic sources (see docs/correctness.md).

The repo's results must be bit-reproducible across runs, machines, and
thread counts; this lint catches the three C++ patterns that historically
break that promise, plus a layering rule, two dead-code rules and a
thread-site rule:

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
                        mapper}/ includes flow/, service/, core/ or ml/, or
                        a file under src/util/ includes a project header
                        outside util/. Dependencies point one way (util ->
                        aig -> egraph/sat -> opt/extract/mapper -> flow ->
                        service); a lower layer that needs an upper one gets
                        split instead.

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

  unreferenced-declaration
                        A namespace-scope function declared in src/**/*.hpp
                        that no file under src/, bench/, examples/,
                        perfbench/src/ or tests/ names outside its own
                        .hpp/.cpp pair (a use elsewhere in its own header
                        counts). Dead, or used only by its own .cpp, where
                        it belongs in an anonymous namespace. Waive the
                        declaration's line with the reason it is public.

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
         "include-layering", "orphan-header", "thread-in-library",
         "unreferenced-declaration")

# Where an include keeps a src/ header alive (tests deliberately excluded).
INCLUDER_DIRS = ("src", "bench", "examples", "perfbench/src")
# Where a use keeps a declared function alive (tests count: a test seam
# declared in a header is public on purpose).
REFERENCE_DIRS = INCLUDER_DIRS + ("tests",)
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")

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
# The bottom layer: src/util/ may include only its own headers.
NON_UTIL_INCLUDE_RE = re.compile(r'#include\s+"((?!util/)[^"]*)"')

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


def strip_comments(lines: list[str]) -> list[str]:
    """Code lines with string literals blanked and // and /* */ comments
    removed (line structure kept, so indices still match the file)."""
    out = []
    in_block = False
    for line in lines:
        line = strip_strings(line)
        kept = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            elif line.startswith("//", i):
                break
            else:
                kept.append(line[i])
                i += 1
        out.append("".join(kept))
    return out


NOT_A_FUNCTION_RE = re.compile(
    r"^(?:using|typedef|struct|class|enum|union|namespace|friend|"
    r"static_assert|extern\s+\"|template\s*<\s*>)\b")
NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def drop_template_heads(text: str) -> str:
    """Remove `template <...>` heads (nested angle brackets included)."""
    while True:
        m = re.search(r"\btemplate\s*<", text)
        if not m:
            return text
        depth, i = 1, m.end()
        while i < len(text) and depth:
            depth += {"<": 1, ">": -1}.get(text[i], 0)
            i += 1
        text = text[:m.start()] + " " + text[i:]


def declared_function(statement: str) -> str | None:
    """The name a namespace-scope statement declares as a function, if any."""
    text = re.sub(r"\[\[[^\]]*\]\]", " ", drop_template_heads(statement))
    text = " ".join(text.split())
    if not text or NOT_A_FUNCTION_RE.match(text):
        return None
    depth = 0
    for i, c in enumerate(text):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "=" and depth == 0:
            return None  # a variable with an initializer
        elif c == "(" and depth == 0:
            m = NAME_BEFORE_PAREN_RE.search(text[:i])
            # A return type must precede the name; operators are used
            # implicitly, so they never count as unreferenced.
            if not m or not text[:m.start()].strip() or \
                    text[:m.start()].rstrip().endswith("::") or \
                    m.group(1) == "operator" or "operator" in text[:i]:
                return None
            return m.group(1)
    return None


def namespace_functions(code: list[str]) -> list[tuple[int, str]]:
    """(line index, name) of every function declared or defined at namespace
    scope in a header's comment-free code lines."""
    found = []
    scopes: list[bool] = []  # True for a namespace (or extern "C") brace
    statement, start = "", None
    in_directive = False
    for idx, line in enumerate(code):
        stripped = line.strip()
        if in_directive or stripped.startswith("#"):
            in_directive = stripped.endswith("\\")
            continue
        for c in line:
            at_namespace_scope = all(scopes)
            if c == "{":
                is_namespace = at_namespace_scope and bool(re.match(
                    r"^\s*(?:inline\s+)?(?:namespace\b[\w:\s]*|"
                    r"extern\s+\"C\"\s*)$", statement))
                if at_namespace_scope and not is_namespace:
                    name = declared_function(statement)
                    if name is not None:
                        found.append((start, name))
                scopes.append(is_namespace)
                statement, start = "", None
            elif c == "}":
                if scopes:
                    scopes.pop()
                statement, start = "", None
            elif c == ";":
                if at_namespace_scope:
                    name = declared_function(statement)
                    if name is not None:
                        found.append((start, name))
                statement, start = "", None
            elif at_namespace_scope:
                if start is None and not c.isspace():
                    start = idx
                statement += c
        if all(scopes):
            statement += " "
    return found


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
        m = NON_UTIL_INCLUDE_RE.match(raw.strip())
        if m and layer == "util":
            f.report(idx, "include-layering",
                     f"src/util/ includes \"{m.group(1)}\" — the bottom "
                     "layer may include only util/ headers")
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
             if path.suffix in SOURCE_SUFFIXES]
    names_by_rel = {f.rel: {n for n in unordered_names(f.lines)
                            if len(n) >= 3}
                    for f in files}

    # Headers included (by their src/-relative path) from program code.
    included: set[str] = set()
    for d in INCLUDER_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
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

    # Word counts of every file that can keep a declared function alive,
    # comments excluded.
    word_re = re.compile(r"[A-Za-z_]\w*")
    words_by_rel: dict[str, dict[str, int]] = {}
    for d in REFERENCE_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            counts: dict[str, int] = {}
            text = path.read_text(encoding="utf-8").splitlines()
            for line in strip_comments(text):
                for word in word_re.findall(line):
                    counts[word] = counts.get(word, 0) + 1
            words_by_rel[path.relative_to(root).as_posix()] = counts

    def unreferenced(f: File) -> list[tuple[int, str]]:
        code = strip_comments(f.lines)
        declared = namespace_functions(code)
        pair = {f.rel, f.rel[:-len(".hpp")] + ".cpp"}
        out = []
        for idx, name in declared:
            own = words_by_rel.get(f.rel, {}).get(name, 0)
            declarations = sum(1 for _, n in declared if n == name)
            if own > declarations:
                continue  # used elsewhere in its own header
            if any(counts.get(name, 0)
                   for rel, counts in words_by_rel.items()
                   if rel not in pair):
                continue
            out.append((idx, name))
        return out

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
        if f.rel.endswith(".hpp"):
            for idx, name in unreferenced(f):
                f.report(idx, "unreferenced-declaration",
                         f"'{name}' is named by no file outside its own "
                         ".hpp/.cpp pair: delete it, or make it file-local")
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
