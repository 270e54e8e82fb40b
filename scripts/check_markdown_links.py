#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links and stale source-file names.

Scans every tracked *.md file for inline links/images and reference
definitions, resolves repo-relative and file-relative targets, and exits
nonzero listing any target that does not exist. External links (http/https/
mailto) and pure in-page anchors are ignored; anchors on intra-repo links
are checked against the target file's headings.

README.md and docs/*.md are also scanned for backticked *.hpp / *.cpp /
*.py names outside fenced code blocks. A name resolves when it exists
repo-relative or src/-relative, or when some file under src/, bench/,
tests/, examples/ or scripts/ ends with it (a bare basename included).
CHANGES.md and ROADMAP.md are history and are not scanned for names.

Usage: scripts/check_markdown_links.py [repo_root]
"""

import os
import re
import sys

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s*(\S+)", re.MULTILINE)
HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
SOURCE_NAME = re.compile(r"^[\w./-]+\.(?:hpp|cpp|py)$")
SOURCE_DIRS = ("src", "bench", "tests", "examples", "scripts")


def slugify(heading: str) -> str:
    """GitHub-style anchor slug (close enough for our headings)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def markdown_files(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in {".git", "build"} and not d.startswith("build")
        ]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def anchors_of(path: str) -> set:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return set()
    return {slugify(h) for h in HEADING.findall(text)}


def source_paths(root: str) -> list:
    paths = []
    for top in SOURCE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
            paths.extend(f"/{rel}/{name}" for name in filenames)
    return paths


def stale_source_names(root: str) -> list:
    """Backticked source-file names in README.md and docs/*.md that
    resolve to no file."""
    docs = os.path.join(root, "docs")
    scanned = [os.path.join(root, "README.md")]
    if os.path.isdir(docs):
        scanned += sorted(os.path.join(docs, name)
                          for name in os.listdir(docs) if name.endswith(".md"))
    paths = source_paths(root)
    errors = []
    for md_path in scanned:
        if not os.path.exists(md_path):
            continue
        with open(md_path, encoding="utf-8") as handle:
            text = FENCE.sub("", handle.read())
        rel_md = os.path.relpath(md_path, root)
        for name in sorted(set(CODE_SPAN.findall(text))):
            if not SOURCE_NAME.match(name):
                continue
            if (os.path.exists(os.path.join(root, name))
                    or os.path.exists(os.path.join(root, "src", name))
                    or any(p.endswith("/" + name) for p in paths)):
                continue
            errors.append(f"{rel_md}: no file named '{name}'")
    return errors


def check(root: str) -> int:
    errors = stale_source_names(root)
    for md_path in sorted(markdown_files(root)):
        with open(md_path, encoding="utf-8") as handle:
            text = handle.read()
        rel_md = os.path.relpath(md_path, root)
        targets = INLINE_LINK.findall(text) + REFERENCE_DEF.findall(text)
        own_anchors = None
        for target in targets:
            if target.startswith(EXTERNAL) or target.startswith("<"):
                continue
            target, _, anchor = target.partition("#")
            if not target:  # pure in-page anchor
                if own_anchors is None:
                    own_anchors = anchors_of(md_path)
                if anchor and slugify(anchor) not in own_anchors:
                    errors.append(f"{rel_md}: missing anchor '#{anchor}'")
                continue
            if target.startswith("/"):
                resolved = os.path.join(root, target.lstrip("/"))
            else:
                resolved = os.path.join(os.path.dirname(md_path), target)
            resolved = os.path.normpath(resolved)
            if not os.path.exists(resolved):
                errors.append(f"{rel_md}: broken link '{target}'")
            elif anchor and resolved.endswith(".md"):
                if slugify(anchor) not in anchors_of(resolved):
                    errors.append(
                        f"{rel_md}: missing anchor '{target}#{anchor}'")
    if errors:
        print(f"{len(errors)} broken markdown link(s) or file name(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print("all intra-repo markdown links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1] if len(sys.argv) > 1 else os.getcwd()))
