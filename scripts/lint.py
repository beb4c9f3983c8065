#!/usr/bin/env python3
# Copyright 2026 The gpssn Authors.
"""Repo-specific lint checks that clang-tidy cannot express.

Rules (each finding prints `path:line: [rule] message`, exit status 1):

  raw-new-delete   No raw `new` / `delete` in src/ outside src/common/.
                   Ownership lives behind containers and smart pointers;
                   src/common is the only layer allowed to manage raw
                   storage (e.g. intentionally-leaked singletons).
  ignored-status   A bare statement calling a method that returns Status /
                   Result<T> (harvested from src/**/*.h) discards the error.
                   Use GPSSN_CHECK_OK / GPSSN_RETURN_NOT_OK / assignment.
  include-hygiene  Quoted includes must be src-root-relative (matching the
                   `target_include_directories(... src)` convention): no
                   `./` or `../`, and the path must resolve under src/ or
                   next to the including file (bench/test helpers).
  header-guard     Headers use `#ifndef GPSSN_<PATH>_H_` guards derived
                   from their path (src-relative for src/, repo-relative
                   elsewhere); `#pragma once` is banned for consistency.
  naked-mutex      Raw std synchronization vocabulary (std::mutex,
                   std::lock_guard, std::unique_lock, std::condition_variable
                   and friends, plus their <mutex>/<shared_mutex>/
                   <condition_variable> includes) is confined to
                   src/common/sync.* — everything else must use the
                   capability-annotated wrappers (Mutex, MutexLock, CondVar)
                   so Clang Thread-Safety Analysis covers it.
  relaxed-justification
                   Every `std::memory_order_relaxed` must carry a same-line
                   `// gpssn-lint: relaxed(<reason>)` tag saying why relaxed
                   ordering is sound there (monotone counter, cooperative
                   flag with an external barrier, ...).
  lock-order       Named mutexes declare their acquisition order in
                   `gpssn-lock-order: a -> b -> c` comments (collected from
                   the scanned tree). Nested MutexLock / ReaderMutexLock /
                   WriterMutexLock scopes are checked lexically against the
                   declared (transitively closed) order: reacquiring a held
                   name, reversing a declared edge, or nesting a pair with
                   no declared order is a finding.

Suppress a finding by putting `gpssn-lint: allow(<rule>)` in a comment on
the offending line.

`--self-test` runs the engine against the golden fixture tree under
tests/lint/fixtures/ and verifies the exact finding set, so the linter
itself is covered by ctest.
"""

import argparse
import pathlib
import re
import sys

RULES = ("raw-new-delete", "ignored-status", "include-hygiene",
         "header-guard", "naked-mutex", "relaxed-justification",
         "lock-order")

# Directories scanned in a normal run, relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".cc", ".cpp"}

ALLOW_RE = re.compile(r"gpssn-lint:\s*allow\(([\w,\s-]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line breaks.

    Good enough for line-oriented lexical checks; raw strings are treated
    like ordinary strings (the repo does not use R"(...)" delimiters with
    embedded quotes).
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; never valid C++, recover anyway
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allowed_rules(raw_line):
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def relpath(path, root):
    return path.relative_to(root).as_posix()


# --------------------------------------------------------------------------
# Rule: raw-new-delete
# --------------------------------------------------------------------------

NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b")
DELETED_FN_RE = re.compile(r"=\s*delete\b")  # deleted special members are fine


def check_raw_new_delete(path, root, raw_lines, code_lines, findings):
    rel = relpath(path, root)
    if not rel.startswith("src/") or rel.startswith("src/common/"):
        return
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if "raw-new-delete" in allowed_rules(raw):
            continue
        if NEW_RE.search(code):
            findings.append(Finding(rel, lineno, "raw-new-delete",
                                    "raw `new` outside src/common/"))
        if DELETE_RE.search(DELETED_FN_RE.sub("", code)):
            findings.append(Finding(rel, lineno, "raw-new-delete",
                                    "raw `delete` outside src/common/"))


# --------------------------------------------------------------------------
# Rule: ignored-status
# --------------------------------------------------------------------------

# A declaration whose return type is Status or Result<...>; captures the
# function name. Template args never contain `;`/`{` in this codebase.
STATUS_DECL_RE = re.compile(
    r"\b(?:Status|Result<[^;{}]*?>)\s+([A-Za-z_]\w*)\s*\(")

# Names that collide with std/gtest vocabulary or are locally shadowed by
# non-Status functions; calling these bare is checked by the type system
# via [[nodiscard]] instead.
STATUS_NAME_BLOCKLIST = {"swap", "at", "get"}

USE_MARKERS = ("=", "return ", "GPSSN_CHECK_OK", "GPSSN_RETURN_NOT_OK",
               "GPSSN_ASSIGN_OR_RETURN", "GPSSN_CHECK", "(void)", "EXPECT_",
               "ASSERT_", "if ", "if(", "while ", "while(", "for ", "for(",
               "?", "&&", "||")


def harvest_status_methods(root):
    names = set()
    src = root / "src"
    if not src.is_dir():
        return names
    for path in sorted(src.rglob("*.h")):
        code = strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        for m in STATUS_DECL_RE.finditer(code):
            name = m.group(1)
            if name not in STATUS_NAME_BLOCKLIST:
                names.add(name)
    return names


def check_ignored_status(path, root, raw_lines, code_lines, findings,
                         status_names):
    rel = relpath(path, root)
    if path.suffix not in (".cc", ".cpp"):
        return
    if not status_names:
        return
    call_re = re.compile(
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*(" +
        "|".join(re.escape(n) for n in sorted(status_names)) + r")\s*\(")
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if "ignored-status" in allowed_rules(raw):
            continue
        m = call_re.match(code)
        if not m:
            continue
        if any(marker in code for marker in USE_MARKERS):
            continue
        # The statement must close on this line: match the call's parens
        # and require only `;` afterwards (chained `.ok()` etc. handled by
        # the markers above; multi-line statements are skipped --
        # conservative, but keeps the check free of false positives).
        open_idx = code.index("(", m.start(1))
        depth, close_idx = 0, -1
        for i in range(open_idx, len(code)):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    close_idx = i
                    break
        if close_idx < 0:
            continue
        if code[close_idx + 1:].strip() != ";":
            continue
        findings.append(Finding(
            rel, lineno, "ignored-status",
            f"result of `{m.group(1)}()` (Status/Result) is discarded"))


# --------------------------------------------------------------------------
# Rule: include-hygiene
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_include_hygiene(path, root, raw_lines, code_lines, findings):
    rel = relpath(path, root)
    for lineno, raw in enumerate(raw_lines, 1):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        if "include-hygiene" in allowed_rules(raw):
            continue
        inc = m.group(1)
        if inc.startswith("./") or inc.startswith("../") or "/../" in inc:
            findings.append(Finding(
                rel, lineno, "include-hygiene",
                f'relative include "{inc}" (use a src-root-relative path)'))
            continue
        if (root / "src" / inc).is_file() or (path.parent / inc).is_file():
            continue
        # Repo-root-relative (e.g. "bench/bench_util.h") is also accepted,
        # matching target_include_directories(${CMAKE_SOURCE_DIR}).
        if (root / inc).is_file():
            continue
        findings.append(Finding(
            rel, lineno, "include-hygiene",
            f'include "{inc}" does not resolve under src/ or '
            "next to the including file"))


# --------------------------------------------------------------------------
# Rule: header-guard
# --------------------------------------------------------------------------

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)")


def expected_guard(path, root):
    rel = path.relative_to(root)
    parts = rel.parts
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    return "GPSSN_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def check_header_guard(path, root, raw_lines, code_lines, findings):
    rel = relpath(path, root)
    if path.suffix != ".h":
        return
    want = expected_guard(path, root)
    ifndef = None
    define_ok = False
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if "header-guard" in allowed_rules(raw):
            return
        if PRAGMA_ONCE_RE.match(code):
            findings.append(Finding(
                rel, lineno, "header-guard",
                f"`#pragma once` is banned; use `#ifndef {want}` guards"))
            return
        if ifndef is None:
            m = IFNDEF_RE.match(code)
            if m:
                ifndef = (lineno, m.group(1))
                continue
        elif not define_ok:
            m = DEFINE_RE.match(code)
            if m and m.group(1) == ifndef[1]:
                define_ok = True
    if ifndef is None:
        findings.append(Finding(
            rel, 1, "header-guard", f"missing include guard `{want}`"))
    elif ifndef[1] != want:
        findings.append(Finding(
            rel, ifndef[0], "header-guard",
            f"guard `{ifndef[1]}` does not match path (expected `{want}`)"))
    elif not define_ok:
        findings.append(Finding(
            rel, ifndef[0], "header-guard",
            f"`#ifndef {want}` is not followed by `#define {want}`"))


# --------------------------------------------------------------------------
# Rule: naked-mutex
# --------------------------------------------------------------------------

NAKED_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")
SYNC_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s+<(?:mutex|shared_mutex|condition_variable)>")


def check_naked_mutex(path, root, raw_lines, code_lines, findings):
    rel = relpath(path, root)
    # The wrapper layer itself is the one legitimate home of the raw
    # primitives (its uses still carry allow() tags as documentation).
    if rel.startswith("src/common/sync."):
        return
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if "naked-mutex" in allowed_rules(raw):
            continue
        m = NAKED_SYNC_RE.search(code)
        if m is None and SYNC_INCLUDE_RE.match(code):
            m = SYNC_INCLUDE_RE.match(code)
        if m:
            findings.append(Finding(
                rel, lineno, "naked-mutex",
                "raw std synchronization primitive outside src/common/sync.* "
                "(use the annotated Mutex/MutexLock/CondVar wrappers)"))


# --------------------------------------------------------------------------
# Rule: relaxed-justification
# --------------------------------------------------------------------------

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_TAG_RE = re.compile(r"gpssn-lint:\s*relaxed\(([^)]*\S[^)]*)\)")


def check_relaxed_justification(path, root, raw_lines, code_lines, findings):
    rel = relpath(path, root)
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if not RELAXED_RE.search(code):
            continue
        if "relaxed-justification" in allowed_rules(raw):
            continue
        if RELAXED_TAG_RE.search(raw):
            continue
        findings.append(Finding(
            rel, lineno, "relaxed-justification",
            "memory_order_relaxed without a same-line "
            "`gpssn-lint: relaxed(<reason>)` justification"))


# --------------------------------------------------------------------------
# Rule: lock-order
# --------------------------------------------------------------------------

LOCK_ORDER_DECL_RE = re.compile(r"gpssn-lock-order:\s*([\w\s>-]+?)\s*$")
SCOPED_LOCK_RE = re.compile(
    r"\b(?:MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+\s*\(([^)]*)\)")


def canonical_mutex_name(arg):
    """`slot->mu` / `shard.mu` / `&mu_` -> the member's own name."""
    arg = arg.strip().lstrip("&*").strip()
    for sep in ("->", ".", "::"):
        if sep in arg:
            arg = arg.rsplit(sep, 1)[1]
    return arg.strip()


def harvest_lock_order(root, files):
    """Declared edges, transitively closed: order[(a, b)] means a before b."""
    edges = set()
    for path in files:
        for raw in path.read_text(encoding="utf-8",
                                  errors="replace").splitlines():
            m = LOCK_ORDER_DECL_RE.search(raw)
            if not m:
                continue
            names = [n.strip() for n in m.group(1).split("->")]
            names = [n for n in names if n]
            for a, b in zip(names, names[1:]):
                edges.add((a, b))
    # Transitive closure (the declared chains are tiny).
    changed = True
    while changed:
        changed = False
        for a, b in list(edges):
            for c, d in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    return edges


def check_lock_order(path, root, raw_lines, code_lines, findings, order):
    rel = relpath(path, root)
    depth = 0
    held = []  # (canonical name, depth at declaration)
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        # Interleave brace and lock-declaration events in column order so a
        # lock's scope is the block it is declared in.
        events = [(i, c) for i, c in enumerate(code) if c in "{}"]
        for m in SCOPED_LOCK_RE.finditer(code):
            events.append((m.start(), m))
        events.sort(key=lambda e: e[0])
        for _, ev in events:
            if ev == "{":
                depth += 1
            elif ev == "}":
                depth -= 1
                while held and held[-1][1] > depth:
                    held.pop()
            else:
                name = canonical_mutex_name(ev.group(1))
                if not name:
                    continue
                if "lock-order" in allowed_rules(raw):
                    held.append((name, depth))
                    continue
                for held_name, _ in held:
                    if held_name == name:
                        findings.append(Finding(
                            rel, lineno, "lock-order",
                            f"`{name}` is already held by an enclosing "
                            "scope (reacquisition self-deadlocks)"))
                    elif (name, held_name) in order:
                        findings.append(Finding(
                            rel, lineno, "lock-order",
                            f"acquiring `{name}` while holding "
                            f"`{held_name}` reverses the declared order "
                            f"`{name} -> {held_name}`"))
                    elif (held_name, name) not in order:
                        findings.append(Finding(
                            rel, lineno, "lock-order",
                            f"nested acquisition `{held_name}` -> `{name}` "
                            "has no declared order (add a "
                            "`gpssn-lock-order:` comment)"))
                held.append((name, depth))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def iter_files(root):
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = relpath(path, root)
            if rel.startswith("tests/lint/fixtures/"):
                continue  # the fixtures contain violations on purpose
            yield path


def lint_tree(root):
    root = root.resolve()
    status_names = harvest_status_methods(root)
    files = list(iter_files(root))
    lock_order = harvest_lock_order(root, files)
    findings = []
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        code_lines = strip_comments_and_strings(text).splitlines()
        # Pad so zip never truncates (stripping preserves line count, but
        # be defensive about a missing trailing newline).
        while len(code_lines) < len(raw_lines):
            code_lines.append("")
        check_raw_new_delete(path, root, raw_lines, code_lines, findings)
        check_ignored_status(path, root, raw_lines, code_lines, findings,
                             status_names)
        check_include_hygiene(path, root, raw_lines, code_lines, findings)
        check_header_guard(path, root, raw_lines, code_lines, findings)
        check_naked_mutex(path, root, raw_lines, code_lines, findings)
        check_relaxed_justification(path, root, raw_lines, code_lines,
                                    findings)
        check_lock_order(path, root, raw_lines, code_lines, findings,
                         lock_order)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def run_self_test(repo_root):
    fixtures = repo_root / "tests" / "lint" / "fixtures"
    expected_file = repo_root / "tests" / "lint" / "expected.txt"
    ok = True

    clean_findings = lint_tree(fixtures / "clean")
    if clean_findings:
        ok = False
        print("self-test: clean fixture tree produced findings:")
        for f in clean_findings:
            print(f"  {f}")

    got = [f"{f.path}:{f.line}: [{f.rule}]" for f in
           lint_tree(fixtures / "violations")]
    want = [ln.strip() for ln in
            expected_file.read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    if got != want:
        ok = False
        print("self-test: violations fixture mismatch")
        print("--- expected (tests/lint/expected.txt)")
        for w in want:
            print(f"  {w}")
        print("--- got")
        for g in got:
            print(f"  {g}")
    print("self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repo root to lint (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the golden fixture trees under tests/lint/"
                             " and diff against expected.txt")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(args.root)

    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
