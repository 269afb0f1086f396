#!/usr/bin/env python3
"""Repo-specific invariant linter -- layer 3 of the static-analysis gate.

The clang thread-safety build proves lock contracts and clang-tidy catches
generic bug patterns; this script enforces the invariants that are about
*this* repo's architecture and that no general-purpose tool can know:

  raw-mutex       Concurrency primitives (std::mutex, std::lock_guard,
                  std::scoped_lock, std::unique_lock, std::shared_lock,
                  std::condition_variable[_any], pthread mutexes) may not
                  appear outside src/common/annotations.hpp. Everything
                  locks through the annotated sys::Mutex / sys::MutexLock /
                  sys::CondVar wrappers so the clang Thread Safety Analysis
                  sees every acquisition. (std::once_flag / call_once are
                  fine: they carry no guarded state of their own.)

  jsonl-helpers   JSONL rows are built by svc/jsonl.hpp's Row/field
                  helpers, never by hand. Streaming or appending a string
                  literal that contains a raw JSON key fragment ("\":") is
                  hand-rolled row emission -- it bypasses the escaping and
                  the key-ordering discipline the byte-identity tests pin.

  wall-pairing    The "wall_ms" and "cache_hit" JSONL keys are rendered in
                  exactly one place (src/svc/study_report.cpp provenance
                  block) and always together: cache_hit only ever rides in
                  rows that carry wall_ms, so wall-free rows -- the
                  byte-identity currency for wire/journal/merge/stream
                  paths -- can never change bytes on a memo hit.

  signal-handler  A signal handler body may contain nothing but lock-free
                  atomic .store() statements (POSIX XSH 2.4.3
                  async-signal-safety; see src/common/signals.cpp).

  layering        The analysis layers (src/core, src/rt, src/hier) include
                  nothing from the service or network layers (svc/, net/).
                  Those sit on top: svc caches BatchEngines and net serves
                  svc, so an include pointing down-to-up would let a
                  single-system analysis read or fill the process-wide
                  memo and engine cache.

Suppress a finding with a justification comment on the same line or the
line above:  // lint: allow(<rule>) <why>

Usage: lint_invariants.py [PATH...]   (default: src tools tests)
Exits 0 when clean, 1 with one "file:line: [rule] message" per finding.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Files that ARE the sanctioned implementation of a rule's subject.
RAW_MUTEX_SANCTIONED = {"src/common/annotations.hpp"}
JSONL_SANCTIONED = {"src/svc/jsonl.hpp", "src/svc/jsonl.cpp", "src/svc/rows.cpp"}
WALL_PAIR_SANCTIONED = {"src/svc/study_report.cpp"}
# Directories whose files may not include the layers listed after them.
LOWER_LAYERS = ("src/core/", "src/rt/", "src/hier/")
UPPER_INCLUDE = re.compile(r'^\s*#\s*include\s*"(?P<path>(?:svc|net)/[^"]*)"')

RAW_MUTEX_TOKENS = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
    r"|\bpthread_(?:mutex|cond)_"
)

# A string literal holding a raw JSON key fragment, being streamed (<<) or
# appended (+=). fprintf-style whole-document reports (bench_report's JSON
# summary) are a different artifact class and are not row emission.
JSONL_HAND_ROLLED = re.compile(r'(?:<<|\+=)\s*"(?:[^"\\]|\\.)*\\":')

WALL_KEY = re.compile(r'"wall_ms"')
HIT_KEY = re.compile(r'"cache_hit"')

ALLOW = re.compile(r"//\s*lint:\s*allow\((?P<rule>[a-z-]+)\)")

SIGNAL_HANDLER_DEF = re.compile(r'extern\s+"C"\s+void\s+\w+\s*\(\s*int\b[^)]*\)\s*\{')
ATOMIC_STORE_STMT = re.compile(r"^\w+\.store\(.+\)$")


def strip_comments(lines: list[str]) -> list[str]:
    """Blank out // and /* */ comment text, preserving line structure."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        in_str = False
        while i < len(line):
            ch = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if in_str:
                result.append(ch)
                if ch == "\\" and i + 1 < len(line):
                    result.append(line[i + 1])
                    i += 2
                    continue
                if ch == '"':
                    in_str = False
                i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch == '"':
                in_str = True
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


class Findings:
    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: pathlib.Path, lineno: int, rule: str, msg: str) -> None:
        rel = path.resolve()
        try:
            rel = rel.relative_to(REPO)
        except ValueError:
            pass
        self.items.append(f"{rel}:{lineno}: [{rule}] {msg}")


def allowed(raw: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) carries or follows an allow comment."""
    for line in (raw[idx], raw[idx - 1] if idx > 0 else ""):
        m = ALLOW.search(line)
        if m and m.group("rule") == rule:
            return True
    return False


def rel_key(path: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(REPO).as_posix()
    except ValueError:
        return path.as_posix()


def check_raw_mutex(path, raw, code, findings):
    if rel_key(path) in RAW_MUTEX_SANCTIONED:
        # Still honor the discipline inside the sanctioned file: its own
        # primitives carry explicit allow comments, so a *new* unannotated
        # primitive there is flagged too.
        pass
    for idx, line in enumerate(code):
        m = RAW_MUTEX_TOKENS.search(line)
        if not m:
            continue
        if allowed(raw, idx, "raw-mutex"):
            continue
        findings.add(
            path, idx + 1, "raw-mutex",
            f"{m.group(0)} outside the annotated wrappers -- use sys::Mutex / "
            "sys::MutexLock / sys::CondVar from common/annotations.hpp so the "
            "clang thread-safety analysis sees this acquisition")


def check_jsonl_helpers(path, raw, code, findings):
    if rel_key(path) in JSONL_SANCTIONED:
        return
    for idx, line in enumerate(raw):
        if not JSONL_HAND_ROLLED.search(line):
            continue
        if allowed(raw, idx, "jsonl-helpers"):
            continue
        findings.add(
            path, idx + 1, "jsonl-helpers",
            "hand-rolled JSON key emission -- build rows with svc/jsonl.hpp "
            "Row::field / svc/rows.hpp so escaping and key order stay uniform")


def check_wall_pairing(path, raw, code, findings):
    key = rel_key(path)
    wall_lines = [i for i, l in enumerate(raw) if WALL_KEY.search(l)]
    hit_lines = [i for i, l in enumerate(raw) if HIT_KEY.search(l)]
    if key not in WALL_PAIR_SANCTIONED:
        for idx in wall_lines + hit_lines:
            if allowed(raw, idx, "wall-pairing"):
                continue
            findings.add(
                path, idx + 1, "wall-pairing",
                'the "wall_ms"/"cache_hit" keys may only be rendered by the '
                "provenance block in src/svc/study_report.cpp -- route new "
                "rows through it")
        return
    for idx in hit_lines:
        if allowed(raw, idx, "wall-pairing"):
            continue
        if not any(abs(idx - w) <= 2 for w in wall_lines):
            findings.add(
                path, idx + 1, "wall-pairing",
                '"cache_hit" rendered away from "wall_ms" -- a hit may only '
                "be recorded in rows that also carry wall_ms, or wall-free "
                "rows lose byte identity on memo hits")


def check_signal_handler(path, raw, code, findings):
    text = "\n".join(code)
    for m in SIGNAL_HANDLER_DEF.finditer(text):
        start = m.end()  # position just past the opening brace
        depth = 1
        pos = start
        while pos < len(text) and depth:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        body = text[start:pos - 1]
        body_line0 = text.count("\n", 0, start)
        for off, stmt_line in enumerate(body.split("\n")):
            stmt = stmt_line.strip().rstrip(";").strip()
            if not stmt:
                continue
            idx = body_line0 + off
            if ATOMIC_STORE_STMT.match(stmt):
                continue
            if allowed(raw, idx, "signal-handler"):
                continue
            findings.add(
                path, idx + 1, "signal-handler",
                f"'{stmt}' in a signal handler -- handlers may only store "
                "into lock-free atomics (POSIX XSH 2.4.3 async-signal-"
                "safety; see src/common/signals.cpp)")


def check_layering(path, raw, code, findings):
    if not rel_key(path).startswith(LOWER_LAYERS):
        return
    for idx, line in enumerate(raw):
        m = UPPER_INCLUDE.match(line)
        if not m:
            continue
        if allowed(raw, idx, "layering"):
            continue
        findings.add(
            path, idx + 1, "layering",
            f'#include "{m.group("path")}" in an analysis layer -- src/core, '
            "src/rt and src/hier may not depend on svc/ or net/; move the "
            "caller up a layer or the shared code down")


CHECKS = [check_raw_mutex, check_jsonl_helpers, check_wall_pairing,
          check_signal_handler, check_layering]
EXTENSIONS = {".cpp", ".hpp", ".cc", ".h"}


def lint_file(path: pathlib.Path, findings: Findings) -> None:
    raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    code = strip_comments(raw)
    for check in CHECKS:
        check(path, raw, code, findings)


def collect(paths: list[str]) -> list[pathlib.Path]:
    files = []
    for arg in paths:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.suffix in EXTENSIONS))
        elif p.suffix in EXTENSIONS:
            files.append(p)
    return files


def main(argv: list[str]) -> int:
    roots = argv[1:] or [str(REPO / "src"), str(REPO / "tools"),
                         str(REPO / "tests")]
    findings = Findings()
    files = collect(roots)
    if not files:
        print("lint_invariants: no input files", file=sys.stderr)
        return 2
    for path in files:
        lint_file(path, findings)
    for item in findings.items:
        print(item)
    if findings.items:
        print(f"lint_invariants: {len(findings.items)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
