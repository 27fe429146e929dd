#!/usr/bin/env python3
"""Project-specific structural lints for the k2 tree.

clang-tidy and the thread-safety analysis catch language-level mistakes;
this linter enforces k2's own cross-file contracts — the rules a reviewer
would otherwise have to re-check by hand on every PR:

  validate-mining-params      every public miner entry point (a free
                              function named Mine*) calls
                              ValidateMiningParams before touching data,
                              and one that takes a Store* also returns
                              that store's status() — a store whose
                              recovery failed must not mine as empty —
                              and checks its time_range() with
                              ValidateTickRange, so a tick loop near
                              INT32_MAX cannot wrap
  no-atomic-shared-ptr        std::atomic<std::shared_ptr<...>> is banned
                              (libstdc++ implements it with a spinlock;
                              the serving layer's SnapshotCell exists
                              precisely to avoid that — see
                              src/serve/catalog.h)
  lsm-io-through-env          write-path file IO inside src/storage/lsm/
                              goes through the Env seam, never raw
                              fopen/open — otherwise the fault-injection
                              crash matrix silently stops covering it
  bench-key-hardware-independent
                              bench code never derives values from
                              std::thread::hardware_concurrency without a
                              justification, because a recorded row keyed
                              by host parallelism breaks cross-host
                              snapshot comparison (scripts/bench_compare.py)
  protocol-enum-coverage      every MessageType / WireError enumerator in
                              protocol.h is handled somewhere in
                              protocol.cc (name tables, decoder, fatality
                              classification)
  nolint-format               clang-tidy suppressions must name the check
                              and justify it: "NOLINT(check): reason".
                              A bare NOLINT silences everything forever.
  no-naked-no-analysis        every K2_NO_THREAD_SAFETY_ANALYSIS carries a
                              nearby prose comment containing the word
                              "invariant" explaining why the unchecked
                              access cannot race

Deliberate exceptions are written in the code, next to the code:

    // k2-lint: allow(<rule>): <justification>

The allowance must name the rule and give a non-empty justification; it
covers findings on the same line or within the next three lines (so a
two-line comment directly above the construct works).

Usage:  scripts/lint_k2.py [--root DIR]
Exits non-zero and prints `file:line: [rule] message` per finding.
"""

import argparse
import os
import re
import sys

ALLOW_RE = re.compile(r"//\s*k2-lint:\s*allow\(([a-z0-9-]+)\)\s*:\s*(\S.*)")
ALLOW_BAD_RE = re.compile(r"//\s*k2-lint:")
# An allowance on line N covers findings on lines N..N+ALLOW_SPAN.
ALLOW_SPAN = 3

MINER_DEF_RE = re.compile(
    r"^(?:Result<[^;{}]*>|Status)\s+(Mine[A-Z]\w*)\s*\(", re.MULTILINE
)
STORE_PARAM_RE = re.compile(r"\bStore\s*\*\s*(\w+)")
ATOMIC_SHARED_RE = re.compile(r"std::atomic\s*<\s*std::shared_ptr")
RAW_IO_RE = re.compile(r"(?:\bfopen\s*\(|::open\s*\(|\bcreat\s*\()")
HWC_RE = re.compile(r"hardware_concurrency")
NOLINT_RE = re.compile(r"NOLINT")
NOLINT_OK_RE = re.compile(r"NOLINT(?:NEXTLINE)?\([\w.,*-]+\)\s*:\s*\S")
NO_ANALYSIS_RE = re.compile(r"K2_NO_THREAD_SAFETY_ANALYSIS")
ENUM_RE = re.compile(r"enum\s+class\s+(MessageType|WireError)[^{]*\{([^}]*)\}",
                     re.DOTALL)
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*=", re.MULTILINE)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text):
    """Blanks out // and /* */ comments, preserving line structure (every
    newline survives so line numbers keep matching the original)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            # Skip string/char literals so quoted "// ..." is not a comment.
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(text[i])
                    i += 1
                if i < n:
                    out.append(text[i] if text[i] != "\n" else "\n")
                    i += 1
            if i < n:
                out.append(text[i])
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root, relpath):
        self.rel = relpath
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            self.text = f.read()
        self.code = strip_comments(self.text)
        self.lines = self.text.splitlines()
        self.code_lines = self.code.splitlines()
        # rule -> set of covered line numbers (1-based).
        self.allowances = {}
        self.bad_allowances = []
        for lineno, line in enumerate(self.lines, 1):
            m = ALLOW_RE.search(line)
            if m:
                covered = self.allowances.setdefault(m.group(1), set())
                covered.update(range(lineno, lineno + ALLOW_SPAN + 1))
            elif ALLOW_BAD_RE.search(line):
                self.bad_allowances.append(lineno)

    def allowed(self, rule, lineno):
        return lineno in self.allowances.get(rule, set())

    def line_of_offset(self, offset):
        # Offsets come from self.code; stripping preserves newlines, so
        # counting them there maps back to original line numbers.
        return self.code.count("\n", 0, offset) + 1


def walk_sources(root, subdirs, exts=(".h", ".cc")):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def function_body(code, open_paren):
    """Given the offset of a definition's opening '(', returns (body, end)
    of the brace-delimited body, or (None, None) for a declaration."""
    depth, i = 0, open_paren
    while i < len(code):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    i += 1
    while i < len(code) and (code[i].isspace() or
                             code.startswith(("const", "noexcept"), i)):
        i += 5 if code.startswith("const", i) else \
            8 if code.startswith("noexcept", i) else 1
    if i >= len(code) or code[i] != "{":
        return None, None
    depth, start = 0, i
    while i < len(code):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[start:i + 1], i
        i += 1
    return None, None


def check_validate_mining_params(sf, findings):
    if not sf.rel.endswith(".cc"):
        return
    for m in MINER_DEF_RE.finditer(sf.code):
        name = m.group(1)
        lineno = sf.line_of_offset(m.start())
        open_paren = sf.code.index("(", m.start())
        body, end = function_body(sf.code, open_paren)
        if body is None:
            continue  # declaration
        if sf.allowed("validate-mining-params", lineno):
            continue
        if "ValidateMiningParams" not in body:
            findings.append(Finding(
                sf.rel, lineno, "validate-mining-params",
                f"public miner entry {name}() never calls "
                "ValidateMiningParams; validate first or add a justified "
                "k2-lint allowance"))
        signature = sf.code[open_paren:end - len(body) + 1]
        for store in STORE_PARAM_RE.findall(signature):
            if not re.search(r"\b" + store + r"->status\(\)", body):
                findings.append(Finding(
                    sf.rel, lineno, "validate-mining-params",
                    f"public miner entry {name}() never checks "
                    f"{store}->status(); a store whose recovery failed "
                    "would mine as empty"))
            if not re.search(r"ValidateTickRange\(\s*" + store +
                             r"->time_range\(\)", body):
                findings.append(Finding(
                    sf.rel, lineno, "validate-mining-params",
                    f"public miner entry {name}() never checks "
                    f"ValidateTickRange({store}->time_range(), ...); a "
                    "tick loop near INT32_MAX would wrap"))


def check_atomic_shared_ptr(sf, findings):
    for lineno, line in enumerate(sf.code_lines, 1):
        if ATOMIC_SHARED_RE.search(line):
            if sf.allowed("no-atomic-shared-ptr", lineno):
                continue
            findings.append(Finding(
                sf.rel, lineno, "no-atomic-shared-ptr",
                "std::atomic<std::shared_ptr> is a libstdc++ spinlock in "
                "disguise; use the SnapshotCell pattern "
                "(src/serve/catalog.h) instead"))


def check_lsm_raw_io(sf, findings):
    if not sf.rel.startswith(os.path.join("src", "storage", "lsm") + os.sep):
        return
    for lineno, line in enumerate(sf.code_lines, 1):
        if RAW_IO_RE.search(line):
            if sf.allowed("lsm-io-through-env", lineno):
                continue
            findings.append(Finding(
                sf.rel, lineno, "lsm-io-through-env",
                "raw file IO inside src/storage/lsm/ bypasses the Env "
                "fault-injection seam; route it through Env (common/env.h) "
                "or justify with a k2-lint allowance"))


def check_bench_hardware_keys(sf, findings):
    if not sf.rel.startswith("bench" + os.sep):
        return
    for lineno, line in enumerate(sf.code_lines, 1):
        if HWC_RE.search(line):
            if sf.allowed("bench-key-hardware-independent", lineno):
                continue
            findings.append(Finding(
                sf.rel, lineno, "bench-key-hardware-independent",
                "hardware_concurrency in bench code risks keying a "
                "recorded row by host parallelism, which breaks "
                "bench_compare.py across machines; justify with a k2-lint "
                "allowance stating why no record key derives from it"))


def check_nolint_format(sf, findings):
    for lineno, line in enumerate(sf.lines, 1):
        if NOLINT_RE.search(line) and not NOLINT_OK_RE.search(line):
            findings.append(Finding(
                sf.rel, lineno, "nolint-format",
                "bare NOLINT silences every check with no audit trail; "
                "write NOLINT(<check>): <reason>"))


def check_no_analysis_invariant(sf, findings):
    if sf.rel.endswith(os.path.join("common", "thread_annotations.h")):
        return  # the definition site
    for lineno, line in enumerate(sf.code_lines, 1):
        if not NO_ANALYSIS_RE.search(line):
            continue
        window = sf.lines[max(0, lineno - 11):lineno]
        if any("invariant" in w.lower() for w in window):
            continue
        if sf.allowed("no-naked-no-analysis", lineno):
            continue
        findings.append(Finding(
            sf.rel, lineno, "no-naked-no-analysis",
            "K2_NO_THREAD_SAFETY_ANALYSIS without a nearby prose "
            "invariant: state, in a comment containing the word "
            "'invariant', why the unchecked access cannot race"))


def check_protocol_coverage(root, findings):
    header = os.path.join("src", "serve", "net", "protocol.h")
    impl = os.path.join("src", "serve", "net", "protocol.cc")
    if not os.path.exists(os.path.join(root, header)):
        return
    with open(os.path.join(root, header), encoding="utf-8") as f:
        header_text = strip_comments(f.read())
    try:
        with open(os.path.join(root, impl), encoding="utf-8") as f:
            impl_text = strip_comments(f.read())
    except FileNotFoundError:
        findings.append(Finding(header, 1, "protocol-enum-coverage",
                                "protocol.h has no protocol.cc next to it"))
        return
    for m in ENUM_RE.finditer(header_text):
        enum_name, body = m.group(1), m.group(2)
        for e in ENUMERATOR_RE.finditer(body):
            qualified = f"{enum_name}::{e.group(1)}"
            if qualified not in impl_text:
                lineno = header_text.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    header, lineno, "protocol-enum-coverage",
                    f"{qualified} is declared on the wire but never "
                    "handled in protocol.cc — name table, decoder, and "
                    "fatality classification must all know it"))


def check_allowance_syntax(sf, findings):
    for lineno in sf.bad_allowances:
        findings.append(Finding(
            sf.rel, lineno, "nolint-format",
            "malformed k2-lint comment; write "
            "`// k2-lint: allow(<rule>): <justification>`"))


def run(root, subdirs=("src", "tests", "bench", "tools", "examples")):
    findings = []
    for rel in walk_sources(root, subdirs):
        sf = SourceFile(root, rel)
        check_allowance_syntax(sf, findings)
        check_validate_mining_params(sf, findings)
        check_atomic_shared_ptr(sf, findings)
        check_lsm_raw_io(sf, findings)
        check_bench_hardware_keys(sf, findings)
        check_nolint_format(sf, findings)
        check_no_analysis_invariant(sf, findings)
    check_protocol_coverage(root, findings)
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="tree to lint (default: the repo this script lives in)")
    args = parser.parse_args()
    findings = run(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_k2: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_k2: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
