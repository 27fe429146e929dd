#!/usr/bin/env python3
"""Documentation cross-checks, run in CI.

1. Protocol coverage: every MessageType and WireError enumerator declared in
   src/serve/net/protocol.h must be mentioned by name in
   docs/WIRE_PROTOCOL.md, so the normative spec can never silently fall
   behind the implementation when a new message or error is added.

2. Link integrity: every relative markdown link in README.md and docs/*.md
   must resolve to a file that exists in the repo (external http(s) links
   and pure #anchors are skipped).

3. Cited documents: every `*.md` name cited in a file under src/, bench/,
   tests/ or scripts/ must resolve at the repo root, under docs/, or next
   to the citing file, so comments never point at a document that is gone.

Exits non-zero with one line per violation.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROTOCOL_H = ROOT / "src" / "serve" / "net" / "protocol.h"
WIRE_DOC = ROOT / "docs" / "WIRE_PROTOCOL.md"


def enumerators(header_text: str, enum_name: str) -> list[str]:
    """Enumerator names of `enum class <enum_name>` in a C++ header."""
    m = re.search(
        r"enum\s+class\s+" + re.escape(enum_name) + r"\b[^{]*\{(.*?)\}",
        header_text,
        re.DOTALL,
    )
    if not m:
        sys.exit(f"error: enum class {enum_name} not found in {PROTOCOL_H}")
    names = re.findall(r"^\s*(k\w+)\s*=", m.group(1), re.MULTILINE)
    if not names:
        sys.exit(f"error: no enumerators parsed for {enum_name}")
    return names


def check_protocol_doc() -> list[str]:
    problems = []
    if not WIRE_DOC.exists():
        return [f"{WIRE_DOC.relative_to(ROOT)}: missing"]
    header = PROTOCOL_H.read_text()
    doc = WIRE_DOC.read_text()
    for enum_name in ("MessageType", "WireError"):
        for name in enumerators(header, enum_name):
            if name not in doc:
                problems.append(
                    f"docs/WIRE_PROTOCOL.md: {enum_name}::{name} is in "
                    f"protocol.h but never mentioned in the spec"
                )
    return problems


# [text](target) — excluding images is unnecessary; image targets must
# resolve too. Inline code spans are stripped first so examples like
# `[id](file)` in prose do not count.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
FENCE_RE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)


def check_links() -> list[str]:
    problems = []
    docs = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    for doc in docs:
        if not doc.exists():
            continue
        text = FENCE_RE.sub("", doc.read_text())
        text = CODE_SPAN_RE.sub("", text)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(ROOT)}: broken relative link "
                    f"({target})"
                )
    return problems


MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
CITING_DIRS = ("src", "bench", "tests", "scripts")


def check_cited_docs() -> list[str]:
    problems = []
    for top in CITING_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file():
                continue
            try:
                text = path.read_text()
            except UnicodeDecodeError:
                continue  # binary fixture
            bases = (ROOT, ROOT / "docs", path.parent)
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in MD_NAME_RE.findall(line):
                    if not any((base / name).is_file() for base in bases):
                        problems.append(
                            f"{path.relative_to(ROOT)}:{lineno}: cites "
                            f"{name}, which resolves neither at the repo "
                            f"root, under docs/, nor next to the file"
                        )
    return problems


def main() -> int:
    problems = check_protocol_doc() + check_links() + check_cited_docs()
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: protocol spec covers every enumerator; all links "
          "and cited documents ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
