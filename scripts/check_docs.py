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

4. Durability table: every number in the table of docs/OPERATIONS.md §3
   must equal the append_ms_p50 / _p99 / _p999 of the matching
   bench_streaming record in BENCH_k2hop.json, at the table's printed
   precision, so the table cannot drift from the committed ledger.

5. Knob table: the backticked K2_* names in the table of
   docs/OPERATIONS.md §2 must be exactly the K2_* environment variables
   the code reads — the string-literal first argument of a getenv( or
   Env*( call under src/ or bench/, or an os.environ / ${K2_...} read
   under scripts/ — so a knob can neither go undocumented nor outlive
   its code.

6. SIMD levels: the backticked values of the `K2_SIMD` row in that table
   must be exactly the level names simd::LevelName returns in
   src/common/simd.cc, so the documented values are the ones K2_SIMD
   accepts.

Exits non-zero with one line per violation.
"""

import json
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


OPERATIONS_DOC = ROOT / "docs" / "OPERATIONS.md"
LEDGER = ROOT / "BENCH_k2hop.json"
# Row label in the durability table -> (store, miner) of its record.
DURABILITY_ROWS = {
    "`memory`": ("memory", "k2hop-online"),
    "`lsmt` deferred WAL sync": ("lsmt", "k2hop-online"),
    "`lsmt` per-tick `fdatasync`": ("lsmt", "k2hop-online-durable"),
    "`lsmt` foreground compaction": ("lsmt", "k2hop-online-fg"),
}
DURABILITY_FIELDS = ("append_ms_p50", "append_ms_p99", "append_ms_p999")


def operations_section(number: int) -> str:
    """Section `## <number>.` of docs/OPERATIONS.md, up to the next one."""
    text = OPERATIONS_DOC.read_text()
    start = text.find(f"\n## {number}.")
    return text[start:text.find("\n## ", start + 1)]


def check_durability_table() -> list[str]:
    problems = []
    records = {
        (r.get("store"), r.get("miner")): r
        for r in json.loads(LEDGER.read_text())["records"]
        if r.get("bench") == "bench_streaming"
    }
    section = operations_section(3)
    seen = set()
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        label = cells[0]
        if label not in DURABILITY_ROWS or len(cells) < 4:
            continue
        seen.add(label)
        store, miner = DURABILITY_ROWS[label]
        record = records.get((store, miner))
        if record is None:
            problems.append(f"BENCH_k2hop.json: no bench_streaming record "
                            f"for {store} {miner} (OPERATIONS §3 {label})")
            continue
        for cell, field in zip(cells[1:4], DURABILITY_FIELDS):
            decimals = len(cell.partition(".")[2])
            want = f"{record[field]:.{decimals}f}"
            if cell != want:
                problems.append(
                    f"docs/OPERATIONS.md §3: {label} {field} reads {cell}, "
                    f"but BENCH_k2hop.json has {record[field]} ({want})")
    for label in DURABILITY_ROWS:
        if label not in seen:
            problems.append(f"docs/OPERATIONS.md §3: durability table has "
                            f"no {label} row")
    return problems


CODE_KNOB_RE = re.compile(r"\b(?:getenv|Env\w*)\s*\(\s*\"(K2_\w+)\"")
SCRIPT_KNOB_RE = re.compile(
    r"os\.environ(?:\.get\s*\(|\s*\[)\s*[\"'](K2_\w+)|\$\{(K2_\w+)")
TABLE_KNOB_RE = re.compile(r"`(K2_\w+)`")


def knobs_read() -> dict[str, str]:
    """K2_* variable -> the first file:line that reads it."""
    found = {}
    sources = [(top, CODE_KNOB_RE) for top in ("src", "bench")]
    sources.append(("scripts", SCRIPT_KNOB_RE))
    for top, pattern in sources:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or path.suffix not in (
                    ".cc", ".h", ".py", ".sh"):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for match in pattern.finditer(line):
                    name = next(g for g in match.groups() if g)
                    found.setdefault(
                        name, f"{path.relative_to(ROOT)}:{lineno}")
    return found


def check_knob_table() -> list[str]:
    documented = set()
    for line in operations_section(2).splitlines():
        if line.startswith("|"):
            documented.update(TABLE_KNOB_RE.findall(line.split("|")[1]))
    read = knobs_read()
    problems = [f"{where}: reads {name}, which the knob table of "
                f"docs/OPERATIONS.md §2 does not list"
                for name, where in sorted(read.items())
                if name not in documented]
    problems += [f"docs/OPERATIONS.md §2: lists {name}, which no code reads"
                 for name in sorted(documented - read.keys())]
    return problems


SIMD_SOURCE = ROOT / "src" / "common" / "simd.cc"
LEVEL_NAME_RE = re.compile(r"case\s+Level::\w+:\s*return\s+\"(\w+)\";")
TABLE_CELL_SPLIT_RE = re.compile(r"(?<!\\)\|")  # a cell may hold `\|`
TABLE_VALUE_RE = re.compile(r"`([^`]+)`")


def check_simd_levels() -> list[str]:
    text = SIMD_SOURCE.read_text()
    start = text.find("const char* LevelName(Level level) {")
    names = LEVEL_NAME_RE.findall(text[start:text.find("\n}\n", start)])
    if start < 0 or not names:
        return [f"{SIMD_SOURCE.relative_to(ROOT)}: no level names parsed "
                f"from simd::LevelName"]
    for line in operations_section(2).splitlines():
        cells = [c.strip() for c in
                 TABLE_CELL_SPLIT_RE.split(line.strip().strip("|"))]
        if cells[0] != "`K2_SIMD`" or len(cells) < 2:
            continue
        documented = TABLE_VALUE_RE.findall(cells[1])
        if sorted(documented) == sorted(names):
            return []
        return [f"docs/OPERATIONS.md §2: K2_SIMD lists "
                f"{', '.join(documented)}, but simd::LevelName returns "
                f"{', '.join(names)}"]
    return ["docs/OPERATIONS.md §2: the knob table has no `K2_SIMD` row"]


def main() -> int:
    problems = (check_protocol_doc() + check_links() + check_cited_docs() +
                check_durability_table() + check_knob_table() +
                check_simd_levels())
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: protocol spec covers every enumerator; all links, "
          "cited documents, the durability table, the knob table and the "
          "SIMD levels ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
