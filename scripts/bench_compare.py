#!/usr/bin/env python3
"""Bench regression guard: diffs a fresh bench snapshot against a baseline.

Usage: bench_compare.py BASELINE.json FRESH.json [--tolerance X] [--min-ms Y]

Both files are bench_snapshot.sh outputs. Records are matched by
(bench, miner, store, m, k, eps) plus occurrence index (some benches emit
several records under one key, in deterministic order). The guard fails —
exit 1 — when:

  * the two snapshots were taken at different K2_BENCH_SCALEs
    (wall times and convoy counts are only comparable at equal scale);
  * a baseline record has no match in the fresh snapshot;
  * convoy counts differ (mining output is deterministic at equal scale:
    any drift is a correctness bug, no tolerance);
  * a logical work counter differs: io_stats.points_read,
    io_stats.point_queries, io_stats.scanned_points or
    validation_reclusterings. These count what the miner read and
    re-clustered, not how long it took, so they are as deterministic as
    the convoys and gated exactly; a field absent on either side is
    skipped;
  * a record's wall time exceeds baseline * tolerance (default 2.0,
    override with --tolerance or K2_BENCH_TIME_TOL), ignoring records
    where both sides are under --min-ms (default 5 ms, pure noise);
  * a mining-phase time (benchmark_ms, candidates_ms, hwmt_ms, merge_ms,
    extend_right_ms, extend_left_ms, validation_ms; the k/2-hop records
    carry them) exceeds baseline * tolerance, with the same --min-ms
    floor; a field absent on either side is skipped;
  * a latency-percentile field (any numeric key ending in _p50, _p99 or
    _p999, e.g. the streaming bench's append_ms_p99) exceeds baseline *
    tolerance, ignoring fields where both sides are under --min-pct-ms
    (default 1 ms). Tail percentiles guard the ingest path: a compaction
    or flush moving back onto the foreground shows up here first.

Records only present in the fresh snapshot (newly added benches) and large
speedups are reported but never fail the guard — regenerate and commit the
snapshot to make them the new baseline.
"""

import argparse
import json
import os
import sys
from collections import defaultdict


def load(path):
    """Loads a snapshot, failing with a clear message (not a traceback) when
    the file is missing or holds malformed JSON."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        sys.exit(f"bench_compare: {path} is not valid JSON "
                 f"(line {err.lineno} column {err.colno}: {err.msg}); "
                 "regenerate it with scripts/bench_snapshot.sh")
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        sys.exit(f"bench_compare: {path} is not a bench_snapshot.sh output "
                 "(expected an object with a 'records' array)")
    return doc


def keyed(records):
    """Maps (bench, miner, store, m, k, eps, occurrence) -> record."""
    counts = defaultdict(int)
    out = {}
    for rec in records:
        p = rec.get("params", {})
        base = (rec.get("bench"), rec.get("miner"), rec.get("store"),
                p.get("m"), p.get("k"), p.get("eps"))
        out[base + (counts[base],)] = rec
        counts[base] += 1
    return out


PERCENTILE_SUFFIXES = ("_p50", "_p99", "_p999")


def percentile_fields(base, live):
    """Sorted numeric latency-percentile keys present in both records."""
    fields = []
    for key, value in base.items():
        if (key.endswith(PERCENTILE_SUFFIXES)
                and isinstance(value, (int, float))
                and isinstance(live.get(key), (int, float))):
            fields.append(key)
    return sorted(fields)


EXACT_FIELDS = ("io_stats.points_read", "io_stats.point_queries",
                "io_stats.scanned_points", "validation_reclusterings")


def dotted(rec, path):
    """The value at a dotted path into a record, or None when absent."""
    for part in path.split("."):
        if not isinstance(rec, dict):
            return None
        rec = rec.get(part)
    return rec


PHASE_FIELDS = ("benchmark_ms", "candidates_ms", "hwmt_ms", "merge_ms",
                "extend_right_ms", "extend_left_ms", "validation_ms")


def timed_fields(base, live):
    """(label, baseline ms, fresh ms): the wall time, then every phase field
    that both records carry."""
    yield ("wall time", float(base.get("wall_ms", 0.0)),
           float(live.get("wall_ms", 0.0)))
    for field in PHASE_FIELDS:
        if (isinstance(base.get(field), (int, float))
                and isinstance(live.get(field), (int, float))):
            yield field, float(base[field]), float(live[field])


def fmt_key(key):
    bench, miner, store, m, k, eps, occ = key
    tag = f"{bench}/{miner}/{store} m={m} k={k} eps={eps}"
    return tag if occ == 0 else f"{tag} #{occ + 1}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("K2_BENCH_TIME_TOL", "2.0")),
        help="max allowed wall-time ratio fresh/baseline (default 2.0)")
    parser.add_argument(
        "--min-ms",
        type=float,
        default=5.0,
        help="skip wall-time checks when both sides are below this (ms)")
    parser.add_argument(
        "--min-pct-ms",
        type=float,
        default=1.0,
        help="skip percentile-field checks when both sides are below this (ms)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    notes = []

    if baseline.get("scale") != fresh.get("scale"):
        failures.append(
            f"scale mismatch: baseline {baseline.get('scale')} vs fresh "
            f"{fresh.get('scale')} — run bench_snapshot.sh at the baseline's "
            "K2_BENCH_SCALE")

    base_records = keyed(baseline.get("records", []))
    fresh_records = keyed(fresh.get("records", []))

    for key, base in sorted(base_records.items(), key=lambda kv: fmt_key(kv[0])):
        tag = fmt_key(key)
        live = fresh_records.get(key)
        if live is None:
            failures.append(f"{tag}: record missing from fresh snapshot")
            continue
        if base.get("convoys") != live.get("convoys"):
            failures.append(
                f"{tag}: convoy count drifted {base.get('convoys')} -> "
                f"{live.get('convoys')} (must be exact)")
        for name in EXACT_FIELDS:
            base_v, live_v = dotted(base, name), dotted(live, name)
            if base_v is not None and live_v is not None and base_v != live_v:
                failures.append(f"{tag}: {name} drifted {base_v} -> {live_v} "
                                "(must be exact)")
        for field in percentile_fields(base, live):
            base_p = float(base[field])
            live_p = float(live[field])
            if base_p < args.min_pct_ms and live_p < args.min_pct_ms:
                continue
            if live_p > base_p * args.tolerance:
                failures.append(
                    f"{tag}: {field} {base_p:.3f} ms -> {live_p:.3f} ms "
                    f"({live_p / max(base_p, 1e-9):.2f}x > "
                    f"{args.tolerance:.1f}x tolerance)")
        for label, base_ms, live_ms in timed_fields(base, live):
            if base_ms < args.min_ms and live_ms < args.min_ms:
                continue
            if live_ms > base_ms * args.tolerance:
                failures.append(
                    f"{tag}: {label} {base_ms:.1f} ms -> {live_ms:.1f} ms "
                    f"({live_ms / max(base_ms, 1e-9):.2f}x > "
                    f"{args.tolerance:.1f}x tolerance)")
            elif label == "wall time" and base_ms > live_ms * args.tolerance:
                notes.append(
                    f"{tag}: {live_ms / max(base_ms, 1e-9):.2f}x of baseline "
                    f"({base_ms:.1f} -> {live_ms:.1f} ms) — consider "
                    "committing a fresh snapshot")

    for key in sorted(set(fresh_records) - set(base_records), key=fmt_key):
        notes.append(f"{fmt_key(key)}: new record (not in baseline)")

    checked = len(base_records)
    print(f"bench_compare: {checked} baseline records, "
          f"{len(failures)} failure(s), {len(notes)} note(s); "
          f"tolerance {args.tolerance:.1f}x, floor {args.min_ms:.1f} ms")
    for note in notes:
        print(f"  note: {note}")
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
