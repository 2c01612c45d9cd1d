"""One-pass multi-cuboid ingestion vs per-cuboid re-scans.

The streaming builder's headline claim: accumulating the base cube AND
every planned cuboid in a *single* pass over the record stream beats
re-scanning the source once per cuboid.  The contenders stream from the
same on-disk CSV fact table, so the cost being amortized is real parse
work — with ``k`` planned cuboids the per-scan baseline parses the file
``k + 1`` times while the one-pass builder parses it once:

* **one-pass** — :func:`repro.ingest.ingest`: every batch is scattered
  into the base accumulator and all ``k`` cuboid accumulators before the
  next batch is read; one finalize sweep per cuboid at the end;
* **per-scan** — :func:`repro.ingest.ingest_per_scan`: the naive
  baseline, one full pass for the base plus one fresh pass per cuboid.

Both contenders must produce bit-identical structures (integer
measures, so scatter order cannot change sums) — the race is void
otherwise.  A third leg replays the one-pass build under a 1-byte
memory budget so every accumulator spills through ``MemmapBackend``,
and checks the spilled build answers a range query identically to the
in-memory reference (informational: spill overhead is machine- and
filesystem-dependent, so only the speedup ratio is gated).

Runs as a plain script and emits machine-readable results to
``BENCH_ingest.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_ingest.py          # full
    PYTHONPATH=src python benchmarks/bench_ingest.py --smoke  # CI

With ``--baseline BENCH_ingest.json`` the run fails when the one-pass
speedup regresses more than 2x against the recorded baseline.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks._env import thread_config  # noqa: E402  (pins thread env)

import numpy as np  # noqa: E402

from repro.ingest import (  # noqa: E402
    IngestPlan,
    in_memory_reference,
    ingest,
    ingest_per_scan,
    iter_csv_batches,
    plan_cuboids,
)
from repro.query.ranges import RangeQuery, RangeSpec  # noqa: E402

from benchmarks._gate import check_ratios  # noqa: E402
from benchmarks._tables import format_table  # noqa: E402

SEED = 1997
SHAPE = (32, 24, 16)
#: Three cuboids -> the per-scan baseline reads the fact table 4 times.
CUBOID_KEYS = [(0, 1), (1, 2), (0, 2)]
BLOCK_SIZE = 8
#: With k=3 cuboids the baseline pays 4 parses to our 1, so a 2x floor
#: leaves a wide margin for the one-pass builder's extra scatter work.
GATE_SPEEDUP = 2.0


def write_fact_table(path: Path, rows: int) -> None:
    """A seeded CSV fact table: ``rows`` records over :data:`SHAPE`.

    Duplicate coordinates are expected (records accumulate), matching a
    real fact stream rather than a dense dump.
    """
    rng = np.random.default_rng(SEED)
    coords = np.column_stack(
        [rng.integers(0, extent, size=rows) for extent in SHAPE]
    )
    values = rng.integers(0, 100, size=rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["d0", "d1", "d2", "value"])
        writer.writerows(
            np.column_stack([coords, values]).tolist()
        )


def assert_bit_identical(a, b, label: str) -> None:
    """The race is meaningless unless the contenders agree exactly."""
    if not np.array_equal(np.asarray(a.base), np.asarray(b.base)):
        raise SystemExit(f"{label}: base cubes differ")
    for mine, theirs in zip(a.cuboids, b.cuboids):
        if not np.array_equal(
            np.asarray(mine.structure.source),
            np.asarray(theirs.structure.source),
        ):
            raise SystemExit(f"{label}: cuboid {mine.key} differs")


def run(smoke: bool = False, out: Path | None = None) -> dict:
    rows = 40_000 if smoke else 400_000
    batch_rows = 16_384
    plan = IngestPlan(
        shape=SHAPE,
        cuboids=plan_cuboids(SHAPE, CUBOID_KEYS, BLOCK_SIZE),
        batch_rows=batch_rows,
    )

    with tempfile.TemporaryDirectory(prefix="bench-ingest-") as tmp:
        facts = Path(tmp) / "facts.csv"
        write_fact_table(facts, rows)
        source = lambda: iter_csv_batches(facts, batch_rows=batch_rows)  # noqa: E731

        started = time.perf_counter()
        one_pass = ingest(source(), plan)
        one_pass_s = time.perf_counter() - started

        started = time.perf_counter()
        per_scan = ingest_per_scan(source, plan)
        per_scan_s = time.perf_counter() - started

        assert_bit_identical(
            one_pass.cuboid_set, per_scan.cuboid_set, "one-pass vs per-scan"
        )

        # Spilled leg: same stream, 1-byte budget -> every accumulator
        # lands in MemmapBackend files; answers must not change.
        spill_plan = IngestPlan(
            shape=SHAPE,
            cuboids=plan.cuboids,
            budget_bytes=1,
            spill_directory=Path(tmp) / "spill",
            batch_rows=batch_rows,
        )
        started = time.perf_counter()
        spilled = ingest(source(), spill_plan)
        spilled_s = time.perf_counter() - started
        if not spilled.spilled:
            raise SystemExit("spill leg did not spill")
        reference = in_memory_reference(source(), plan)
        assert_bit_identical(
            spilled.cuboid_set, reference, "spilled vs in-memory"
        )
        rng = np.random.default_rng(SEED + 1)
        for _ in range(8):
            lo = [int(rng.integers(0, e - 1)) for e in SHAPE]
            query = RangeQuery(
                tuple(
                    RangeSpec.between(
                        lo[d], int(rng.integers(lo[d], SHAPE[d] - 1))
                    )
                    for d in range(len(SHAPE))
                )
            )
            if spilled.cuboid_set.range_sum(query) != reference.range_sum(
                query
            ):
                raise SystemExit(f"spilled build answered {query} wrong")
        spilled_bytes = sum(
            p.stat().st_size
            for p in (Path(tmp) / "spill").rglob("*.npy")
        )
        spilled.release()
        per_scan.release()
        one_pass.release()

    speedup = per_scan_s / one_pass_s
    print(
        format_table(
            "One-pass multi-cuboid ingestion vs per-cuboid re-scans",
            ["contender", "source passes", "build (s)", "rows/s"],
            [
                ["one-pass", 1, f"{one_pass_s:.3f}", f"{rows / one_pass_s:,.0f}"],
                [
                    "per-scan",
                    len(CUBOID_KEYS) + 1,
                    f"{per_scan_s:.3f}",
                    f"{rows / per_scan_s:,.0f}",
                ],
                [
                    "one-pass (spilled)",
                    1,
                    f"{spilled_s:.3f}",
                    f"{rows / spilled_s:,.0f}",
                ],
            ],
            note=(
                f"{rows:,} CSV records, {len(CUBOID_KEYS)} cuboids; "
                f"one pass wins {speedup:.2f}x (bit-identical output; "
                f"spilled leg wrote {spilled_bytes:,} bytes, gated "
                f"only on correctness)."
            ),
        )
    )

    payload = {
        "benchmark": "ingest",
        "config": {
            "seed": SEED,
            "shape": list(SHAPE),
            "cuboids": [list(k) for k in CUBOID_KEYS],
            "rows": rows,
            "batch_rows": batch_rows,
            "smoke": smoke,
            "threads": thread_config(),
        },
        "one_pass_s": one_pass_s,
        "per_scan_s": per_scan_s,
        "spilled_s": spilled_s,
        "spilled_bytes": int(spilled_bytes),
        "speedup": speedup,
    }
    if speedup < GATE_SPEEDUP:
        raise SystemExit(
            f"one-pass speedup {speedup:.2f}x < {GATE_SPEEDUP}x over "
            f"per-cuboid re-scans"
        )
    if out is not None:
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fact table, no JSON output (CI smoke run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default: BENCH_ingest.json at the repo "
        "root; suppressed in smoke mode)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="recorded BENCH_ingest.json to gate against: fail if the "
        "one-pass speedup regresses more than 2x",
    )
    args = parser.parse_args()
    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / "BENCH_ingest.json"
    payload = run(smoke=args.smoke, out=out)
    if args.baseline is not None:
        check_ratios(
            payload, args.baseline, metric="speedup", what="one-pass speedup"
        )


if __name__ == "__main__":
    main()
