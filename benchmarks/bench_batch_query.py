"""Throughput benchmark: per-query loop vs the batch execution layer.

Answers the tentpole question directly: how much faster is
``RangeQueryEngine.sum_many`` (one fancy-indexed gather for all
``K · 2^d`` Theorem-1 corners) than the scalar loop calling
``engine.sum`` ``K`` times, at K ∈ {100, 1k, 10k} and d ∈ {2, 3, 4}?

Also times the shared-frontier MAX descent against the scalar
branch-and-bound loop at K = 1000 per dimensionality.

Runs as a plain script (no pytest needed) and emits machine-readable
results to ``BENCH_batch_query.json`` at the repository root to seed the
performance trajectory::

    PYTHONPATH=src python benchmarks/bench_batch_query.py          # full
    PYTHONPATH=src python benchmarks/bench_batch_query.py --smoke  # CI

The smoke run trims K to 100 and does not write the JSON file.  With
``--baseline BENCH_batch_query.json`` the run fails when any matching
``(d, K)`` row's batch-vs-scalar *speedup ratio* regresses more than 2×
against the recorded baseline — ratios compare the two code paths on the
same machine, so the gate is machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks._env import thread_config  # noqa: E402  (pins thread env)

import numpy as np  # noqa: E402

from repro.query.engine import RangeQueryEngine  # noqa: E402
from repro.query.workload import make_cube, random_query_arrays  # noqa: E402

from benchmarks._gate import check_ratios  # noqa: E402
from benchmarks._tables import format_table  # noqa: E402

SHAPES = {2: (256, 256), 3: (48, 48, 48), 4: (16, 16, 16, 16)}
BATCH_SIZES = (100, 1_000, 10_000)
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall time over ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_sum(engine, lows, highs) -> dict:
    """Time the scalar per-query loop vs one sum_many call."""
    from repro._util import Box

    boxes = [
        Box(tuple(lo), tuple(hi)) for lo, hi in zip(lows, highs)
    ]

    def scalar():
        return [engine.sum(box) for box in boxes]

    def batch():
        return engine.sum_many(lows, highs)

    scalar_values = scalar()
    batch_values = batch()
    identical = bool(
        (np.asarray(scalar_values) == np.asarray(batch_values)).all()
    )
    scalar_s = _best_of(scalar)
    batch_s = _best_of(batch)
    return {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "identical": identical,
    }


def bench_max(engine, lows, highs) -> dict:
    """Time the scalar branch-and-bound loop vs one max_many descent."""
    from repro._util import Box

    boxes = [
        Box(tuple(lo), tuple(hi)) for lo, hi in zip(lows, highs)
    ]

    def scalar():
        return [engine.max(box)[1] for box in boxes]

    def batch():
        return engine.max_many(lows, highs)[1]

    identical = bool(
        (np.asarray(scalar()) == np.asarray(batch())).all()
    )
    scalar_s = _best_of(scalar)
    batch_s = _best_of(batch)
    return {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "identical": identical,
    }


def run(smoke: bool = False, out: Path | None = None) -> dict:
    rng = np.random.default_rng(1997)
    batch_sizes = (100,) if smoke else BATCH_SIZES
    max_k = 100 if smoke else 1_000
    sum_results = []
    max_results = []
    for ndim, shape in SHAPES.items():
        cube = make_cube(shape, rng, high=1000)
        engine = RangeQueryEngine(cube)  # prefix_sum + range_max_tree(4)
        for count in batch_sizes:
            lows, highs = random_query_arrays(shape, count, rng)
            row = bench_sum(engine, lows, highs)
            row.update({"d": ndim, "K": count, "shape": list(shape)})
            sum_results.append(row)
        lows, highs = random_query_arrays(shape, max_k, rng)
        row = bench_max(engine, lows, highs)
        row.update({"d": ndim, "K": max_k, "shape": list(shape)})
        max_results.append(row)

    print(
        format_table(
            "Batch SUM: K scalar engine.sum calls vs one sum_many gather",
            ["d", "K", "scalar (s)", "batch (s)", "speedup", "identical"],
            [
                [
                    r["d"],
                    r["K"],
                    r["scalar_s"],
                    r["batch_s"],
                    f"{r['speedup']:.0f}x",
                    r["identical"],
                ]
                for r in sum_results
            ],
            note=(
                "Batch path: one (K, 2^d, d) corner broadcast + one "
                "P.ravel() gather; scalar path: K Python corner loops."
            ),
        )
    )
    print(
        format_table(
            "Batch MAX: K scalar descents vs one shared-frontier descent",
            ["d", "K", "scalar (s)", "batch (s)", "speedup", "identical"],
            [
                [
                    r["d"],
                    r["K"],
                    r["scalar_s"],
                    r["batch_s"],
                    f"{r['speedup']:.0f}x",
                    r["identical"],
                ]
                for r in max_results
            ],
            note="identical compares max values (tied indices may differ).",
        )
    )

    payload = {
        "benchmark": "batch_query",
        "config": {
            "shapes": {str(d): list(s) for d, s in SHAPES.items()},
            "batch_sizes": list(batch_sizes),
            "repeats": REPEATS,
            "smoke": smoke,
            "threads": thread_config(),
        },
        "sum": sum_results,
        "max": max_results,
    }
    if not all(r["identical"] for r in sum_results + max_results):
        raise SystemExit("batch results diverged from the scalar path")
    headline = [
        r for r in sum_results if r["d"] == 3 and r["K"] == max(batch_sizes)
    ]
    if headline and not smoke and headline[0]["speedup"] < 10:
        raise SystemExit(
            f"headline speedup {headline[0]['speedup']:.1f}x < 10x "
            "(K=10k, d=3 range-sums)"
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
        help="small K, no JSON output (CI smoke run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default: BENCH_batch_query.json at the "
        "repo root; suppressed in smoke mode)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="recorded BENCH_batch_query.json to gate against: fail if "
        "any matching (d, K) speedup ratio regresses more than 2x",
    )
    args = parser.parse_args()
    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / "BENCH_batch_query.json"
    payload = run(smoke=args.smoke, out=out)
    if args.baseline is not None:
        check_ratios(
            payload,
            args.baseline,
            metric="speedup",
            what="batch speedup",
            fields=("section", "d", "K"),
            rows=lambda p: [
                {**row, "section": section}
                for section in ("sum", "max")
                for row in p.get(section, [])
            ],
        )


if __name__ == "__main__":
    main()
