"""Execution-kernel benchmark: backend × structure × K × shape.

The kernel layer (``repro.kernels``) decides how the batch primitives
run: ``numpy`` single-threaded, ``threaded`` sharded across a worker
pool, and ``numba`` with JIT-compiled segment reductions when the
optional dependency is importable (the numpy primitives otherwise).
This benchmark times blocked ``sum_many`` under every registered backend
against the oracle — the structure's scalar query answered row by row,
the protocol's default ``sum_many`` loop — and asserts bit-identical
answers.

Runs as a plain script and emits machine-readable results to
``BENCH_kernels.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # CI

With ``--baseline BENCH_kernels.json`` the run fails when any matching
``(structure, backend, d, K)`` row's speedup-vs-oracle ratio regresses
more than 2x against the recorded baseline, or when no row matches
(see ``benchmarks/_gate.py``).
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

from repro.index.protocol import RangeSumIndexMixin  # noqa: E402
from repro.index.registry import create_index  # noqa: E402
from repro.kernels import available_kernels, get_kernel  # noqa: E402
from repro.kernels.numba_kernel import numba_available  # noqa: E402
from repro.query.workload import make_cube, random_query_arrays  # noqa: E402

from benchmarks._gate import check_ratios  # noqa: E402
from benchmarks._tables import format_table  # noqa: E402

#: One entry per structure configuration the backends are raced on.
CONFIGS = (
    {
        "structure": "blocked_prefix_sum",
        "shape": (512, 512),
        "params": {"block_size": 16},
    },
    {
        "structure": "blocked_prefix_sum",
        "shape": (64, 64, 64),
        "params": {"block_size": 8},
    },
    {
        "structure": "blocked_partial_prefix_sum",
        "shape": (128, 128, 8),
        "params": {"prefix_dims": (0, 1), "block_size": 16},
    },
)

SMOKE_CONFIGS = (
    {
        "structure": "blocked_prefix_sum",
        "shape": (96, 96),
        "params": {"block_size": 8},
    },
    {
        "structure": "blocked_partial_prefix_sum",
        "shape": (48, 48, 4),
        "params": {"prefix_dims": (0, 1), "block_size": 8},
    },
)

BATCH_SIZES = (100, 1_000, 5_000)
REPEATS = 3
SEED = 1997


def bench_backends() -> tuple[str, ...]:
    """Registered backends raced here (``auto`` is just an alias)."""
    names = [n for n in available_kernels() if n != "auto"]
    if not numba_available():
        # Present but degraded numba would duplicate the vectorized
        # row; racing it is only informative when the JIT is live.
        names = [n for n in names if n != "numba"]
    return tuple(names)


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall time over ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_config(config: dict, batch_sizes: tuple[int, ...]) -> list[dict]:
    """Race every backend on one structure configuration."""
    rng = np.random.default_rng(SEED)
    shape = config["shape"]
    cube = make_cube(shape, rng, high=1000)
    index = create_index(config["structure"], cube, **config["params"])
    rows = []
    for count in batch_sizes:
        lows, highs = random_query_arrays(shape, count, rng)
        oracle_values = RangeSumIndexMixin.sum_many(index, lows, highs)
        oracle_s = _best_of(
            lambda: RangeSumIndexMixin.sum_many(index, lows, highs)
        )
        for backend in bench_backends():
            index.kernel = get_kernel(backend)
            values = index.sum_many(lows, highs)
            backend_s = _best_of(lambda: index.sum_many(lows, highs))
            rows.append(
                {
                    "structure": config["structure"],
                    "backend": backend,
                    "d": len(shape),
                    "K": count,
                    "shape": list(shape),
                    "params": {
                        k: list(v) if isinstance(v, tuple) else v
                        for k, v in config["params"].items()
                    },
                    "oracle_s": oracle_s,
                    "backend_s": backend_s,
                    "speedup": oracle_s / backend_s,
                    "identical": bool(
                        np.array_equal(values, oracle_values)
                    ),
                }
            )
        index.kernel = None
    return rows


def run(smoke: bool = False, out: Path | None = None) -> dict:
    configs = SMOKE_CONFIGS if smoke else CONFIGS
    # Smoke runs keep K = 100, a batch size the baseline records, so the
    # gate always has rows to compare.
    batch_sizes = (100,) if smoke else BATCH_SIZES
    results = []
    for config in configs:
        results.extend(bench_config(config, batch_sizes))

    print(
        format_table(
            "Kernel backends: sum_many vs the row-by-row oracle",
            [
                "structure",
                "backend",
                "d",
                "K",
                "oracle (s)",
                "backend (s)",
                "speedup",
                "identical",
            ],
            [
                [
                    r["structure"],
                    r["backend"],
                    r["d"],
                    r["K"],
                    r["oracle_s"],
                    r["backend_s"],
                    f"{r['speedup']:.2f}x",
                    r["identical"],
                ]
                for r in results
            ],
            note=(
                "oracle: the scalar query row by row; backends: the "
                "one-pass blocked batch path, primitives run serially "
                "(numpy) or sharded across the pinned worker pool "
                "(threaded)."
            ),
        )
    )

    payload = {
        "benchmark": "kernels",
        "config": {
            "configs": [
                {
                    "structure": c["structure"],
                    "shape": list(c["shape"]),
                    "params": {
                        k: list(v) if isinstance(v, tuple) else v
                        for k, v in c["params"].items()
                    },
                }
                for c in configs
            ],
            "batch_sizes": list(batch_sizes),
            "repeats": REPEATS,
            "smoke": smoke,
            "backends": list(bench_backends()),
            "numba_jit": bool(numba_available()),
            "threads": thread_config(),
        },
        "results": results,
    }
    if not all(r["identical"] for r in results):
        diverged = [r for r in results if not r["identical"]]
        raise SystemExit(
            f"kernel results diverged from the row-by-row oracle: {diverged}"
        )
    if not smoke:
        headline = max(
            (
                r
                for r in results
                if r["backend"] == "threaded" and r["K"] >= 1_000
            ),
            key=lambda r: r["speedup"],
        )
        if headline["speedup"] < 2.0:
            raise SystemExit(
                f"threaded headline speedup {headline['speedup']:.2f}x "
                "< 2x over the row-by-row oracle (large-K blocked batch)"
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
        help="small K and shapes, no JSON output (CI smoke run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default: BENCH_kernels.json at the "
        "repo root; suppressed in smoke mode)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="recorded BENCH_kernels.json to gate against: fail if any "
        "matching (structure, backend, d, K) speedup ratio regresses "
        "more than 2x, or if no row matches",
    )
    args = parser.parse_args()
    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / "BENCH_kernels.json"
    payload = run(smoke=args.smoke, out=out)
    if args.baseline is not None:
        check_ratios(
            payload,
            args.baseline,
            metric="speedup",
            what="kernel speedup",
            fields=("structure", "backend", "d", "K"),
            rows=lambda p: p["results"],
        )


if __name__ == "__main__":
    main()
