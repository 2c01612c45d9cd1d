"""Adaptive vs frozen physical design under a drifting workload.

The closed loop's headline number.  Two identical in-process
:class:`~repro.serving.QueryService` instances replay the same seeded
drifting stream (:func:`~repro.serving.generate_drifting_requests`):

* **frozen** — an :class:`~repro.serving.AdaptiveController` runs one
  advisory step after the warm-up phase (so both contenders start from
  the same §9 plan for the initial workload), then never again: the
  design stays tuned for traffic that is about to disappear;
* **adaptive** — the controller keeps stepping after the drift, so the
  advisor re-runs Figure 13 against the decayed observer window and
  hot-swaps the plan the new hot dimension subset deserves.

Two currencies are reported per phase:

* **measured** p50/p99 wall latency per request (informational —
  machine-dependent, never gated);
* **modeled mean per-query cost** under the *post-drift* observer
  window: each service's incumbent plan scored by the same
  update-aware Theorem-2 objective the advisor minimizes, divided by
  the window's query weight.  The published gate is the ratio
  frozen/adaptive, which compares two plans under one model on one
  workload — deterministic given the seed, so the full run fails
  hard when adaptation stops paying >= 1.5x.

Runs as a plain script and emits machine-readable results to
``BENCH_adaptive.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_adaptive.py          # full
    PYTHONPATH=src python benchmarks/bench_adaptive.py --smoke  # CI

With ``--baseline BENCH_adaptive.json`` the run fails when the
adaptation ratio regresses more than 2x against the recorded baseline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks._env import thread_config  # noqa: E402  (pins thread env)

import numpy as np  # noqa: E402

from repro.serving import (  # noqa: E402
    AdaptiveController,
    DriftPhase,
    QueryService,
    ServeConfig,
    generate_drifting_requests,
)

from benchmarks._gate import check_ratios  # noqa: E402
from benchmarks._tables import format_table  # noqa: E402

SEED = 1997
SHAPE = (48, 48, 24)
CONCURRENCY = 8
GATE_RATIO = 1.5

#: The drift: traffic lives on the <d0, d1> cuboid, then moves wholesale
#: to <d1, d2> and picks up update churn, so the frozen plan keeps
#: paying Theorem-2 maintenance on a structure nobody queries while the
#: new hot cuboid falls through to its naive tier.
def phases(requests: int) -> tuple[DriftPhase, DriftPhase]:
    return (
        DriftPhase(requests=requests, hot_dims=(0, 1), range_scale=0.4),
        DriftPhase(
            requests=requests,
            hot_dims=(1, 2),
            range_scale=0.4,
            update_fraction=0.1,
        ),
    )


def make_service() -> QueryService:
    """One served cube, result cache off so every request pays its tier.

    The cache would serve the drifted hot set mostly from memory and
    flatten the measured numbers; the modeled gate is cache-blind either
    way, so disabling it keeps both currencies honest.
    """
    service = QueryService(
        ServeConfig(
            cache_capacity=0,
            observer_decay=0.97,
            adaptive_min_weight=4.0,
            adaptive_max_block=64,
        )
    )
    rng = np.random.default_rng(SEED)
    service.register_cube(
        "bench", rng.integers(0, 1000, size=SHAPE).astype(np.int64)
    )
    return service


async def replay(
    service: QueryService, stream: list[dict]
) -> dict[str, float]:
    """Drive a tagged payload stream in-process; latency percentiles."""
    pending = list(stream)
    cursor = 0
    latencies: list[float] = []

    async def worker() -> None:
        nonlocal cursor
        while cursor < len(pending):
            payload = pending[cursor]
            cursor += 1
            handler = (
                service.update
                if payload["path"] == "/update"
                else service.query
            )
            started = time.perf_counter()
            await handler(dict(payload["body"]))
            latencies.append(time.perf_counter() - started)

    await asyncio.gather(*(worker() for _ in range(CONCURRENCY)))
    samples = np.asarray(latencies) * 1e3
    return {
        "requests": len(stream),
        "p50_ms": float(np.percentile(samples, 50)),
        "p99_ms": float(np.percentile(samples, 99)),
    }


def modeled_mean_cost(service: QueryService) -> float:
    """The incumbent plan's cost per unit query weight, current window.

    Scored by the same update-aware objective ``re_advise`` minimizes
    (query cost per the Table-1 statistics plus the Theorem-2
    maintenance term), so frozen and adaptive plans are compared under
    one model on one workload.
    """
    cube = service.cubes["bench"]
    assert cube.observer is not None
    snapshot = cube.observer.snapshot()
    delta = service.plan_delta(cube, snapshot)
    return delta.incumbent_cost / snapshot.query_weight


async def run_contender(
    adaptive: bool, requests: int
) -> dict:
    """Replay warm-up + drift; re-advise only when ``adaptive``."""
    service = make_service()
    controller = AdaptiveController(service)
    warmup, drift = phases(requests)
    rng = np.random.default_rng(SEED)
    warm_stream = generate_drifting_requests(
        rng, SHAPE, [warmup], cube="bench"
    )
    drift_stream = generate_drifting_requests(
        rng, SHAPE, [drift], cube="bench"
    )

    warm_metrics = await replay(service, warm_stream)
    # Both contenders tune for the initial workload...
    await controller.step("bench")
    initial_plan = service.cubes["bench"].plan
    drift_metrics = await replay(service, drift_stream)
    if adaptive:
        # ...but only this one notices the world changed.
        await controller.step("bench")
    mean_cost = modeled_mean_cost(service)
    row = {
        "mode": "adaptive" if adaptive else "frozen",
        "initial_plan": [
            {"key": list(m.key), "block_size": m.block_size}
            for m in initial_plan
        ],
        "final_plan": [
            {"key": list(m.key), "block_size": m.block_size}
            for m in service.cubes["bench"].plan
        ],
        "swaps": controller.swaps,
        "warmup": warm_metrics,
        "drift": drift_metrics,
        "post_drift_mean_cost": mean_cost,
    }
    await service.close()
    return row


def run(smoke: bool = False, out: Path | None = None) -> dict:
    requests = 150 if smoke else 600
    frozen = asyncio.run(run_contender(False, requests))
    adaptive = asyncio.run(run_contender(True, requests))
    ratio = (
        frozen["post_drift_mean_cost"]
        / adaptive["post_drift_mean_cost"]
    )

    print(
        format_table(
            "Adaptive vs frozen design under a drifting workload",
            [
                "mode",
                "swaps",
                "warm p99 (ms)",
                "drift p99 (ms)",
                "mean cost/query",
            ],
            [
                [
                    row["mode"],
                    row["swaps"],
                    f"{row['warmup']['p99_ms']:.2f}",
                    f"{row['drift']['p99_ms']:.2f}",
                    f"{row['post_drift_mean_cost']:.1f}",
                ]
                for row in (frozen, adaptive)
            ],
            note=(
                f"mean cost/query is the advisor's own update-aware "
                f"objective over the post-drift window; the adaptive "
                f"plan wins {ratio:.2f}x."
            ),
        )
    )

    payload = {
        "benchmark": "adaptive",
        "config": {
            "seed": SEED,
            "shape": list(SHAPE),
            "requests_per_phase": requests,
            "concurrency": CONCURRENCY,
            "smoke": smoke,
            "threads": thread_config(),
        },
        "contenders": [frozen, adaptive],
        "ratio": ratio,
    }
    if adaptive["swaps"] < 2:
        raise SystemExit(
            "adaptive contender never re-swapped after the drift — "
            "the comparison is meaningless"
        )
    if ratio < GATE_RATIO:
        raise SystemExit(
            f"adaptive mean-cost improvement {ratio:.2f}x < "
            f"{GATE_RATIO}x over the frozen initial design"
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
        help="short phases, no JSON output (CI smoke run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default: BENCH_adaptive.json at the "
        "repo root; suppressed in smoke mode)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="recorded BENCH_adaptive.json to gate against: fail if "
        "the adaptation ratio regresses more than 2x",
    )
    args = parser.parse_args()
    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / "BENCH_adaptive.json"
    payload = run(smoke=args.smoke, out=out)
    if args.baseline is not None:
        check_ratios(
            payload, args.baseline, metric="ratio", what="adaptation ratio"
        )


if __name__ == "__main__":
    main()
