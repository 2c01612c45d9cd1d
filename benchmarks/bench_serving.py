"""Serving-layer benchmark: HTTP load percentiles + coalescing throughput.

Two measurements over ``repro.serving``:

* **Dispatch comparison** — the same scalar-sum request stream is driven
  through two in-process :class:`~repro.serving.QueryService` instances,
  one with the request coalescer enabled (concurrent asks batch into a
  single ``sum_many`` gather) and one dispatching every query
  individually.  The published number is the throughput ratio, which the
  full run gates at >= 2x: if batching ever stops paying for itself the
  benchmark fails.
* **HTTP load** — a live :class:`~repro.serving.ServingServer` is put
  under >= 8 concurrent keep-alive connections with seeded workloads
  (cold scalar sums, mixed operators, and a hot-pool stream that
  exercises the result cache) and p50/p99 latency plus QPS are recorded
  per scenario.

Runs as a plain script and emits machine-readable results to
``BENCH_serving.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke  # CI

With ``--baseline BENCH_serving.json`` the run fails when a matching
dispatch row's coalescing ratio regresses more than 2x against the
recorded baseline — the gate compares two code paths on the same
machine, so absolute speed differences between boxes never trip it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections import deque
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks._env import thread_config  # noqa: E402  (pins thread env)

import numpy as np  # noqa: E402

from repro.serving import (  # noqa: E402
    QueryService,
    ServeConfig,
    ServingServer,
    generate_requests,
    run_load,
)

from benchmarks._gate import check_ratios  # noqa: E402
from benchmarks._tables import format_table  # noqa: E402

SEED = 1997
REPEATS = 3

#: (shape, concurrency, requests) per dispatch-comparison row.  High-d
#: prefix-sum cubes are where coalescing pays most: a scalar query costs
#: 2^d corner lookups of Python-level overhead, while the batched gather
#: amortizes those corners across every query in the batch.
DISPATCH_CONFIGS = (
    {"shape": (10, 8, 8, 6, 6, 4), "concurrency": 32, "n": 2_000},
    {"shape": (12, 10, 8, 8, 6, 4), "concurrency": 64, "n": 2_000},
)
#: The smoke run reuses a full config (same (shape, concurrency) key,
#: shorter stream) so ``--baseline`` still gates the CI run.
SMOKE_DISPATCH_CONFIGS = (
    {"shape": (10, 8, 8, 6, 6, 4), "concurrency": 32, "n": 400},
)

#: HTTP scenarios: name -> (ops, hot_fraction).
HTTP_SCENARIOS = (
    ("scalar-sum", ("sum",), 0.0),
    ("mixed-ops", ("sum", "count", "average", "max"), 0.0),
    ("hot-cache", ("sum",), 0.9),
)
HTTP_CONCURRENCY = (8, 16)
SMOKE_HTTP_CONCURRENCY = (8,)


def _service(
    data: np.ndarray,
    *,
    window_s: float,
    max_batch: int,
) -> QueryService:
    """A service over one prefix-sum cube, cache disabled.

    The dispatch comparison isolates *coalescing*: the cache is off so
    repeated boxes cannot shortcut either path, and offload is disabled
    so both paths pay their dispatch cost on the event loop itself.
    """
    service = QueryService(
        ServeConfig(
            coalesce_window_s=window_s,
            coalesce_max_batch=max_batch,
            cache_capacity=0,
            offload_cells=1 << 62,
        )
    )
    service.register_cube("bench", data, max_index=None)
    return service


async def _drive(service: QueryService, payloads, concurrency: int) -> float:
    """Replay ``payloads`` with ``concurrency`` workers; wall seconds."""
    pending = deque(payloads)

    async def worker() -> None:
        while pending:
            payload = pending.popleft()
            await service.query(dict(payload))

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return time.perf_counter() - started


def bench_dispatch(config: dict) -> dict:
    """Coalesced vs per-query dispatch on one scalar-sum stream."""
    shape = config["shape"]
    concurrency = config["concurrency"]
    rng = np.random.default_rng(SEED)
    data = rng.integers(0, 1000, size=shape).astype(np.int64)
    payloads = generate_requests(
        rng, shape, config["n"], cube="bench", ops=("sum",)
    )

    def timed(window_s: float) -> tuple[float, QueryService]:
        service = _service(
            data, window_s=window_s, max_batch=concurrency
        )
        best = float("inf")
        for _ in range(REPEATS):
            best = min(
                best, asyncio.run(_drive(service, payloads, concurrency))
            )
        asyncio.run(service.close())
        return best, service

    direct_s, direct = timed(0.0)
    coalesced_s, coalesced = timed(0.002)
    assert coalesced.coalescer.largest_batch >= 2, (
        "coalescer never batched — the comparison is meaningless"
    )
    assert direct.coalescer.batches == 0
    return {
        "shape": list(shape),
        "concurrency": concurrency,
        "requests": config["n"],
        "direct_s": direct_s,
        "coalesced_s": coalesced_s,
        "direct_qps": config["n"] / direct_s,
        "coalesced_qps": config["n"] / coalesced_s,
        "speedup": direct_s / coalesced_s,
        "largest_batch": coalesced.coalescer.largest_batch,
    }


def bench_http(
    requests: int, concurrencies: tuple[int, ...]
) -> list[dict]:
    """Latency percentiles and QPS per scenario over a live server."""
    shape = (64, 64, 32)
    rng = np.random.default_rng(SEED)
    data = rng.integers(0, 1000, size=shape).astype(np.int64)
    rows = []

    async def run_scenarios() -> None:
        service = QueryService(ServeConfig(coalesce_window_s=0.002))
        service.register_cube(
            "bench",
            data,
            sum_index="blocked_prefix_sum",
            sum_params={"block_size": 8},
        )
        server = ServingServer(service)
        await server.start()
        try:
            for name, ops, hot_fraction in HTTP_SCENARIOS:
                payloads = generate_requests(
                    np.random.default_rng(SEED),
                    shape,
                    requests,
                    cube="bench",
                    ops=ops,
                    hot_fraction=hot_fraction,
                )
                for concurrency in concurrencies:
                    report = await run_load(
                        server.host,
                        server.port,
                        payloads,
                        concurrency=concurrency,
                    )
                    if report.errors or report.completed != requests:
                        raise SystemExit(
                            f"http scenario {name!r} degraded: "
                            f"{report.summary()}"
                        )
                    rows.append(
                        {
                            "scenario": name,
                            "ops": list(ops),
                            "hot_fraction": hot_fraction,
                            "concurrency": concurrency,
                            **report.summary(),
                        }
                    )
        finally:
            await server.stop()

    asyncio.run(run_scenarios())
    return rows


def run(smoke: bool = False, out: Path | None = None) -> dict:
    dispatch_configs = (
        SMOKE_DISPATCH_CONFIGS if smoke else DISPATCH_CONFIGS
    )
    http_requests = 200 if smoke else 1_500
    concurrencies = SMOKE_HTTP_CONCURRENCY if smoke else HTTP_CONCURRENCY

    dispatch = [bench_dispatch(c) for c in dispatch_configs]
    http = bench_http(http_requests, concurrencies)

    print(
        format_table(
            "Coalesced vs per-query dispatch (scalar-sum stream)",
            [
                "shape",
                "clients",
                "N",
                "direct (s)",
                "coalesced (s)",
                "speedup",
                "max batch",
            ],
            [
                [
                    "x".join(map(str, r["shape"])),
                    r["concurrency"],
                    r["requests"],
                    r["direct_s"],
                    r["coalesced_s"],
                    f"{r['speedup']:.2f}x",
                    r["largest_batch"],
                ]
                for r in dispatch
            ],
            note=(
                "direct: every query dispatched individually; "
                "coalesced: concurrent scalar asks per (cube, op) "
                "batch into one sum_many gather."
            ),
        )
    )
    print(
        format_table(
            "HTTP load (keep-alive clients, seeded workloads)",
            [
                "scenario",
                "clients",
                "N",
                "p50 (ms)",
                "p99 (ms)",
                "qps",
            ],
            [
                [
                    r["scenario"],
                    r["concurrency"],
                    r["completed"],
                    f"{r['p50_ms']:.2f}",
                    f"{r['p99_ms']:.2f}",
                    f"{r['qps']:.0f}",
                ]
                for r in http
            ],
            note=(
                "hot-cache re-asks a 16-box pool for 90% of requests, "
                "so most answers come from the result cache."
            ),
        )
    )

    payload = {
        "benchmark": "serving",
        "config": {
            "seed": SEED,
            "repeats": REPEATS,
            "smoke": smoke,
            "http_requests": http_requests,
            "threads": thread_config(),
        },
        "dispatch": dispatch,
        "http": http,
    }
    if not smoke:
        worst = min(dispatch, key=lambda r: r["speedup"])
        if worst["speedup"] < 2.0:
            raise SystemExit(
                f"coalesced dispatch speedup {worst['speedup']:.2f}x "
                f"< 2x over per-query dispatch (shape {worst['shape']})"
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
        help="small streams, no JSON output (CI smoke run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default: BENCH_serving.json at the "
        "repo root; suppressed in smoke mode)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="recorded BENCH_serving.json to gate against: fail if any "
        "matching dispatch row's coalescing speedup regresses more "
        "than 2x",
    )
    args = parser.parse_args()
    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / "BENCH_serving.json"
    payload = run(smoke=args.smoke, out=out)
    if args.baseline is not None:
        check_ratios(
            payload,
            args.baseline,
            metric="speedup",
            what="coalescing speedup",
            fields=("shape", "concurrency"),
            rows=lambda p: p["dispatch"],
        )


if __name__ == "__main__":
    main()
