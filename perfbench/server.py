"""The benchmark's server launcher: the real service on a seeded cube.

Run by ``run.py``, once per set-up::

    python3 perfbench/server.py --workload scalar-mix --seed 1 --work DIR

It registers the workload's cubes on a :class:`repro.serving.QueryService`
with the default :class:`repro.serving.ServeConfig`, binds a
:class:`repro.serving.ServingServer` to a free loopback port and prints
``READY <port>`` on standard output.  ``ingest-update`` registers its
fact tables (``DIR/<name>.csv``) through the production ``--ingest``
path of ``python -m repro.serving``; the large one spills through a
memmap under ``DIR``.

Three routes under ``/_bench/`` belong to the benchmark, not the
program: ``POST /_bench/phase`` tags the spans of a traced run,
``POST /_bench/adapt`` starts exactly one ``AdaptiveController.step``
(never the controller's timer) and ``GET /_bench/adapt`` reports whether
it finished.  With ``--trace FILE`` the layers are wrapped by
:mod:`tracing` and the spans are written to ``FILE`` on exit.  The
server stops on SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from tracing import Tracer, install  # noqa: E402

from repro.serving import (  # noqa: E402
    AdaptiveController,
    QueryService,
    ServeConfig,
    ServingServer,
)
from repro.serving.__main__ import _register_ingested, build_parser  # noqa: E402


class BenchServer(ServingServer):
    """The program's server plus the benchmark's control routes."""

    def __init__(
        self,
        service: QueryService,
        tracer: Tracer | None,
        controller: AdaptiveController,
    ) -> None:
        super().__init__(service)
        self.tracer = tracer
        self.controller = controller
        self.adapt_task: asyncio.Task | None = None

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        if not path.startswith("/_bench/"):
            return await super()._dispatch(method, path, body)
        payload = json.loads(body) if body else {}
        if path == "/_bench/phase" and method == "POST":
            if self.tracer is not None:
                self.tracer.phase = str(payload["name"])
            return 200, {"ok": True}
        if path == "/_bench/adapt" and method == "POST":
            if self.adapt_task is not None:
                return 409, {"error": "the adaptive step already ran"}
            self.adapt_task = asyncio.get_running_loop().create_task(
                self.controller.step(str(payload["cube"]))
            )
            return 200, {"started": True}
        if path == "/_bench/adapt" and method == "GET":
            task = self.adapt_task
            if task is None or not task.done():
                return 200, {"done": False}
            error = task.exception()
            return 200, {
                "done": True,
                "error": None if error is None else repr(error),
                "swaps": self.controller.swaps,
            }
        return 404, {"error": f"no benchmark route {method} {path}"}


def register(service: QueryService, args: argparse.Namespace,
             tracer: Tracer | None) -> None:
    """Register the workload's cubes (data load, ingest and index build)."""
    workload = wl.WORKLOADS[args.workload]
    for spec in workload.cubes:
        service.register_cube(
            spec.name,
            wl.make_cube(args.seed, spec),
            sum_index="blocked_prefix_sum",
            sum_params={"block_size": spec.block_size},
            **({} if spec.max_tree else {"max_index": None}),
        )
    if not workload.tables:
        return
    spill = os.path.join(args.work, f"spill-{os.getpid()}")
    cli = build_parser().parse_args([
        "--ingest-cuboids", wl.INGEST_CUBOIDS,
        "--ingest-budget-mb", str(wl.INGEST_BUDGET_MB),
        "--ingest-spill", spill,
    ])
    started = time.perf_counter()
    for table in workload.tables:
        path = os.path.join(args.work, f"{table.name}.csv")
        _register_ingested(service, table.name, path, cli)
    if tracer is not None:
        tracer.counters["ingest_s"] = time.perf_counter() - started
        tracer.counters["rows"] = float(sum(t.rows for t in workload.tables))
        tracer.counters["spill_bytes"] = float(sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(spill)
            for name in names
        ))


async def serve(service: QueryService, tracer: Tracer | None) -> None:
    controller = AdaptiveController(service)
    server = BenchServer(service, tracer, controller)
    await server.start()
    print(f"READY {server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    serving = loop.create_task(server.serve_forever())
    try:
        await stop.wait()
    finally:
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)
        if server.adapt_task is not None:
            await asyncio.gather(server.adapt_task, return_exceptions=True)
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    service = QueryService(ServeConfig())
    register(service, args, tracer)
    asyncio.run(serve(service, tracer))
    if tracer is not None:
        with open(args.trace, "w") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters},
                      handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
