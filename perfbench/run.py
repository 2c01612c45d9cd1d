"""One benchmark of the served cube: real server, separate load generator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scalar-mix --seed 1 --seconds 20 --trace 0

For ``--workload`` one of ``scalar-mix``, ``batch-scan`` and
``ingest-update`` (see ``workloads.py`` and ``design.json``), a run:

1. starts the server launcher (``server.py``) in its own process
   several times and takes ``setup_s``, spawn to first ``/healthz``
   200, as the median of those set-ups;
2. drives the last server from one load-generator process
   (``loadgen.py``) over two keep-alive connections for ``--seconds``;
3. has the generator check every reply against a numpy oracle built
   from the same seed;
4. prints a report, then as its last line one JSON object with the
   keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` the run is split in two halves:
an untraced server, then a server whose layers record spans
(``tracing.py``); the metrics are then the per-layer metrics, and
``trace.overhead_pct`` compares the two halves.

Scratch files go to ``.perfbench_work/`` under the checkout and are
removed at the end.  Every child process is stopped and waited for.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import layer_metrics  # noqa: E402

#: Longest a server may take from spawn to ready.
READY_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    """Children import the checkout's ``src`` with one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM, then SIGKILL after 30 s; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Server:
    """One launcher process and the time it took to become ready."""

    def __init__(self, args: argparse.Namespace, work: Path,
                 trace: Path | None) -> None:
        command = [
            sys.executable, str(HERE / "server.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--work", str(work),
        ]
        if trace is not None:
            command += ["--trace", str(trace)]
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
            text=True,
        )
        try:
            line = self.proc.stdout.readline()  # type: ignore[union-attr]
            if not line.startswith("READY "):
                raise RuntimeError(
                    f"server launcher failed (exit {self.proc.wait()})"
                )
            self.port = int(line.split()[1])
            self._healthz(spawned)
        except BaseException:
            stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - spawned

    def _healthz(self, spawned: float) -> None:
        while time.perf_counter() - spawned < READY_TIMEOUT_S:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.002)
            finally:
                conn.close()
        raise RuntimeError("server never answered /healthz")

    def close(self) -> None:
        stop(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def drive(args: argparse.Namespace, server: Server, work: Path,
          seconds: float, tag: str) -> dict:
    """Run the load generator against ``server``; return its record."""
    out = work / f"gen-{tag}.json"
    command = [
        sys.executable, str(HERE / "loadgen.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--port", str(server.port), "--server-pid", str(server.proc.pid),
        "--seconds", str(seconds), "--out", str(out),
    ]
    gen = subprocess.Popen(command, env=child_env(), cwd=str(ROOT))
    try:
        code = gen.wait(timeout=seconds + 120)
    finally:
        stop(gen)
    if code != 0:
        raise RuntimeError(f"load generator exited {code}")
    return json.loads(out.read_text())


def pct(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def failed_count(gen: dict) -> int:
    return sum(gen["failures"].values())


def main_p50(gen: dict) -> float:
    return pct(gen["latency_ms"].get("main", []), 50)


def end_to_end(gen: dict, setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """The ``BENCHMARK.json`` end-to-end metrics: ``(value, unit, n)``."""
    lat = gen["latency_ms"]
    main, side = lat.get("main", []), lat.get("side", [])
    completed = max(1, gen["completed"])
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "main_p50_ms": (pct(main, 50), "ms", len(main)),
        "side_p50_ms": (pct(side, 50), "ms", len(side)),
        "boxes_per_s": (gen["boxes"] / gen["elapsed_s"], "1/s", gen["boxes"]),
        "server_cpu_ms_per_req": (
            gen["server_cpu_s"] * 1e3 / completed, "ms", gen["completed"]
        ),
        "server_rss_mb": (gen["server_hwm_kb"] / 1024.0, "MiB", 1),
    }


def report(gen: dict, setups: list[float]) -> None:
    """The human-readable block: every metric by name, unit and count."""
    workload = wl.WORKLOADS[gen["workload"]]
    loop = (f"open loop {workload.rate:g}/s" if workload.rate > 0
            else f"closed loop, {wl.CONNECTIONS} connections")
    print(f"# {gen['workload']} seed {gen['seed']}: {loop}, "
          f"{gen['elapsed_s']:.1f} s timed, {gen['checked']} replies checked")
    print(f"#   main = {workload.classes['main']}; "
          f"side = {workload.classes['side']}")
    rows = [(name, *measured) for name, measured in end_to_end(gen, setups).items()]
    names = {"query": "query", "update": "update",
             "query_batch": "batch", "rollup": "rollup"}
    for kind, label in names.items():
        values = gen["latency_ms"].get(kind, [])
        for q in (50, 90, 95, 99) if values else ():
            rows.append((f"{label}_p{q}_ms", pct(values, q), "ms",
                         len(values)))
    rows.append(("error_rate", failed_count(gen) / max(1, gen["attempted"]),
                 "ratio", gen["attempted"]))
    rows.append(("gen.late_p99_ms", pct(gen["late_ms"], 99), "ms",
                 len(gen["late_ms"])))
    for name, value, unit, count in rows:
        print(f"#   {name:24s} {value:12.4f} {unit:6s} n={count}")
    for cube, design in gen["design_after"].items():
        for swap in design.get("swap_history", []):
            plan = ", ".join(
                f"{tuple(m['key'])}/b={m['block_size']}" for m in swap["plan"]
            )
            print(f"#   swap on {cube}: generation {swap['generation']}, "
                  f"build {swap['build_s'] * 1e3:.1f} ms, "
                  f"{swap['replayed_updates']} replayed, plan {plan}")
    if gen["invalid"]:
        print(f"# INVALID: {gen['invalid']}")


def write_tables(args: argparse.Namespace, work: Path) -> None:
    """The workload's fact tables as ``<name>.csv`` in ``work``."""
    for table in wl.WORKLOADS[args.workload].tables:
        wl.write_facts_csv(str(work / f"{table.name}.csv"),
                           wl.make_facts(args.seed, table))


def run(args: argparse.Namespace, work: Path) -> dict:
    write_tables(args, work)
    if not args.trace:
        setups = []
        for _ in range(wl.SETUPS - 1):
            server = Server(args, work, None)
            setups.append(server.setup_s)
            server.close()
        server = Server(args, work, None)
        setups.append(server.setup_s)
        try:
            gen = drive(args, server, work, args.seconds, "e2e")
        finally:
            server.close()
        report(gen, setups)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in end_to_end(gen, setups).items()
        }
        return {"gen": gen, "metrics": metrics}

    half = args.seconds / 2
    server = Server(args, work, None)
    try:
        untraced = drive(args, server, work, half, "untraced")
    finally:
        server.close()
    trace_file = work / "spans.json"
    server = Server(args, work, trace_file)
    try:
        gen = drive(args, server, work, half, "traced")
    finally:
        server.close()
    report(gen, [server.setup_s])
    trace = json.loads(trace_file.read_text())
    layers = layer_metrics(trace["spans"], trace["counters"], gen,
                           server.setup_s)
    base = main_p50(untraced)
    layers["gen.late_p99_ms"] = (pct(gen["late_ms"], 99), "ms")
    layers["trace.overhead_pct"] = (
        (main_p50(gen) - base) / base * 100.0 if base else 0.0, "%"
    )
    for name, (value, unit) in layers.items():
        print(f"#   {name:34s} {value:14.4f} {unit}")
    # The result line carries the BENCHMARK.json subset: no time metric
    # there may read 0 on a workload whose path skips its layer.
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": layers[m["name"]][0], "unit": m["unit"]}
        for m in contract["per_layer"]
    }
    gen["failures"] = {
        key: gen["failures"][key] + untraced["failures"][key]
        for key in gen["failures"]
    }
    gen["attempted"] += untraced["attempted"]
    gen["invalid"] = gen["invalid"] or untraced["invalid"]
    return {"gen": gen, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serving").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    gen = outcome["gen"]
    failed = failed_count(gen)
    correct = failed == 0 and not gen["invalid"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(gen["attempted"])),
        "failed": int(failed),
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
