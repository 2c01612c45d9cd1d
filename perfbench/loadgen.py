"""The load generator: one process, at most two keep-alive connections.

Run by ``run.py`` against a server it launched::

    python3 perfbench/loadgen.py --workload scalar-mix --seed 1 \\
        --port 8787 --server-pid 1234 --seconds 20 --out gen.json

Every request body is encoded before the clock starts.  Each connection
is a thread with a blocking socket: in an open loop it takes the next
scheduled request, sleeps until that request is due and sends it, so a
reply that is slow delays the requests queued behind it and their
latency, measured from the due time, shows the stall.  In a closed loop
each connection sends its next request as soon as a reply arrives.

After the clock stops the generator rebuilds the cubes from the seed and
checks every reply (warm-up included) against a numpy oracle.  It also
reads the server's CPU time and peak RSS from ``/proc/<pid>`` and takes
``/stats`` and ``/design`` snapshots on either side of the timed phase.
The result is one JSON file for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

#: A run is invalid when the generator's median lateness (send time
#: minus the later of due time and a free connection) exceeds this share
#: of the median latency it measured: it would then time itself.
LATE_SHARE_LIMIT = 0.05

#: The last stretch before a due time is spun, not slept.
SPIN_S = 0.0005

#: Warm-up before the timed phase (not timed; replies still checked).
WARMUP_S = 1.5
CLOSED_WARMUP_REQUESTS = 4

#: Socket timeout: a server that hangs fails the run instead of the host.
SOCKET_TIMEOUT_S = 60.0


class Connection:
    """One keep-alive HTTP/1.1 connection with a buffered reader."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(SOCKET_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def exchange(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; return ``(status, body)`` of its reply."""
        self.sock.sendall(raw)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self.reader.read(length)
        if len(body) != length:
            raise ConnectionError("short reply body")
        return status, body

    def get(self, path: str) -> dict:
        raw = (
            f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"
        ).encode("latin-1")
        status, body = self.exchange(raw)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body!r}")
        return json.loads(body)

    def post(self, path: str, payload: dict) -> dict:
        request = wl.Request("control", path, payload)
        status, body = self.exchange(wl.encode(request))
        if status != 200:
            raise RuntimeError(f"POST {path} answered {status}: {body!r}")
        return json.loads(body)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Sent:
    """Timestamps and reply of one request (``perf_counter`` seconds)."""

    due: float = 0.0
    grab: float = 0.0
    send: float = 0.0
    recv: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""


def wait_until(due: float) -> None:
    """Sleep until ``due``; spin the last stretch, where a sleeping
    thread wakes late, yielding the interpreter lock as it spins."""
    remaining = due - time.perf_counter()
    if remaining > SPIN_S:
        time.sleep(remaining - SPIN_S)
    while time.perf_counter() < due:
        time.sleep(0)


def drive(
    conns: list[Connection],
    raws: list[bytes],
    rate: float,
    seconds: float,
) -> tuple[list[Sent | None], float, float]:
    """Run one phase; returns per-request records and its start/end.

    Open loop (``rate > 0``): request ``i`` is due ``i / rate`` seconds
    after the start.  Closed loop: every connection keeps one request
    outstanding until ``seconds`` have passed.
    """
    records: list[Sent | None] = [None] * len(raws)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    deadline = start + seconds

    def worker(conn: Connection) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(raws):
                return
            grab = time.perf_counter()
            if rate > 0:
                due = start + i / rate
                wait_until(due)
            else:
                if grab >= deadline:
                    return
                due = grab
            rec = Sent(due=due, grab=grab)
            rec.send = time.perf_counter()
            try:
                rec.status, rec.body = conn.exchange(raws[i])
            except (OSError, ValueError, IndexError) as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
            rec.recv = time.perf_counter()
            records[i] = rec
            if rec.error:
                return  # this connection is no longer usable

    threads = [
        threading.Thread(target=worker, args=(conn,), daemon=True)
        for conn in conns
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r.recv for r in records if r is not None), default=start)
    return records, start, end


# ----------------------------------------------------------------------
# Server-side resource readings (from outside the server process)
# ----------------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """On-CPU seconds of ``pid``, summed over its threads.

    Read from each thread's ``schedstat`` (nanoseconds) rather than the
    user and system ticks of ``/proc/<pid>/stat``: at 100 ticks a second
    the tick counts of a server busy in millisecond bursts are a sample
    that alone varies by about 5% over a 20-second run.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            continue  # the thread exited between listing and reading
    return total / 1e9


def proc_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of ``pid`` in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """Numpy reference answers over one static cube."""

    def __init__(self, cube: np.ndarray) -> None:
        self.cube = cube
        padded = np.zeros(tuple(n + 1 for n in cube.shape), dtype=np.int64)
        padded[tuple(slice(1, None) for _ in cube.shape)] = cube
        for axis in range(cube.ndim):
            np.cumsum(padded, axis=axis, out=padded)
        self.prefix = padded
        self.top = int(cube.max())
        self.bottom = int(cube.min())

    def box_sum(self, lo: list[int], hi: list[int]) -> int:
        """Inclusion-exclusion over the padded prefix array."""
        total = 0
        ndim = len(lo)
        for corner in range(1 << ndim):
            index = []
            sign = 1
            for dim in range(ndim):
                if corner >> dim & 1:
                    index.append(lo[dim])
                    sign = -sign
                else:
                    index.append(hi[dim] + 1)
            total += sign * int(self.prefix[tuple(index)])
        return total


def bounds(ranges: list, shape: tuple[int, ...]) -> tuple[list, list]:
    lo, hi = [], []
    for entry, extent in zip(ranges, shape):
        if entry is None:
            lo.append(0)
            hi.append(extent - 1)
        else:
            lo.append(int(entry[0]))
            hi.append(int(entry[1]))
    return lo, hi


def window(cube: np.ndarray, lo: list, hi: list) -> np.ndarray:
    return cube[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]


def check_extreme(
    oracle: Oracle, lo: list, hi: list, op: str, index: list, value: object
) -> bool:
    """A MAX/MIN witness: inside the box, holds ``value``, is extreme."""
    cube = oracle.cube
    if len(index) != cube.ndim or not all(
        a <= i <= b for a, i, b in zip(lo, index, hi)
    ):
        return False
    if int(cube[tuple(index)]) != value:
        return False
    # A witness at the cube's own extreme needs no scan of the box.
    if value == (oracle.top if op == "max" else oracle.bottom):
        return True
    part = window(cube, lo, hi)
    return value == int(part.max() if op == "max" else part.min())


def same_float(a: object, b: float) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=1e-12)


def check_scalar(oracle: Oracle, payload: dict, reply: dict) -> bool:
    cube = oracle.cube
    op = payload["op"]
    lo, hi = bounds(payload["ranges"], cube.shape)
    value = reply.get("value")
    if op in ("max", "min"):
        return check_extreme(oracle, lo, hi, op, reply.get("index", []), value)
    volume = int(np.prod([b - a + 1 for a, b in zip(lo, hi)]))
    total = oracle.box_sum(lo, hi)
    if op == "sum":
        return value == total
    if op == "count":
        return value == volume
    return same_float(value, total / volume)


def check_batch(oracle: Oracle, payload: dict, reply: dict) -> bool:
    op = payload["op"]
    queries = payload["queries"]
    if op == "max":
        indices, values = reply.get("indices", []), reply.get("values", [])
        if len(indices) != len(queries) or len(values) != len(queries):
            return False
        return all(
            check_extreme(oracle, *bounds(q, oracle.cube.shape), op, i, v)
            for q, i, v in zip(queries, indices, values)
        )
    values = reply.get("values", [])
    if len(values) != len(queries):
        return False
    for ranges, value in zip(queries, values):
        scalar = check_scalar(oracle, {"op": op, "ranges": ranges},
                              {"value": value})
        if not scalar:
            return False
    return True


def check_rollup(cube: np.ndarray, payload: dict, reply: dict) -> bool:
    dims = payload["dims"]
    others = tuple(d for d in range(cube.ndim) if d not in dims)
    # The sum keeps dims in ascending order; the reply is row-major over
    # ``dims`` in request order.
    grid = cube.sum(axis=others)
    expected = np.transpose(grid, [sorted(dims).index(d) for d in dims]).ravel()
    values = reply.get("values", [])
    if len(values) != expected.size:
        return False
    if payload["op"] == "sum":
        return bool(np.array_equal(np.asarray(values), expected))
    volume = int(np.prod([cube.shape[d] for d in others]))
    return all(same_float(v, int(e) / volume) for v, e in zip(values, expected))


def check_static(
    workload: wl.Workload, seed: int, done: list[tuple[wl.Request, dict]]
) -> list[int]:
    """Positions in ``done`` whose reply disagrees with the oracle."""
    oracles = {
        spec.name: Oracle(wl.make_cube(seed, spec)) for spec in workload.cubes
    }
    wrong = []
    for position, (request, reply) in enumerate(done):
        oracle = oracles[request.payload["cube"]]
        if request.kind == "query":
            ok = check_scalar(oracle, request.payload, reply)
        elif request.kind == "query_batch":
            ok = check_batch(oracle, request.payload, reply)
        else:
            ok = check_rollup(oracle.cube, request.payload, reply)
        if not ok:
            wrong.append(position)
    return wrong


def check_versioned(
    workload: wl.Workload,
    seed: int,
    done: list[tuple[wl.Request, dict, Sent]],
    swap_generations: dict[str, list[int]],
) -> tuple[list[int], str]:
    """Check reads against the oracle state of their cube's generation.

    Updates apply in generation order and a swap takes a generation
    without changing data.  A reply is stamped with the generation read
    *before* it computed, so an update that landed while the read waited
    may already be visible: such a read also passes against the states
    of updates sent before its reply arrived.
    """
    wrong = []
    for table in workload.tables:
        state = wl.facts_cube(table, wl.make_facts(seed, table))
        mine = [
            (position, request, reply, sent)
            for position, (request, reply, sent) in enumerate(done)
            if request.payload["cube"] == table.name
        ]
        updates = sorted(
            (reply["generation"], sent.send, request.payload["updates"])
            for _, request, reply, sent in mine
            if request.kind == "update"
        )
        taken = [g for g, _, _ in updates] + swap_generations[table.name]
        if sorted(taken) != list(range(1, len(taken) + 1)):
            return [], (f"{table.name}: generations are not "
                        f"1..{len(taken)}: {sorted(taken)}")
        reads = sorted(
            (reply["generation"], position, request, reply, sent)
            for position, request, reply, sent in mine
            if request.kind == "query"
        )
        applied = 0
        for generation, position, request, reply, sent in reads:
            while applied < len(updates) and updates[applied][0] <= generation:
                for cell in updates[applied][2]:
                    state[tuple(cell["index"])] += cell["delta"]
                applied += 1
            lo, hi = bounds(request.payload["ranges"], state.shape)
            part = window(state, lo, hi)
            if _matches(part, lo, request.payload["op"], reply):
                continue
            part = part.copy()
            later = [u for u in updates[applied:] if u[1] < sent.recv]
            for _, _, cells in later:
                for cell in cells:
                    index = cell["index"]
                    if all(a <= i <= b for a, i, b in zip(lo, index, hi)):
                        local = tuple(i - a for i, a in zip(index, lo))
                        part[local] += cell["delta"]
                if _matches(part, lo, request.payload["op"], reply):
                    break
            else:
                wrong.append(position)
    return wrong, ""


def _matches(part: np.ndarray, lo: list, op: str, reply: dict) -> bool:
    value = reply.get("value")
    if op == "sum":
        return value == int(part.sum())
    index = reply.get("index", [])
    local = [i - a for i, a in zip(index, lo)]
    if len(local) != part.ndim or not all(
        0 <= j < n for j, n in zip(local, part.shape)
    ):
        return False
    extreme = part.max() if op == "max" else part.min()
    return value == int(part[tuple(local)]) == int(extreme)


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    if workload.rate > 0:
        warm = wl.make_requests(
            workload, args.seed, wl.WARMUP, int(workload.rate * WARMUP_S)
        )
        timed = wl.make_requests(
            workload, args.seed, wl.TIMED, int(workload.rate * args.seconds)
        )
    else:
        warm = wl.make_requests(
            workload, args.seed, wl.WARMUP, CLOSED_WARMUP_REQUESTS
        )
        timed = wl.make_requests(
            workload, args.seed, wl.TIMED, int(25 * args.seconds)
        )
    warm_raw = [wl.encode(r) for r in warm]
    timed_raw = [wl.encode(r) for r in timed]

    conns = [Connection(args.port) for _ in range(wl.CONNECTIONS)]
    control = conns[0]
    try:
        warm_records, _, _ = drive(conns, warm_raw, workload.rate, WARMUP_S)
        stats_before = control.get("/stats")
        design_before = control.get("/design")
        control.post("/_bench/phase", {"name": "timed"})
        cpu_before = proc_cpu_s(args.server_pid)
        records, start, end = drive(
            conns, timed_raw, workload.rate, args.seconds
        )
        cpu_after = proc_cpu_s(args.server_pid)
        hwm_kb = proc_hwm_kb(args.server_pid)
        control.post("/_bench/phase", {"name": "done"})
        adapt = None
        if any(r.kind == "adapt" for r in timed):
            for _ in range(600):
                adapt = control.get("/_bench/adapt")
                if adapt.get("done"):
                    break
                time.sleep(0.05)
        stats_after = control.get("/stats")
        design_after = control.get("/design")
    finally:
        for conn in conns:
            conn.close()

    # -------------------------------------------------------------- checks
    failures: dict[str, int] = {"non2xx": 0, "transport": 0, "wrong": 0,
                                "unsent": 0}
    done: list = []  # (request, reply, sent) of every 2xx reply
    timed_rows: list = []  # positions in ``done`` of timed replies
    for requests, recs, is_timed in ((warm, warm_records, False),
                                     (timed, records, True)):
        for request, rec in zip(requests, recs):
            if rec is None:
                if is_timed and workload.rate > 0:
                    failures["unsent"] += 1
                continue
            if request.kind == "adapt":
                continue
            if rec.error:
                failures["transport"] += 1
                continue
            if rec.status != 200:
                failures["non2xx"] += 1
                continue
            reply = json.loads(rec.body)
            rec.body = b""
            done.append((request, reply, rec))
            if is_timed:
                timed_rows.append(len(done) - 1)

    swaps = 0
    invalid = ""
    if workload.tables:
        swap_generations = {
            table.name: [
                int(h["generation"])
                for h in design_after[table.name]["swap_history"]
            ]
            for table in workload.tables
        }
        swaps = sum(len(g) for g in swap_generations.values())
        if swaps != 1 or len(swap_generations[wl.RECENT.name]) != 1:
            invalid = f"expected exactly one adaptive swap, saw {swaps}"
        if adapt is None or not adapt.get("done") or adapt.get("error"):
            invalid = f"adaptive step did not finish cleanly: {adapt}"
        wrong, why = check_versioned(workload, args.seed, done,
                                     swap_generations)
        invalid = invalid or why
    else:
        wrong = check_static(
            workload, args.seed, [(req, reply) for req, reply, _ in done]
        )
    failures["wrong"] = len(wrong)
    wrong_set = set(wrong)

    # ------------------------------------------------------------- summary
    lat: dict[str, list[float]] = {}
    service_lat: dict[str, list[float]] = {}
    late: list[float] = []
    tiers: dict[str, int] = {}
    indexed_boxes = {"sum": 0, "extreme": 0}
    boxes = 0
    for position in timed_rows:
        if position in wrong_set:
            continue
        request, reply, rec = done[position]
        latency = (rec.recv - rec.due) * 1e3
        cls = wl.request_class(workload.name, request.kind, request.op)
        for key in (cls, request.kind):
            lat.setdefault(key, []).append(latency)
        service_lat.setdefault(request.kind, []).append(
            (rec.recv - rec.send) * 1e3
        )
        late.append(max(0.0, rec.send - max(rec.due, rec.grab)) * 1e3)
        boxes += request.boxes
        tier = reply.get("tier")
        if tier is not None:
            tiers[tier] = tiers.get(tier, 0) + request.boxes
            if tier == "indexed":
                family = "extreme" if request.op in ("max", "min") else "sum"
                indexed_boxes[family] += request.boxes
    attempted = len(timed) - sum(1 for r in timed if r.kind == "adapt")
    if workload.rate <= 0:
        attempted = sum(1 for r in records if r is not None)
        if records[-1] is not None:
            invalid = invalid or "closed-loop stream ran out of requests"
    completed = len(timed_rows)
    late_p50 = statistics.median(late) if late else 0.0
    measured_p50 = statistics.median(lat.get("main", [0.0]))
    if late_p50 > LATE_SHARE_LIMIT * measured_p50:
        invalid = invalid or (
            f"generator ran {late_p50:.3f} ms late at the median, over "
            f"{LATE_SHARE_LIMIT:.0%} of the {measured_p50:.3f} ms it measured"
        )
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "invalid": invalid,
        "attempted": attempted,
        "completed": completed,
        "failures": failures,
        "elapsed_s": end - start,
        "boxes": boxes,
        "latency_ms": lat,
        "service_latency_ms": service_lat,
        "late_ms": late,
        "tiers": tiers,
        "indexed_boxes": indexed_boxes,
        "server_cpu_s": cpu_after - cpu_before,
        "server_hwm_kb": hwm_kb,
        "stats_before": stats_before,
        "stats_after": stats_after,
        "design_before": design_before,
        "design_after": design_after,
        "checked": len(done),
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
