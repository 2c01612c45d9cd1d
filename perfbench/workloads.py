"""The three workloads: cube data and request streams, all from one seed.

Both the server launcher (``server.py``) and the load generator
(``loadgen.py``) import this module: the launcher to build the cubes it
registers, the generator to rebuild the same cubes as its numpy oracle
and to draw the request stream.  Nothing here imports ``repro``; the
program under test only ever sees the generated inputs.

Every draw comes from ``np.random.default_rng`` seeded by a
``(seed, purpose)`` pair, so the cube data, the warm-up stream and the
timed stream are independent of each other and identical across runs
with the same ``--seed``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

#: Separate stream tags so data, warm-up and timed traffic never share draws.
DATA, WARMUP, TIMED, POOL = 1, 2, 3, 4

#: Values in every seeded cube and fact row lie in ``[0, VALUE_HIGH)``.
VALUE_HIGH = 100


def rng_for(seed: int, purpose: int) -> np.random.Generator:
    """The generator for one ``(seed, purpose)`` pair."""
    return np.random.default_rng([int(seed), int(purpose)])


@dataclass(frozen=True)
class CubeSpec:
    """One cube the server registers from seeded data."""

    name: str
    shape: tuple[int, ...]
    block_size: int
    max_tree: bool


@dataclass(frozen=True)
class FactTable:
    """A seeded fact table the server ingests from CSV."""

    name: str
    shape: tuple[int, ...]
    rows: int


@dataclass(frozen=True)
class Workload:
    """A named traffic mix over its cubes.

    ``rate`` is the open-loop offered rate in requests per second; ``0``
    means a closed loop in which each connection sends its next request
    when the previous reply arrives.
    """

    name: str
    rate: float
    cubes: tuple[CubeSpec, ...] = ()
    #: Fact tables registered through the ``--ingest`` path.
    tables: tuple[FactTable, ...] = ()
    #: Request classes behind ``main_*`` and ``side_*`` metrics.
    classes: dict[str, str] = field(default_factory=dict)


#: The scalar-mix / batch-scan cube: blocked prefix sums plus max trees.
SALES = CubeSpec("sales", (256, 256, 64), block_size=16, max_tree=True)
#: The batch-scan roll-up cube: 4-d, blocked, sum family only.
ROLLUP = CubeSpec("rollup", (64, 64, 64, 16), block_size=16, max_tree=False)

#: Scalar-mix traffic.
SCALAR_OPS = ("sum", "count", "average", "max", "min")
HOT_POOL = 16
HOT_SHARE = 0.3

#: Batch-scan traffic.
BATCH_ROWS = 256
BATCH_OPS = ("sum", "average", "max")
ROLLUP_DIMS = ((0, 1), (0, 2), (1, 2))
ROLLUP_OPS = ("sum", "average")

#: Ingest-update tables.  Under the shared 4 MiB accumulator budget the
#: large table spills through a memmap and is served read-only; the small
#: one builds in memory and takes the updates, the drift and the swap.
#: (Updates to a spilled cube sync its memmaps to disk inside the write
#: lock, and that disk latency varies too much from run to run here.)
FACTS = FactTable("facts", (128, 128, 64), 1_000_000)
RECENT = FactTable("recent", (64, 64, 32), 200_000)
INGEST_CUBOIDS = "0,1;0;1"
INGEST_BUDGET_MB = 4.0
UPDATE_SHARE = 0.2
UPDATE_CELLS = 4
#: MIN, not MAX, is the extreme read: a scalar MAX on the fallback tier
#: answers a witness index of numpy integers that the HTTP layer cannot
#: encode, so the server drops the connection (see ``design.json``).
READ_OPS = ("sum", "min")
#: Share of reads sent to the large spilled table.
FACTS_READ_SHARE = 0.5
#: Constrained dimensions before and after the drift (the small table
#: drifts; the large one keeps the first set).
DIMS_BEFORE = (0, 1)
DIMS_AFTER = (1, 2)
#: Drift and the single adaptive step, as fractions of the timed stream.
DRIFT_AT = 0.4
ADAPT_AT = 0.7

WORKLOADS = {
    "scalar-mix": Workload(
        "scalar-mix",
        rate=150.0,
        cubes=(SALES,),
        classes={"main": "/query sum|count|average", "side": "/query max|min"},
    ),
    "batch-scan": Workload(
        "batch-scan",
        rate=0.0,
        cubes=(SALES, ROLLUP),
        classes={"main": "/query_batch", "side": "/rollup"},
    ),
    "ingest-update": Workload(
        "ingest-update",
        rate=100.0,
        tables=(FACTS, RECENT),
        classes={"main": "/query sum|min", "side": "/update"},
    ),
}

#: Connections the generator opens (the host's two cores).
CONNECTIONS = 2

#: Server set-ups per measured run; ``setup_s`` is their median.
SETUPS = 3


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------


def _data_rng(seed: int, name: str) -> np.random.Generator:
    """The data stream of the cube or table called ``name``."""
    return np.random.default_rng([int(seed), DATA, *name.encode()])


def make_cube(seed: int, spec: CubeSpec) -> np.ndarray:
    """The seeded int64 measure cube for ``spec``."""
    rng = _data_rng(seed, spec.name)
    return rng.integers(0, VALUE_HIGH, size=spec.shape, dtype=np.int64)


def make_facts(seed: int, table: FactTable) -> np.ndarray:
    """Fact rows ``(coords..., measure)`` as one ``(rows, d + 1)`` array."""
    rng = _data_rng(seed, table.name)
    columns = [rng.integers(0, n, size=table.rows) for n in table.shape]
    columns.append(rng.integers(0, VALUE_HIGH, size=table.rows))
    facts = np.stack(columns, axis=1)
    # Pin the far corner so the inferred shape is the declared one.
    facts[0, :-1] = np.asarray(table.shape) - 1
    return facts


def write_facts_csv(path: str, facts: np.ndarray) -> None:
    """Write fact rows as a headered CSV (the ``--ingest`` input)."""
    ndim = facts.shape[1] - 1
    header = ",".join([f"d{j}" for j in range(ndim)] + ["v"])
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for start in range(0, len(facts), 100_000):
            chunk = facts[start : start + 100_000].tolist()
            handle.write("\n".join(",".join(map(str, r)) for r in chunk))
            handle.write("\n")
        # On disk before any server starts: background write-back of this
        # file would otherwise stall the memmap syncs of timed updates.
        handle.flush()
        os.fsync(handle.fileno())


def facts_cube(table: FactTable, facts: np.ndarray) -> np.ndarray:
    """The dense cube an ingest of ``facts`` builds (cell = sum of rows)."""
    cube = np.zeros(table.shape, dtype=np.int64)
    np.add.at(cube, tuple(facts[:, :-1].T), facts[:, -1])
    return cube


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def request_class(workload: str, kind: str, op: str) -> str:
    """``main`` or ``side``: the two request classes of ``workload``."""
    if workload == "scalar-mix":
        return "side" if op in ("max", "min") else "main"
    if workload == "batch-scan":
        return "side" if kind == "rollup" else "main"
    return "side" if kind == "update" else "main"


@dataclass
class Request:
    """One scheduled request; ``body`` is encoded before the clock starts."""

    kind: str  # query | query_batch | rollup | update | adapt
    path: str
    payload: dict
    op: str = ""
    boxes: int = 1


def random_box(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    dims: tuple[int, ...] | None = None,
) -> list:
    """Wire ranges: ``[lo, hi]`` on ``dims`` (default all), ``None`` elsewhere."""
    ranges: list = []
    for dim, extent in enumerate(shape):
        if dims is not None and dim not in dims:
            ranges.append(None)
            continue
        lo = int(rng.integers(0, extent))
        hi = int(rng.integers(lo, extent))
        ranges.append([lo, hi])
    return ranges


def _scalar_mix(
    rng: np.random.Generator, count: int, seed: int
) -> list[Request]:
    """Single /query asks; the hot pool is shared by warm-up and timed."""
    shape = SALES.shape
    pool_rng = rng_for(seed, POOL)
    # Ops cycle through the pool so every seed has the same mix of hot
    # sum-family and max/min entries.
    pool = [
        (SCALAR_OPS[i % len(SCALAR_OPS)], random_box(pool_rng, shape))
        for i in range(HOT_POOL)
    ]
    out = []
    for _ in range(count):
        if rng.random() < HOT_SHARE:
            op, ranges = pool[int(rng.integers(0, HOT_POOL))]
        else:
            op, ranges = str(rng.choice(SCALAR_OPS)), random_box(rng, shape)
        payload = {"cube": SALES.name, "op": op, "ranges": ranges}
        out.append(Request("query", "/query", payload, op))
    return out


def _batch_scan(rng: np.random.Generator, count: int) -> list[Request]:
    """Alternating K-box batches and 2-d roll-up grids.

    Operators and roll-up dimensions cycle, so every seed runs the same
    mix; the seed draws the boxes.
    """
    out = []
    for i in range(count):
        turn = i // 2
        if i % 2 == 0:
            op = BATCH_OPS[turn % len(BATCH_OPS)]
            queries = [random_box(rng, SALES.shape) for _ in range(BATCH_ROWS)]
            payload = {"cube": SALES.name, "op": op, "queries": queries}
            out.append(
                Request("query_batch", "/query_batch", payload, op,
                        boxes=BATCH_ROWS)
            )
        else:
            op = ROLLUP_OPS[turn % len(ROLLUP_OPS)]
            dims = ROLLUP_DIMS[turn % len(ROLLUP_DIMS)]
            cells = int(np.prod([ROLLUP.shape[d] for d in dims]))
            payload = {"cube": ROLLUP.name, "op": op, "dims": list(dims)}
            out.append(
                Request("rollup", "/rollup", payload, op, boxes=cells)
            )
    return out


def _ingest_update(
    rng: np.random.Generator, count: int, timed: bool
) -> list[Request]:
    """Reads of both tables and updates of the small one.

    The timed stream drifts the small table's constrained dimensions at
    ``DRIFT_AT`` and triggers one adaptive step on it at ``ADAPT_AT``.
    """
    drift_at = int(count * DRIFT_AT) if timed else count
    out = []
    for i in range(count):
        if rng.random() < UPDATE_SHARE:
            updates = [
                {
                    "index": [int(rng.integers(0, n)) for n in RECENT.shape],
                    "delta": int(rng.integers(1, 10)),
                }
                for _ in range(UPDATE_CELLS)
            ]
            payload = {"cube": RECENT.name, "updates": updates}
            out.append(
                Request("update", "/update", payload, "update", boxes=0)
            )
            continue
        op = str(rng.choice(READ_OPS))
        if rng.random() < FACTS_READ_SHARE:
            table, dims = FACTS, DIMS_BEFORE
        else:
            table = RECENT
            dims = DIMS_BEFORE if i < drift_at else DIMS_AFTER
        payload = {"cube": table.name, "op": op,
                   "ranges": random_box(rng, table.shape, dims)}
        out.append(Request("query", "/query", payload, op))
    if timed:
        at = int(count * ADAPT_AT)
        out.insert(at, Request("adapt", "/_bench/adapt", {"cube": RECENT.name}))
    return out


def make_requests(
    workload: Workload, seed: int, purpose: int, count: int
) -> list[Request]:
    """``count`` requests of ``workload`` (plus one adapt trigger when timed)."""
    rng = rng_for(seed, purpose)
    if workload.name == "scalar-mix":
        return _scalar_mix(rng, count, seed)
    if workload.name == "batch-scan":
        return _batch_scan(rng, count)
    return _ingest_update(rng, count, timed=purpose == TIMED)


def encode(request: Request) -> bytes:
    """The full HTTP/1.1 request bytes for ``request``."""
    body = json.dumps(request.payload, separators=(",", ":")).encode()
    head = (
        f"POST {request.path} HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body
