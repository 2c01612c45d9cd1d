"""The regression gate every ``--baseline`` benchmark run goes through.

Each gated benchmark compares *ratios* — two code paths timed on the
same machine — so the gate is machine-independent: a row fails when its
ratio falls below half the recorded one.  Absolute times never enter the
comparison, so a slower machine does not trip it.  A run that matches no
recorded row fails as well: a gate that compared nothing proves nothing.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from pathlib import Path


def _identity(row: dict, fields: tuple[str, ...]) -> tuple:
    return tuple(
        tuple(row[f]) if isinstance(row[f], list) else row[f] for f in fields
    )


def check_ratios(
    payload: dict,
    baseline_path: Path,
    *,
    metric: str,
    what: str,
    fields: tuple[str, ...] = (),
    rows: Callable[[dict], Iterable[dict]] = lambda p: [p],
) -> None:
    """Fail when a ratio regresses more than 2x against the baseline.

    Args:
        payload: This run's benchmark payload.
        baseline_path: The recorded ``BENCH_*.json``.
        metric: The ratio compared (higher is better).
        what: Names the ratio in messages.
        fields: The fields that identify a row; rows of the run and of
            the baseline with equal fields are compared.  Empty for a
            payload that is itself the one row.
        rows: Extracts the rows from a payload (run and baseline alike).

    Raises:
        SystemExit: A matched ratio is below half the recorded one, or no
            recorded row matched a row of this run.
    """
    baseline = json.loads(baseline_path.read_text())
    current = {_identity(row, fields): row for row in rows(payload)}
    compared = 0
    failures = []
    for row in rows(baseline):
        match = current.get(_identity(row, fields))
        if match is None or metric not in row:
            continue  # e.g. smoke runs trim the configurations
        compared += 1
        if match[metric] < row[metric] / 2.0:
            label = " ".join(f"{f}={row[f]}" for f in fields) or what
            failures.append(
                f"{label}: {match[metric]:.2f}x < half the baseline's "
                f"{row[metric]:.2f}x"
            )
    if not compared:
        raise SystemExit(
            f"no {what} of this run matches a row of {baseline_path.name}; "
            "the gate compared nothing"
        )
    if failures:
        raise SystemExit(
            f"{what} regressed >2x vs {baseline_path.name}:\n  "
            + "\n  ".join(failures)
        )
    print(f"{compared} {what} value(s) within 2x of {baseline_path.name}")
