"""Deterministic result documents for the command-line tools.

A :class:`ReportDocument` is a flat record of named checks with measured
values and tolerances.  Rendering is deterministic: identical inputs produce
byte-identical JSON (fixed key order, no timestamps, negative zeros
normalized), so documents can be diffed and archived by CI.

A measured check is built from its per-sample gaps (:func:`make_check`): one
entry per trial, point, state, matrix or candidate, in the order the command
draws or builds them.  The check reports the largest gap as ``measured`` and
its flat index as ``worst_at``, so a failing sample can be rebuilt from the
document's ``inputs`` and the index alone.  For ``verify`` the index counts
the check's trials, sample rows, matrices or candidates; for ``spectrum`` the
table rows; for ``planewave`` and ``beyond`` the sample points.  Skipped and
purely structural checks have ``worst_at`` null.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Check",
    "ReportDocument",
    "make_check",
    "rows_to_csv",
]

_STATUSES = ("pass", "fail", "skipped")


def _clean_number(value: float | int | None) -> float | int | None:
    """Normalize floats for stable rendering (folds -0.0 into 0.0)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    return float(value) + 0.0


@dataclass(frozen=True)
class Check:
    """One named verification with its outcome.

    ``paper_ref`` is a stable tag identifying which claim family the check
    exercises (used by downstream tooling to group results); ``measured``,
    ``tolerance`` and ``worst_at`` may be None for purely structural or
    skipped checks.  ``worst_at`` is the flat index of the worst sample.
    """

    name: str
    paper_ref: str
    status: str
    measured: float | None = None
    tolerance: float | None = None
    worst_at: int | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "measured": _clean_number(self.measured),
            "tolerance": _clean_number(self.tolerance),
            "worst_at": self.worst_at,
        }


def make_check(name: str, paper_ref: str, gaps, tolerance: float) -> Check:
    """Build a pass/fail check from per-sample gaps: passes iff the largest
    gap is ``<= tolerance``.

    ``gaps`` is a scalar, an array or a list of those, concatenated in order
    (C order within an array).  The check measures their ``np.max`` and
    records its flat index as ``worst_at``; a NaN is both the maximum and,
    the first one, the argmax, so it fails.  Exact structural claims use
    ``tolerance=0.0`` (a measured 0.0 passes).  A non-finite measured value
    (NaN, +-inf) fails and is reported as null, so the JSON rendering stays
    valid.
    """
    parts = gaps if isinstance(gaps, list) else [gaps]
    flat = np.concatenate([np.ravel(part) for part in parts])
    measured, worst_at = float(np.max(flat)), int(np.argmax(flat))
    if not math.isfinite(measured):
        return Check(name, paper_ref, "fail", None, tolerance, worst_at)
    status = "pass" if measured <= tolerance else "fail"
    return Check(name, paper_ref, status, measured, tolerance, worst_at)


@dataclass
class ReportDocument:
    """Outcome of one CLI command: inputs echoed, checks, and a summary."""

    command: str
    inputs: Mapping[str, object]
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skipped")

    def exit_code(self) -> int:
        """0 iff no check failed."""
        return 0 if self.failed == 0 else 1

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": {k: _clean_number(v) if isinstance(v, float) else v
                       for k, v in self.inputs.items()},
            "checks": [c.as_dict() for c in self.checks],
            "summary": {"passed": self.passed, "failed": self.failed},
        }

    def to_json(self) -> str:
        """One UTF-8 JSON document, newline-terminated, byte-stable."""
        return json.dumps(self.as_dict(), indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"

    def to_table(self) -> str:
        """Human-readable fixed-width rendering with a summary line."""
        rows = []
        name_width = max([len(c.name) for c in self.checks] + [len("check")])
        header = f"{'check':<{name_width}}  {'status':<7}  {'measured':>12}  {'tolerance':>12}"
        rows.append(header)
        rows.append("-" * len(header))
        for c in self.checks:
            measured = "-" if c.measured is None else f"{c.measured:.3e}"
            tolerance = "-" if c.tolerance is None else f"{c.tolerance:.1e}"
            rows.append(
                f"{c.name:<{name_width}}  {c.status:<7}  {measured:>12}  {tolerance:>12}"
            )
        rows.append("-" * len(header))
        rows.append(
            f"{self.command}: {self.passed} passed, {self.failed} failed, "
            f"{self.skipped} skipped"
        )
        return "\n".join(rows) + "\n"


def rows_to_csv(fieldnames: Sequence[str], rows: Sequence[Mapping[str, object]]) -> str:
    """Render mapping rows as CSV with a fixed header and LF line endings."""
    import csv  # only ``--format csv`` renders CSV, so an import does not load it

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in fieldnames})
    return buf.getvalue()
