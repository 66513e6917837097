"""Golden output of the radial solver: every bit of every state spectrum solves.

The spectrum goldens under ``tests/golden/*.out`` carry energies only, so a
diagnostic could drift unseen.  ``tests/golden/radial_solutions.json`` holds,
for spectrum's 64 states (``--max-n 8``) at Z = 1, 37 and 92 under both
phase bivectors, each state's energy and decay as ``float.hex``, a SHA-256 of
its coefficient bytes and every diagnostic (floats as ``float.hex``), or its
error string.  It was last written when the series became one Dirac pair
picked by block index (block 4 for every state here), which changed every
coefficient hash, every ``termination_relative`` and most
``indicial_residual`` values, but no energy, decay, kernel dimension,
vacuity or error.  To
rewrite it on a trusted build, run ``PYTHONPATH=src python
tests/test_radial_golden.py``: it prints, per record field, how many states
changed against the file it replaces.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fermion5d.cli import _spectrum_states
from fermion5d.constants import FINE_STRUCTURE
from fermion5d.coulomb import CoulombParams, solve_radials
from fermion5d.wave import GammaChoice

GOLDEN = Path(__file__).parent / "golden" / "radial_solutions.json"
CHARGES = (1, 37, 92)


def _record(result) -> dict:
    if isinstance(result, RuntimeError):
        return {"error": str(result)}
    return {
        "energy": result.energy.hex(),
        "decay": result.series.decay.hex(),
        "coefficients_sha256": hashlib.sha256(result.series.coefficients.tobytes()).hexdigest(),
        "diagnostics": {
            name: value.hex() if isinstance(value, float) else value
            for name, value in result.diagnostics.items()
        },
    }


def radial_records() -> dict:
    """``{"<variant> Z=<z>": {"kappa=<k>, n_r=<n>": record}}`` for every case."""
    records = {}
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        for z in CHARGES:
            states = _spectrum_states(8)
            params = [CoulombParams(1.0, z * FINE_STRUCTURE, kappa, n_r, gamma)
                      for kappa, n_r in states]
            records[f"{gamma.variant} Z={z}"] = {
                f"kappa={kappa}, n_r={n_r}": _record(result)
                for (kappa, n_r), result in zip(states, solve_radials(params))
            }
    return records


def test_every_radial_solution_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    records = radial_records()
    assert list(records) == list(golden)
    for case, states in golden.items():
        assert len(states) == 64, case
        for state, record in states.items():
            assert records[case][state] == record, (case, state)


def test_the_regeneration_summary_counts_the_states_each_field_changed_in():
    old, new = (json.loads(GOLDEN.read_text()) for _ in range(2))
    records = [record for states in new.values() for record in states.values()]
    records[0]["energy"] = records[1]["diagnostics"]["termination_vacuity"] = "0x0p+0"
    del records[2]["decay"]
    summary = changed_fields(old, new)
    changed = {name: count for name, (count, total) in summary.items() if count}
    assert changed == {"energy": 1, "decay": 1, "diagnostics.termination_vacuity": 1}
    assert {total for _, total in summary.values()} == {384}


def _fields(record: dict) -> dict:
    """A record's fields, the diagnostics one by one."""
    fields = {name: value for name, value in record.items() if name != "diagnostics"}
    fields.update((f"diagnostics.{name}", value)
                  for name, value in record.get("diagnostics", {}).items())
    return fields


def changed_fields(old: dict, new: dict) -> dict:
    """``{field: (states whose field changed, states)}`` over the records of the
    ``new`` golden document; a field present on one side only counts as changed."""
    pairs = [(_fields(old.get(case, {}).get(state, {})), _fields(record))
             for case, states in new.items() for state, record in states.items()]
    names = sorted({name for pair in pairs for fields in pair for name in fields})
    return {name: (sum(a.get(name) != b.get(name) for a, b in pairs), len(pairs))
            for name in names}


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = radial_records()
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    for name, (changed, total) in changed_fields(old, new).items():
        print(f"{name}: {changed} of {total} states changed")
