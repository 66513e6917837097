"""Golden output of the radial solver: every bit of every state spectrum solves.

The spectrum goldens under ``tests/golden/*.out`` carry energies only, so a
diagnostic could drift unseen.  ``tests/golden/radial_solutions.json`` holds,
for spectrum's 64 states (``--max-n 8``) at Z = 1, 37 and 92 under both
phase bivectors, each state's energy and decay as ``float.hex``, a SHA-256 of
its coefficient bytes and every diagnostic (floats as ``float.hex``), or its
error string.  It was written before the decay bisection started from a
narrow bracket around the closed-form guess.  To rewrite it on a trusted
build, run ``PYTHONPATH=src python tests/test_radial_golden.py``.
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(radial_records(), indent=1) + "\n")
