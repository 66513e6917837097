"""Golden outputs of the command line: exit code and stdout, byte for byte.

The files under ``tests/golden/`` were written by the CLI before the
gradient, pair-equation and operator-matrix code was merged into shared
helpers, the two ``verify`` cases with ``--trials`` before the verify
checks ran on batched coefficient arrays, the three spectrum cases at
Z = 92, Z = 37 and alpha = 1e-6 before the radial recurrence was inverted in
one batched call, the two at the plane-wave cap (``--trials`` 25 and 26)
before the plane waves were built and checked as one batch, and the one at
Z = 80 with ``--max-n 12`` before the radial states of a request were solved
as one batch; a refactor that changes any output bit fails here.  The 13
JSON files were regenerated once when every check gained ``worst_at``, the
flat index of its worst per-sample gap: with ``worst_at`` removed from each
check and the document re-rendered with ``json.dumps(indent=2,
ensure_ascii=False) + "\n"``, each equals its previous bytes, so no check's
name, status, measured bits or tolerance moved; the 7 table and CSV files
did not change.  The 12 ``verify``, ``planewave`` and ``beyond --demo
scalar`` files were regenerated once more when the plane-wave amplitudes
took their closed form: only ``measured`` and ``worst_at`` values moved,
and every spectrum file stayed byte-identical.  To add a case,
run ``python -m fermion5d <argv> > tests/golden/<name>.out`` on a trusted
build and add a row below.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from fermion5d.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_seed42_json": (["verify", "--seed", "42", "--format", "json"], 0),
    "verify_seed42_corrupt_json": (
        ["verify", "--seed", "42", "--format", "json", "--debug-corrupt-metric"],
        1,
    ),
    # 300 associativity trials are not a whole number of batches, 1 is the
    # smallest batch
    "verify_seed7_trials300_json": (
        ["verify", "--seed", "7", "--trials", "300", "--format", "json"],
        0,
    ),
    "verify_seed5_trials1_json": (
        ["verify", "--seed", "5", "--trials", "1", "--format", "json"],
        0,
    ),
    # 25 plane waves per phase bivector is the cap: 26 trials build no more
    "verify_seed3_trials25_json": (
        ["verify", "--seed", "3", "--trials", "25", "--format", "json"],
        0,
    ),
    "verify_seed3_trials26_json": (
        ["verify", "--seed", "3", "--trials", "26", "--format", "json"],
        0,
    ),
    "spectrum_json": (["spectrum", "--format", "json"], 0),
    "spectrum_max_n4_csv": (["spectrum", "--max-n", "4", "--format", "csv"], 0),
    # strong and weak coupling pin the bisection away from Z = 1
    "spectrum_z92_max_n8_json": (
        ["spectrum", "--z", "92", "--max-n", "8", "--format", "json"],
        0,
    ),
    "spectrum_z37_max_n8_csv": (
        ["spectrum", "--z", "37", "--max-n", "8", "--format", "csv"],
        0,
    ),
    "spectrum_alpha1e-6_json": (["spectrum", "--alpha", "1e-6", "--format", "json"], 0),
    # n_r up to 11, and up to 22 states that share one n_r
    "spectrum_z80_max_n12_csv": (
        ["spectrum", "--z", "80", "--max-n", "12", "--format", "csv"],
        0,
    ),
    "planewave_default": (["planewave"], 0),
    "planewave_default_json": (["planewave", "--format", "json"], 0),
    "planewave_k4_e0e": (["planewave", "--k4", "0.3", "--gamma", "e0e"], 0),
    "planewave_k4_e0e_json": (
        ["planewave", "--k4", "0.3", "--gamma", "e0e", "--format", "json"],
        0,
    ),
    "beyond_scalar": (["beyond", "--demo", "scalar"], 0),
    "beyond_scalar_json": (["beyond", "--demo", "scalar", "--format", "json"], 0),
    "beyond_sources": (["beyond", "--demo", "sources"], 0),
    "beyond_sources_json": (["beyond", "--demo", "sources", "--format", "json"], 0),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_file(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
