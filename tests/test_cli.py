"""End-to-end tests of the command-line interface and its report contract.

Covers: exit-code semantics (0 = all checks pass, 1 = a check failed,
2 = usage error), byte-identical JSON/CSV rendering across runs, the report
document schema, and the negative control that forces a failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermion5d
from fermion5d import _kernels, beyond, cli, coulomb, report
from fermion5d.algebra import CL32, CL41, Multivector, e, pseudoscalar
from fermion5d.cli import main
from fermion5d.constants import ELECTRON_MASS_EV, FINE_STRUCTURE
from fermion5d.coulomb import solve_radial_columns
from fermion5d.fields import AnalyticField, PhaseField
from fermion5d.report import ReportDocument, make_check

CHECK_KEYS = ["name", "paper_ref", "status", "measured", "tolerance", "worst_at"]
DOCUMENT_KEYS = ["command", "inputs", "checks", "summary"]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as ex:
        code = ex.code if isinstance(ex.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_document(stdout: str) -> dict:
    assert stdout.endswith("\n")
    return json.loads(stdout)


def assert_schema(doc: dict):
    assert list(doc.keys()) == DOCUMENT_KEYS
    assert isinstance(doc["inputs"], dict)
    statuses = {"pass": 0, "fail": 0, "skipped": 0}
    for check in doc["checks"]:
        assert list(check.keys()) == CHECK_KEYS
        worst_at = check["worst_at"]
        assert worst_at is None or (type(worst_at) is int and worst_at >= 0)
        assert check["status"] in statuses
        statuses[check["status"]] += 1
    assert doc["summary"] == {
        "passed": statuses["pass"],
        "failed": statuses["fail"],
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_reports_a_summary(capsys):
    code, out, _ = run_cli(["verify", "--trials", "25"], capsys)
    assert code == 0
    assert "pseudoscalar-square-unit" in out
    assert "bound-state-cross-check" in out
    assert "verify:" in out and "0 failed" in out


def test_verify_json_schema_and_exit_contract(capsys):
    code, out, _ = run_cli(["verify", "--trials", "25", "--format", "json"], capsys)
    doc = load_document(out)
    assert_schema(doc)
    assert doc["command"] == "verify"
    assert doc["summary"]["failed"] == 0 and code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "plane-wave-reduction" in names
    assert "scalar-demo-equivalence" in names


def test_verify_json_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(["verify", "--trials", "25", "--format", "json"], capsys)
    _, second, _ = run_cli(["verify", "--trials", "25", "--format", "json"], capsys)
    assert first == second


def test_verify_negative_control_fails(capsys):
    code, out, _ = run_cli(
        ["verify", "--trials", "5", "--debug-corrupt-metric", "--format", "json"],
        capsys,
    )
    assert code == 1
    doc = load_document(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    failed = by_name["pseudoscalar-square-unit"]
    assert failed["status"] == "fail"
    assert failed["measured"] == 2.0
    assert doc["summary"]["failed"] == 1
    # its one sample, rebuilt from worst_at: I^2 - 1 under the corrupted metric
    assert failed["worst_at"] == 0
    unit = pseudoscalar(CL41)
    assert (unit * unit - Multivector.scalar(1.0, CL41)).inf_norm() == failed["measured"]


def test_a_failing_sample_replays_from_the_seed_and_worst_at_alone(capsys):
    # the worst associativity trial at seed 42, redrawn from the generator:
    # trials are drawn in batches of cli._TRIAL_CHUNK, each (size, 3, 32)
    code, out, _ = run_cli(["verify", "--seed", "42", "--format", "json"], capsys)
    assert code == 0
    doc = load_document(out)
    check = {c["name"]: c for c in doc["checks"]}["product-associativity"]
    assert check["worst_at"] == 19
    assert check["measured"] == 1.4210854715202004e-14
    rng = np.random.default_rng(doc["inputs"]["seed"])
    chunk, row = divmod(check["worst_at"], cli._TRIAL_CHUNK)
    trials = doc["inputs"]["trials"]
    for start in range(0, (chunk + 1) * cli._TRIAL_CHUNK, cli._TRIAL_CHUNK):
        draw = rng.uniform(-1.0, 1.0, (min(cli._TRIAL_CHUNK, trials - start), 3, CL32.n_blades))
    x, y, z = (Multivector(coeffs) for coeffs in draw[row])
    assert ((x * y) * z - x * (y * z)).inf_norm() == check["measured"]


def test_an_associativity_chunk_gathers_at_most_one_megabyte():
    # one chunk's gather is (n_blades, n_blades, _TRIAL_CHUNK) float64 terms;
    # the _TRIAL_CHUNK comment's memory claim rests on this bound
    assert cli._TRIAL_CHUNK * CL32.n_blades**2 * np.dtype(np.float64).itemsize <= 2**20


def warm_construction_counts(argv, capsys, monkeypatch) -> dict:
    """Multivectors built and kernel calls made by a second, warm request."""
    assert run_cli(argv, capsys)[0] == 0  # fill the per-process caches first
    counts = {"multivectors": 0, "kernel_calls": 0}
    init, gp = Multivector.__init__, _kernels.gp

    def counting_init(self, *args, **kwargs):
        counts["multivectors"] += 1
        init(self, *args, **kwargs)

    def counting_gp(*args):
        counts["kernel_calls"] += 1
        return gp(*args)

    monkeypatch.setattr(Multivector, "__init__", counting_init)
    monkeypatch.setattr(_kernels, "gp", counting_gp)
    assert run_cli(argv, capsys)[0] == 0
    return counts


def test_verify_builds_few_multivectors_and_kernel_calls(capsys, monkeypatch):
    # The checks run on coefficient arrays.  Before that, one warm request
    # built 13,105 multivectors and made 5,402 kernel calls; a check that
    # goes back to one object per random sample fails here.
    argv = ["verify", "--seed", "4", "--format", "json"]
    counts = warm_construction_counts(argv, capsys, monkeypatch)
    assert 5 * counts["multivectors"] <= 13_105, counts
    assert 5 * counts["kernel_calls"] <= 5_402, counts
    # the second-time demos run on arrays too; they built 446 of the 1,650.
    # The plane waves are one batch per phase bivector: 1,210 multivectors
    # and 598 kernel calls per request before, 666 and 352 after.
    assert counts["multivectors"] <= 700, counts
    assert counts["kernel_calls"] <= 370, counts



def warm_radial_counts(argv, capsys, monkeypatch) -> dict:
    """Per-state radial objects built and scalar closed forms taken by a
    second, warm request."""
    assert run_cli(argv, capsys)[0] == 0  # fill the per-process caches first
    counts = dict.fromkeys(("CoulombParams", "RadialSeries", "RadialSolution",
                            "sommerfeld_energy", "series_exponent"), 0)

    def counting(name, call):
        def counted(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return counted

    for cls in (coulomb.CoulombParams, coulomb.RadialSeries, coulomb.RadialSolution):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    exponent = counting("series_exponent", coulomb.CoulombParams.series_exponent.fget)
    monkeypatch.setattr(coulomb.CoulombParams, "series_exponent", property(exponent))
    energy = counting("sommerfeld_energy", coulomb.sommerfeld_energy)
    for module in (coulomb, cli):
        monkeypatch.setattr(module, "sommerfeld_energy", energy)
    assert run_cli(argv, capsys)[0] == 0
    return counts


def test_a_warm_spectrum_builds_no_per_state_object(capsys, monkeypatch):
    # spectrum reads the solver's columns: one object per state made 64 of
    # each class and 128 sommerfeld_energy and 320 series_exponent calls
    argv = ["spectrum", "--z", "37", "--max-n", "8", "--format", "json"]
    assert set(warm_radial_counts(argv, capsys, monkeypatch).values()) == {0}

@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "42"],
        ["verify", "--seed", "4", "--trials", "1"],
        ["planewave"],
        ["planewave", "--k1", "0.5", "--k4", "0.3", "--gamma", "e0e", "--mass", "0"],
        ["beyond", "--demo", "scalar"],
        ["beyond", "--demo", "scalar", "--s", "-1"],
        ["beyond", "--demo", "sources"],
    ],
    ids=" ".join,
)
def test_a_run_makes_no_linear_algebra_call(argv, capsys, monkeypatch):
    # The plane-wave amplitudes are closed forms and the radial series needs
    # no SVD, so no request reaches np.linalg.  Before the closed-form
    # amplitudes, `verify` made three SVDs: one per phase bivector's batch of
    # waves and one for the Hestenes amplitude of the scalar demo.
    calls = []
    for name in dir(np.linalg):
        original = getattr(np.linalg, name)
        if name.startswith("_") or isinstance(original, type) or not callable(original):
            continue

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert run_cli(argv + ["--format", "json"], capsys)[0] == 0
    assert calls == []


def cos_sin_calls(argv, capsys, monkeypatch, inside=None) -> int:
    """``PhaseField._cos_sin`` calls (one per evaluation of a plane-wave
    field's values or partials) in a run, or inside ``cli.<inside>`` only."""
    cos_sin, calls, counting = PhaseField._cos_sin, [], [inside is None]

    def counted_cos_sin(self, points):
        if counting[-1]:
            calls.append(len(points))
        return cos_sin(self, points)

    monkeypatch.setattr(PhaseField, "_cos_sin", counted_cos_sin)
    if inside is not None:
        stage = getattr(cli, inside)

        def counted_stage(*args):
            counting.append(True)
            try:
                return stage(*args)
            finally:
                counting.pop()

        monkeypatch.setattr(cli, inside, counted_stage)
    assert run_cli(argv, capsys)[0] == 0
    return len(calls)


@pytest.mark.parametrize("trials", [1, 25, 1000])
def test_plane_wave_checks_evaluate_each_field_once(trials, capsys, monkeypatch):
    # values and partials of one field per phase bivector, split in halves
    # as arrays; half fields that each evaluated the base again made 8 calls
    argv = ["verify", "--seed", "4", "--trials", str(trials), "--format", "json"]
    assert cos_sin_calls(argv, capsys, monkeypatch, "_wave_checks") <= 4


def test_current_grade_check_evaluates_one_field(capsys, monkeypatch):
    # the 100 minus fields paired with their points are one field; one
    # field per draw made 100 calls
    argv = ["verify", "--seed", "4", "--format", "json"]
    assert cos_sin_calls(argv, capsys, monkeypatch, "_current_grade_check") == 1


def test_current_grade_batches_keep_the_draw_order(capsys, monkeypatch):
    # batches of 3 fields (the last one short) print the bytes of one batch
    argv = ["beyond", "--demo", "sources", "--trials", "10", "--format", "json"]
    one_batch = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "_FIELD_CHUNK", 3)
    assert run_cli(argv, capsys) == one_batch


def test_planewave_evaluates_its_field_at_most_twice(capsys, monkeypatch):
    # the free residual and the reduction of both halves; 6 calls before
    argv = ["planewave", "--k1", "0.3", "--k2", "-0.2", "--k4", "0", "--format", "json"]
    assert cos_sin_calls(argv, capsys, monkeypatch) <= 4


def test_coulomb_checks_build_each_operator_matrix_once(monkeypatch):
    # Z and R do not depend on the phase bivector; built inside its loop
    # they made 6 builds per request
    cli._coulomb_checks()  # fill the cached radial blocks first
    build, calls = coulomb.even_operator_matrix, []

    def counting_build(*ops):
        calls.append(ops)
        return build(*ops)

    monkeypatch.setattr(coulomb, "even_operator_matrix", counting_build)
    cli._coulomb_checks()
    assert len(calls) == 4


@pytest.mark.parametrize("demo, before", [("scalar", 1_125), ("sources", 1_180)])
def test_beyond_builds_few_multivectors(demo, before, capsys, monkeypatch):
    # with per-point closures a warm request built `before` multivectors
    counts = warm_construction_counts(
        ["beyond", "--demo", demo, "--format", "json"], capsys, monkeypatch
    )
    assert 3 * counts["multivectors"] <= before, counts


def test_kernel_check_fails_on_a_signed_zero(capsys, monkeypatch):
    # Negative control: a kernel that writes -0.0 where the reference writes
    # +0.0 (the zero slots of a single blade under the wedge table) equals
    # the reference by value but not bit for bit, and must fail the check.
    gp = _kernels.gp

    def signed_zero_gp(sign, a, b):
        out = gp(sign, a, b)
        return np.where(out == 0.0, -0.0, out)

    monkeypatch.setattr(_kernels, "gp", signed_zero_gp)
    code, out, _ = run_cli(["verify", "--seed", "42", "--format", "json"], capsys)
    assert code == 1
    by_name = {c["name"]: c for c in load_document(out)["checks"]}
    check = by_name["kernel-backend-agreement"]
    assert check["status"] == "fail" and check["measured"] > 0


def test_verify_rejects_nonpositive_trials(capsys):
    code, _, err = run_cli(["verify", "--trials", "0"], capsys)
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_table_lists_the_standard_states(capsys):
    code, out, _ = run_cli(["spectrum"], capsys)
    assert code == 0
    for label in ("1s1/2", "2s1/2", "2p1/2", "2p3/2", "3d5/2"):
        assert label in out
    assert "spectrum:" in out and "0 failed" in out


def test_spectrum_json_hydrogen_checks(capsys):
    code, out, _ = run_cli(["spectrum", "--format", "json"], capsys)
    assert code == 0
    doc = load_document(out)
    assert_schema(doc)
    by_name = {c["name"]: c for c in doc["checks"]}
    for label in ("1s1/2", "2s1/2", "2p1/2", "2p3/2"):
        check = by_name[f"hydrogen-{label}-binding"]
        assert check["status"] == "pass"
        assert check["tolerance"] == 1e-3
    assert by_name["closed-form-vs-series-solver"]["status"] == "pass"
    assert by_name["angular-sign-degeneracy-bitwise"]["status"] == "pass"
    # the printed ground-state figure differs from the ladder; recorded, not matched
    gap = by_name["ground-state-printed-table-gap"]
    assert gap["status"] == "skipped"
    assert 0.5 < gap["measured"] < 0.6


def test_spectrum_csv_format_and_determinism(capsys):
    code, first, _ = run_cli(["spectrum", "--format", "csv"], capsys)
    assert code == 0
    lines = first.strip("\n").split("\n")
    assert lines[0] == "label,kappa,n_r,n,j,binding_ev,solver_binding_ev"
    assert len(lines) == 1 + 9  # header + states up to n = 3
    assert lines[1].startswith("1s1/2,-1,0,1,0.5,")
    _, second, _ = run_cli(["spectrum", "--format", "csv"], capsys)
    assert first == second


def test_spectrum_scales_with_the_electron_mass_flag(capsys):
    _, out, _ = run_cli(
        ["spectrum", "--max-n", "1", "--electron-mass-ev", str(2 * ELECTRON_MASS_EV),
         "--format", "csv"],
        capsys,
    )
    binding = float(out.strip().split("\n")[1].split(",")[5])
    # m_e (sqrt(1 - alpha^2) - 1) to 50 digits; the printed (energy - 1) m_e
    # it was frozen from cancelled to -13.605874258219037
    assert binding == pytest.approx(2 * -13.605874258289766, rel=1e-12)


def test_spectrum_hydrogen_checks_require_default_constants(capsys):
    _, out, _ = run_cli(
        ["spectrum", "--alpha", "0.01", "--format", "json"], capsys
    )
    doc = load_document(out)
    names = [c["name"] for c in doc["checks"]]
    assert not any(name.startswith("hydrogen-") for name in names)
    _, out, _ = run_cli(["spectrum", "--z", "2", "--format", "json"], capsys)
    names = [c["name"] for c in load_document(out)["checks"]]
    assert not any(name.startswith("hydrogen-") for name in names)


def test_spectrum_strong_coupling_still_within_domain(capsys):
    code, out, _ = run_cli(["spectrum", "--z", "137", "--max-n", "1"], capsys)
    assert code == 0
    assert "1s1/2" in out


def test_spectrum_usage_errors(capsys):
    for argv in (
        ["spectrum", "--z", "0"],
        ["spectrum", "--z", "138"],
        ["spectrum", "--max-n", "0"],
        ["spectrum", "--max-n", "22"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "error" in err


def test_spectrum_reports_a_series_solver_failure_as_a_failed_check(capsys, monkeypatch):
    # a batch solver that finds no terminating series for the n_r = 2 states
    batches = []

    def failing_solver(kappa, n_r, coupling):
        batches.append(len(kappa))
        table, lost = solve_radial_columns(kappa, n_r, coupling), n_r == 2
        return table._replace(
            energy=np.where(lost, math.nan, table.energy),
            decay=np.where(lost, math.nan, table.decay),
            error=["series does not terminate" if gone else error
                   for gone, error in zip(lost, table.error)],
        )

    monkeypatch.setattr(cli, "solve_radial_columns", failing_solver)
    argv = ["spectrum"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 1
    assert batches == [9]  # one batch per request: the nine states up to n = 3
    assert "Traceback" not in err
    by_name = {c["name"]: c for c in load_document(out)["checks"]}
    assert by_name["closed-form-vs-series-solver"]["status"] == "fail"
    assert by_name["closed-form-vs-series-solver"]["measured"] is None
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 1
    solver = {line.split(",")[0]: line.split(",")[6] for line in out.split("\n")[1:] if line}
    assert solver["3s1/2"] == "nan" and solver["1s1/2"] != "nan"


def test_spectrum_at_a_coupling_whose_decay_rounds_to_0_fails(capsys):
    # the bisection ends on [0, 5e-324] and its midpoint rounds to 0: the
    # run printed binding 0.0 and exited 0
    code, out, err = run_cli(["spectrum", "--alpha", "5e-324", "--max-n", "1",
                              "--format", "json"], capsys)
    assert code == 1 and "Traceback" not in err
    doc = load_document(out)
    assert_schema(doc)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["closed-form-vs-series-solver"]["status"] == "fail"


def test_spectrum_longest_ragged_chain_matches_states_solved_alone(capsys, monkeypatch):
    # --max-n 21 at Z = 137: 441 states, n_r up to 20, in one batch
    batches = []

    def recording(kappa, n_r, coupling):
        batches.append((kappa, n_r, coupling, solve_radial_columns(kappa, n_r, coupling)))
        return batches[-1][-1]

    monkeypatch.setattr(cli, "solve_radial_columns", recording)
    code, out, _ = run_cli(["spectrum", "--z", "137", "--max-n", "21", "--format", "json"], capsys)
    assert code == 0
    assert all(c["status"] == "pass" for c in load_document(out)["checks"])
    ((kappa, n_r, coupling, table),) = batches
    assert len(kappa) == 21**2 and max(n_r) == 20
    for i in range(0, len(kappa), 7):
        params = coulomb.CoulombParams(1.0, coupling, int(kappa[i]), int(n_r[i]))
        alone = coulomb.solve_radial(params)
        assert table.energy[i] == alone.energy, params
        coefficients = table.coefficients[i, :n_r[i] + 1]
        assert coefficients.tobytes() == alone.series.coefficients.tobytes(), params
        diagnostics = {name: column.tolist()[i] for name, column in table.diagnostics.items()}
        assert diagnostics == alone.diagnostics, params



@pytest.mark.parametrize("alpha", ["1e-12", "1e-8"])
def test_spectrum_bindings_do_not_cancel_at_weak_coupling(alpha, capsys):
    # printed as (energy - 1) m_e, both columns read 0.0 at alpha 1e-12 and
    # the run exited 0; from the decay they follow -m_e lambda^2 / (2 n^2),
    # and the solver's column is RadialSolution.binding_energy m_e, bit for bit
    code, out, _ = run_cli(["spectrum", "--alpha", alpha, "--max-n", "4", "--format", "csv"],
                           capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip("\n").split("\n")[1:]]
    assert len(rows) == 16
    for label, kappa, n_r, n, _, binding, solver in rows:
        expected = -ELECTRON_MASS_EV * float(alpha) ** 2 / (2 * int(n) ** 2)
        for value in (binding, solver):
            assert abs(float(value) - expected) <= 1e-9 * abs(expected), label
        params = coulomb.CoulombParams(1.0, float(alpha), int(kappa), int(n_r))
        assert float(solver) == coulomb.solve_radial(params).binding_energy * ELECTRON_MASS_EV

@pytest.mark.parametrize("max_n, last_letter", [(9, "l"), (12, "o")])
def test_spectrum_runs_past_the_first_eight_orbital_letters(max_n, last_letter, capsys):
    code, out, _ = run_cli(["spectrum", "--max-n", str(max_n), "--format", "csv"], capsys)
    assert code == 0
    labels = [line.split(",")[0] for line in out.strip("\n").split("\n")[1:]]
    assert len(labels) == max_n**2
    assert f"{max_n}{last_letter}{2 * max_n - 1}/2" in labels


# ---------------------------------------------------------------------------
# planewave
# ---------------------------------------------------------------------------


def test_planewave_flat_wave_reduces(capsys):
    code, out, _ = run_cli(
        ["planewave", "--k1", "0.3", "--k2", "-0.2", "--format", "json"], capsys
    )
    assert code == 0
    doc = load_document(out)
    assert_schema(doc)
    by_name = {c["name"]: c for c in doc["checks"]}
    for name in (
        "amplitude-construction",
        "dispersion-relation",
        "momentum-constraint",
        "field-residual",
        "reduction-plus-half",
        "reduction-minus-half",
    ):
        assert by_name[name]["status"] == "pass", name
    assert doc["inputs"]["k0"] > 0


def test_planewave_with_second_time_momentum_skips_the_reduction(capsys):
    code, out, _ = run_cli(
        ["planewave", "--k4", "0.25", "--format", "json"], capsys
    )
    assert code == 0
    doc = load_document(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["reduction-plus-half"]["status"] == "skipped"
    assert by_name["reduction-minus-half"]["status"] == "skipped"
    assert by_name["field-residual"]["status"] == "pass"


def test_planewave_both_phase_choices(capsys):
    for gamma in ("e12", "e0e"):
        code, _, _ = run_cli(["planewave", "--gamma", gamma, "--k3", "0.4"], capsys)
        assert code == 0


def test_planewave_imaginary_frequency_fails_cleanly(capsys):
    code, out, _ = run_cli(
        ["planewave", "--mass", "0", "--k4", "0.5", "--format", "json"], capsys
    )
    assert code == 1
    doc = load_document(out)
    assert doc["checks"] == [
        {
            "name": "amplitude-construction",
            "paper_ref": "plane-wave",
            "status": "fail",
            "measured": None,
            "tolerance": None,
            "worst_at": None,
        }
    ]


def test_planewave_massless_wave_passes(capsys):
    code, out, _ = run_cli(["planewave", "--mass", "0", "--k1", "0.4", "--format", "json"], capsys)
    assert code == 0
    doc = load_document(out)
    assert doc["inputs"]["k0"] == 0.4
    assert all(c["status"] == "pass" for c in doc["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["planewave", "--k1", "300"],
        ["planewave", "--k1", "1000", "--tolerance", "1e-8"],
        ["planewave", "--k3=-4e5", "--tolerance", "1"],
        # squares that underflow: k0 comes from a rescaled sum
        ["planewave", "--mass", "1e-300", "--k1", "1e-300"],
        ["planewave", "--mass", "1e-200", "--k1", "1e-200"],
    ],
)
def test_planewave_passes_inside_the_domain_of_its_tolerance(argv, capsys):
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    assert all(c["status"] == "pass" for c in load_document(out)["checks"])


def test_planewave_tolerance_is_wired_through(capsys):
    code, out, _ = run_cli(
        ["planewave", "--k1", "0.3", "--tolerance", "1e-30", "--format", "json"],
        capsys,
    )
    assert code == 1  # roundoff exceeds an impossible tolerance
    doc = load_document(out)
    assert any(c["status"] == "fail" for c in doc["checks"])
    # zero is a legal tolerance
    code, out, _ = run_cli(["planewave", "--tolerance", "0", "--format", "json"], capsys)
    assert code in (0, 1) and load_document(out)["inputs"]["tolerance"] == 0.0


# ---------------------------------------------------------------------------
# beyond
# ---------------------------------------------------------------------------


def test_beyond_scalar_demo_passes(capsys):
    code, out, _ = run_cli(
        ["beyond", "--demo", "scalar", "--s", "0.1", "--format", "json"], capsys
    )
    assert code == 0
    doc = load_document(out)
    assert_schema(doc)
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "second-derivative-form",
        "potential-form",
        "forms-equivalence",
        "profile-eigen-relation",
        "minus-half-reconstruction",
        "pair-equation-round-trip",
    ]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_beyond_scalar_requires_positive_mass(capsys):
    code, _, err = run_cli(["beyond", "--demo", "scalar", "--mass", "0"], capsys)
    assert code == 2
    assert "non-zero" in err
    code, _, _ = run_cli(["beyond", "--demo", "scalar", "--mass", "-1"], capsys)
    assert code == 2


def test_beyond_sources_demo_passes(capsys):
    code, out, _ = run_cli(
        ["beyond", "--demo", "sources", "--trials", "10", "--format", "json"], capsys
    )
    assert code == 0
    doc = load_document(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["current-grade-structure"]["measured"] == 0.0
    assert by_name["current-grade-structure"]["tolerance"] == 0.0
    assert by_name["sourced-equation"]["status"] == "pass"
    assert by_name["vector-part-divergence"]["status"] == "pass"
    assert by_name["current-hand-value"]["status"] == "pass"


def test_a_perturbed_source_pair_fails_sourced_equation_with_its_worst_point(
    capsys, monkeypatch
):
    # the minus half scaled by 1 + 1e-6: the pair no longer solves the
    # sourced equation, which is a failed check, not an error line
    xi_plus, _ = beyond.oscillating_source_pair()
    xi_minus = PhaseField(Multivector.zero(CL32), (1.0 + 1e-6) * e(CL32, 0, 4), (0, 0, 0, 0, 1.0))
    monkeypatch.setattr(cli, "oscillating_source_pair", lambda: (xi_plus, xi_minus))
    code, out, err = run_cli(["beyond", "--demo", "sources", "--format", "json"], capsys)
    assert code == 1 and err == ""
    doc = load_document(out)
    assert_schema(doc)
    check = {c["name"]: c for c in doc["checks"]}["sourced-equation"]
    assert check["status"] == "fail"
    # the sample points are the demo grid's every len // 16-th point
    grid = beyond.demo_grid()
    point = grid[:: max(1, len(grid) // 16)][check["worst_at"]]
    current = beyond.SourceCurrent(xi_minus)
    residual = beyond.sourced_massless_residual(xi_plus, current, point)
    assert residual.inf_norm() == check["measured"]
    assert check["measured"] > check["tolerance"]


def test_beyond_json_is_byte_identical_across_runs(capsys):
    argv = ["beyond", "--demo", "sources", "--trials", "10", "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_beyond_requires_a_demo_choice(capsys):
    code, _, err = run_cli(["beyond"], capsys)
    assert code == 2
    assert "--demo" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["beyond", "--demo", "sources", "--trials", "1", "--format", "json"],
        ["verify", "--trials", "1", "--format", "json"],
    ],
)
@pytest.mark.parametrize("coeff, measured", [(1.0, 1.0 / (4.0 * math.pi)), (math.nan, None)])
def test_current_grade_check_fails_on_a_forbidden_blade(
    argv, coeff, measured, capsys, monkeypatch
):
    # negative control: d4 of this "minus" field is e12, so e4 d^4 lands on e124
    e12 = coeff * e(CL32, 1, 2)
    bad = AnalyticField(
        lambda pt: pt[4] * e12,
        lambda axis, pt: e12 if axis == 4 else Multivector.zero(),
    )
    # in place of the random minus fields, at random points
    monkeypatch.setattr(
        cli, "_minus_samples", lambda rng, n: (bad, rng.uniform(-1.0, 1.0, (2 * n, 5)))
    )
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "Traceback" not in err
    doc = load_document(out)
    assert_schema(doc)
    check = {c["name"]: c for c in doc["checks"]}["current-grade-structure"]
    assert check["status"] == "fail"
    if measured is None:
        assert check["measured"] is None
    else:
        assert check["measured"] == pytest.approx(measured, rel=1e-15)
    assert doc["summary"]["failed"] == 1


def _nan_after_the_first_row(fn):
    """``fn`` whose result rows, one per sample point, are NaN from the second on.

    A finite row comes first, so a reduction that drops NaN (Python's
    ``max(0.0, nan)`` is 0.0) would pass the check with it.
    """

    def poisoned(*args):
        out = fn(*args)
        for rows in out if isinstance(out, tuple) else (out,):
            rows[1:] = math.nan
        return out

    return poisoned


@pytest.mark.parametrize(
    "argv, target, failing",
    [
        (
            ["verify", "--trials", "3", "--format", "json"],
            "sourced_massless_residuals",
            ["sourced-equation"],
        ),
        (
            ["beyond", "--demo", "sources", "--trials", "3", "--format", "json"],
            "sourced_massless_residuals",
            ["sourced-equation"],
        ),
        (
            ["beyond", "--demo", "scalar", "--format", "json"],
            "scalar_potential_residuals",
            [
                "second-derivative-form",
                "potential-form",
                "forms-equivalence",
                "pair-equation-round-trip",
            ],
        ),
    ],
    ids=["verify", "beyond-sources", "beyond-scalar"],
)
def test_a_nan_measurement_fails_its_check(argv, target, failing, capsys, monkeypatch):
    monkeypatch.setattr(cli, target, _nan_after_the_first_row(getattr(cli, target)))
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    doc = load_document(out)
    assert_schema(doc)
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == failing
    assert all(c["measured"] is None for c in failed)
    assert all(c["worst_at"] == 1 for c in failed)  # the first NaN row


@pytest.mark.parametrize(
    "argv, target",
    [
        (["verify", "--trials", "2"], "_coulomb_checks"),
        (["spectrum", "--format", "json"], "solve_radial_columns"),
        (["planewave"], "build_plane_wave"),
        (["beyond", "--demo", "sources"], "SourceCurrent"),
    ],
)
def test_an_unexpected_error_is_one_stderr_line_and_exit_1(argv, target, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected\nacross two lines")

    monkeypatch.setattr(cli, target, broken)
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == (
        f"fermion5d {argv[0]}: error: ZeroDivisionError: injected across two lines\n"
    )
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------


def test_make_check_measures_the_largest_gap_and_names_its_flat_index():
    check = make_check("probe", "plumbing", 1e-13, 1e-10)  # one sample
    assert (check.status, check.measured, check.worst_at) == ("pass", 1e-13, 0)
    gaps = [0.5, np.array([0.25, 2.0]), np.array([[2.0, 1.0]]), 1]
    check = make_check("probe", "plumbing", gaps, 1.0)
    assert (check.status, check.measured, check.worst_at) == ("fail", 2.0, 2)
    rendered = json.loads(ReportDocument("probe", {}, [check]).to_json())["checks"][0]
    assert list(rendered)[-2:] == ["tolerance", "worst_at"] and rendered["worst_at"] == 2
    # a NaN is the maximum, and the first NaN its index, even after an inf
    check = make_check("probe", "plumbing", [0.0, np.array([math.inf, math.nan]), math.nan], 1.0)
    assert (check.status, check.measured, check.worst_at) == ("fail", None, 2)
    skipped = ReportDocument("probe", {}, [report.Check("probe", "plumbing", "skipped")])
    assert json.loads(skipped.to_json())["checks"][0]["worst_at"] is None


@pytest.mark.parametrize("measured", [math.nan, math.inf, -math.inf])
def test_a_non_finite_measured_value_fails_and_renders_as_null(measured):
    check = make_check("probe", "plumbing", measured, 1e-10)
    assert check.status == "fail"
    assert check.measured is None
    doc = ReportDocument(command="probe", inputs={}, checks=[check])
    rendered = json.loads(doc.to_json())
    assert rendered["checks"][0]["measured"] is None
    assert rendered["checks"][0]["tolerance"] == 1e-10
    assert rendered["summary"] == {"passed": 0, "failed": 1}
    assert doc.exit_code() == 1


# ---------------------------------------------------------------------------
# parser-level behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--alpha", "nan"], "expected a finite number, got 'nan'"),
        (["spectrum", "--alpha", "-0.1"], "expected a positive number, got '-0.1'"),
        (["spectrum", "--electron-mass-ev", "inf", "--format", "json"],
         "expected a finite number, got 'inf'"),
        (["planewave", "--k1", "nan", "--format", "json"],
         "expected a finite number, got 'nan'"),
        (["planewave", "--tolerance", "inf"], "expected a finite number, got 'inf'"),
        (["beyond", "--demo", "scalar", "--s", "nan"], "expected a finite number, got 'nan'"),
        (["beyond", "--demo", "sources", "--trials", "0"],
         "expected a positive integer, got '0'"),
        (["verify", "--trials", "-3"], "expected a positive integer, got '-3'"),
        (["verify", "--seed", "-1"], "expected a non-negative integer, got '-1'"),
        (["planewave", "--seed", "-1", "--format", "json"],
         "expected a non-negative integer, got '-1'"),
        (["beyond", "--demo", "sources", "--seed", "-1"],
         "expected a non-negative integer, got '-1'"),
        (["beyond", "--demo", "scalar", "--s", "1e300", "--format", "json"],
         "the frequency overflows: |k|^2 + m^2 is not finite"),
        (["beyond", "--demo", "scalar", "--mass", "1e300", "--format", "json"],
         "the frequency overflows: |k|^2 + m^2 is not finite"),
        (["beyond", "--demo", "scalar", "--mass", "1e300", "--s=-1e300"],
         "the profile rate sqrt(|mass * potential|) overflows"),
        (["beyond", "--demo", "scalar", "--mass", "1e20", "--format", "json"],
         "math range error"),
        (["planewave", "--mass", "-1", "--format", "json"],
         "expected a non-negative number, got '-1'"),
        # outside the measured planewave domain; these used to fail one to
        # four checks, or find no amplitude at all
        (["planewave", "--k1", "1000", "--format", "json"],
         "exceeds 309.55; beyond it float64 roundoff in the residuals can exceed "
         "the tolerance 1e-10"),
        (["planewave", "--k2=-1e10", "--mass", "0"], "can exceed the tolerance 1e-10"),
        (["planewave", "--k1", "200", "--mass", "250"], "can exceed the tolerance 1e-10"),
        # the domain follows the tolerance in use; a tighter one keeps the
        # default's domain, and a looser one stops at the amplitude cap
        (["planewave", "--k1", "4000", "--tolerance", "1e-8"],
         "exceeds 3095.5; beyond it float64 roundoff in the residuals can exceed "
         "the tolerance 1e-08"),
        (["planewave", "--k1", "400", "--tolerance", "1e-12"],
         "exceeds 309.55; beyond it float64 roundoff in the residuals can exceed "
         "the tolerance 1e-10"),
        (["planewave", "--k1", "1e6", "--tolerance", "1"],
         "exceeds 500000; beyond it the amplitude may miss its 1e-08 "
         "momentum-constraint check"),
        # "-inf" is not a number to argparse, so it reads as an option name
        (["planewave", "--k1", "-inf"], "argument --k1: expected one argument"),
        # a negative tolerance can never pass; zero stays legal
        (["planewave", "--tolerance", "-1"], "expected a non-negative number, got '-1'"),
    ],
)
def test_bad_numeric_input_is_a_one_line_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.rstrip("\n").split("\n")[-1].endswith(message)
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err


def test_two_main_calls_build_the_parser_once(capsys, monkeypatch):
    # the parser is built once per process and reused by every request
    built = []

    class CountedParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountedParser)
    cli.build_parser.cache_clear()
    argv = ["spectrum", "--max-n", "1", "--format", "json"]
    try:
        assert run_cli(argv, capsys)[0] == 0
        after_first = len(built)
        assert run_cli(argv, capsys)[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("fermion5d") == 1
    assert len(built) == after_first


@pytest.mark.parametrize(
    "base, option, exponent, decimal",
    [
        (["planewave"], "--k1", "-1e-3", "-0.001"),
        (["planewave"], "--k4", "-.5e0", "-0.5"),
        (["beyond", "--demo", "scalar"], "--s", "-1e-2", "-0.01"),
    ],
)
def test_negative_numbers_in_exponent_notation_are_values(
    base, option, exponent, decimal, capsys
):
    # argparse's own pattern reads "-1e-3" as an option name: exit 2
    spelled = run_cli(base + [option, exponent, "--format", "json"], capsys)
    assert spelled[0] == 0, spelled[2]
    assert spelled == run_cli(base + [option, decimal, "--format", "json"], capsys)


def child_env() -> dict:
    """The environment for a child interpreter, with the directory that
    ``fermion5d`` was imported from first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(fermion5d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_a_phase_that_is_not_finite_is_one_error_line_and_no_warning():
    # the default warnings filters of a fresh interpreter: numpy's "invalid
    # value encountered" RuntimeWarning would be printed to stderr
    code = (
        "import math\n"
        "from fermion5d.wave import GammaChoice, build_plane_wave, dirac5_residual\n"
        "field = build_plane_wave((0.3, -0.2, 0.1), 0.0, 1.0, GammaChoice.e12()).field()\n"
        "try:\n"
        "    dirac5_residual(field, 1.0, [math.inf, math.inf, 0.0, 0.0, 0.0])\n"
        "except ValueError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
    )
    env = child_env()
    env.pop("PYTHONWARNINGS", None)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("ValueError: the phase k.x = nan at point row 0")
    assert len(result.stdout.splitlines()) == 1


def test_a_subnormal_coupling_spectrum_prints_no_warning():
    # the default warnings filters of a fresh interpreter: the decay
    # bisection's bracket around a subnormal guess must not divide by zero
    env = child_env()
    env.pop("PYTHONWARNINGS", None)
    result = subprocess.run(
        [sys.executable, "-m", "fermion5d", "spectrum", "--alpha", "1e-320", "--max-n", "2",
         "--format", "json"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert json.loads(result.stdout)["summary"] == {"passed": 2, "failed": 0}


@pytest.mark.parametrize("option", ["--s", "--mass"])
def test_overflowing_scalar_demo_writes_one_stderr_line(option):
    # a fresh interpreter with every warning shown: numpy's once-per-location
    # filter cannot hide a RuntimeWarning that an earlier test already raised
    result = subprocess.run(
        [sys.executable, "-W", "always", "-m", "fermion5d", "beyond", "--demo",
         "scalar", option, "1e300", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr


def log_magnitudes(lo: float, hi: float):
    """Signed magnitudes spread evenly in the exponent from 10^lo to 10^hi."""
    return st.builds(
        lambda exponent, sign: sign * 10.0**exponent,
        st.floats(min_value=lo, max_value=hi),
        st.sampled_from([1.0, -1.0]),
    )


#: Text for a numeric option: non-finite, negative, zero, extreme, ordinary,
#: large (1e2..1e12, across the edge of the ``planewave`` domain) and
#: non-numeric.  Integers stay within -3..3, so that ``--trials`` and
#: ``--max-n`` keep each run cheap.
NUMERIC_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e300", "-1e300", "abc", ""]),
    st.integers(min_value=-3, max_value=3).map(str),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
    log_magnitudes(2.0, 12.0).map(repr),
)

#: Each subcommand with the arguments that keep it cheap, and its numeric options.
FUZZ_COMMANDS = {
    "verify": (["verify", "--trials", "1"], ["--seed", "--trials"]),
    "spectrum": (
        ["spectrum", "--max-n", "3"],
        ["--z", "--max-n", "--alpha", "--electron-mass-ev"],
    ),
    "planewave": (
        ["planewave"],
        ["--mass", "--k1", "--k2", "--k3", "--k4", "--tolerance", "--seed"],
    ),
    "beyond-scalar": (["beyond", "--demo", "scalar"], ["--s", "--mass", "--seed"]),
    "beyond-sources": (
        ["beyond", "--demo", "sources", "--trials", "1"],
        ["--trials", "--seed", "--s", "--mass"],
    ),
}


def run_in_process(argv):
    """``run_cli`` without ``capsys``, which hypothesis cannot reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code if isinstance(ex.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_for_any_numeric_input(command, data):
    base, options = FUZZ_COMMANDS[command]
    chosen = data.draw(st.lists(st.sampled_from(options), unique=True))
    argv = list(base)
    for opt in chosen:
        text = data.draw(NUMERIC_TEXT, label=opt)
        joined = data.draw(st.booleans(), label=f"{opt}=value")
        argv += [f"{opt}={text}"] if joined else [opt, text]
    code, out, err = run_in_process(argv + ["--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code in (0, 1):
        json.loads(out)


def planewave_domain_outcome(direction, scale, gamma, tolerance=cli.PLANEWAVE_TOLERANCE):
    """Run ``planewave`` at ``scale`` times the unit ``direction`` of
    ``(k1, k2, k3, k4, mass)`` and check the domain contract: outside the
    domain of ``tolerance`` a one-line usage error; inside it every check
    meets ``tolerance``, except on an imaginary frequency (k4 too large),
    where no amplitude exists.  Returns the exit code."""
    norm = math.hypot(*direction)
    unit = [d / norm for d in direction]
    *k, mass = (float(scale * d) for d in unit)
    mass = abs(mass)
    argv = ["planewave", "--gamma", gamma, f"--mass={mass!r}", "--format", "json"]
    argv += [f"--k{axis}={value!r}" for axis, value in enumerate(k, 1)]
    argv += [f"--tolerance={tolerance!r}"]
    code, out, err = run_in_process(argv)
    if math.hypot(*k, mass) > cli.planewave_max_scale(tolerance):
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1, err
        return code
    failed = [c["name"] for c in load_document(out)["checks"] if c["status"] == "fail"]
    if failed == ["amplitude-construction"]:
        # on the unit direction: at tiny scales the squares of k underflow to 0
        d1, d2, d3, d4, dm = unit
        assert d4**2 >= (d1**2 + d2**2 + d3**2 + dm**2) * (1 - 1e-12), argv
    else:
        assert (code, failed) == (0, []), argv
    return code


@settings(max_examples=100, deadline=None)
@given(
    direction=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=5, max_size=5).filter(
        lambda d: math.hypot(*d) > 1e-3
    ),
    exponent=st.floats(min_value=-300.0, max_value=12.0),
    gamma=st.sampled_from(["e12", "e0e"]),
    tolerance=st.sampled_from([cli.PLANEWAVE_TOLERANCE, 1e-8, 1e-4, 1.0]),
)
def test_planewave_domain_holds_at_any_scale(direction, exponent, gamma, tolerance):
    planewave_domain_outcome(direction, 10.0**exponent, gamma, tolerance)


@pytest.mark.parametrize("tolerance", [cli.PLANEWAVE_TOLERANCE, 1e-8, 1.0])
def test_planewave_passes_every_check_at_the_edge_of_its_domain(tolerance):
    # the bound itself, in directions that keep the frequency real; at 1.0
    # the bound is the amplitude cap, not where roundoff stops
    rng = np.random.default_rng(0)
    scale = cli.planewave_max_scale(tolerance) * (1 - 1e-12)
    for trial in range(40):
        direction = rng.normal(size=5)
        if trial % 4 == 0:
            direction[3] = 0.0  # a flat wave: the reductions run too
        rest = direction[[0, 1, 2, 4]]
        if direction[3] ** 2 > rest @ rest:
            direction[3], direction[4] = direction[4], direction[3]
        gamma = ("e12", "e0e")[trial % 2]
        assert planewave_domain_outcome(direction, scale, gamma, tolerance) == 0


def test_planewave_domain_follows_the_measured_roundoff():
    # half the tolerance, at the worst measured 2.35 ulp(1) per squared scale
    for tolerance in (1e-10, 1e-8, 1e-6):
        reach = cli.planewave_max_scale(tolerance)
        assert cli.PLANEWAVE_ROUNDOFF * reach**2 == pytest.approx(tolerance / 2)
    assert cli.planewave_max_scale(1e-30) == cli.planewave_max_scale(1e-10)
    assert cli.planewave_max_scale(-1.0) == cli.planewave_max_scale(1e-10)
    assert cli.planewave_max_scale(1.0) == cli.PLANEWAVE_AMPLITUDE_SCALE


@pytest.mark.parametrize("argv", [[], ["verify", "--no-such-flag"], ["beyond"]])
def test_usage_errors_are_one_line_even_in_a_narrow_terminal(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "30")
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("fermion5d")


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, _ = run_cli(["verify", "--no-such-flag"], capsys)
    assert code == 2


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "fermion5d", "verify", "--trials", "2",
         "--format", "json"],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["command"] == "verify"


def test_importing_the_package_loads_neither_csv_nor_the_cli():
    # counted, not timed: csv serves ``--format csv`` alone, and the CLI a command
    code = "import sys, fermion5d; print(sorted({'csv', 'fermion5d.cli'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_constants_are_the_published_values():
    # CODATA 2018: these exact literals feed the eV conversion
    assert FINE_STRUCTURE == 7.2973525693e-3
    assert ELECTRON_MASS_EV == 510998.95


def test_every_exported_name_resolves():
    # a stale entry in __all__ makes `from fermion5d import *` raise
    for module in (fermion5d, beyond, report):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    namespace = {}
    exec("from fermion5d import *", namespace)
    assert set(fermion5d.__all__) <= namespace.keys()
