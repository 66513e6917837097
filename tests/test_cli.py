"""End-to-end tests of the command-line interface and its report contract.

Covers: exit-code semantics (0 = all checks pass, 1 = a check failed,
2 = usage error), byte-identical JSON/CSV rendering across runs, the report
document schema, and the negative control that forces a failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermion5d.cli import main
from fermion5d.constants import ELECTRON_MASS_EV, FINE_STRUCTURE

CHECK_KEYS = ["name", "paper_ref", "status", "measured", "tolerance"]
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
    assert by_name["pseudoscalar-square-unit"]["status"] == "fail"
    assert by_name["pseudoscalar-square-unit"]["measured"] == 2.0
    assert doc["summary"]["failed"] == 1


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
    assert binding == pytest.approx(2 * -13.605874258219037, rel=1e-12)


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


def test_spectrum_reports_a_series_solver_failure_as_a_failed_check(capsys):
    # at this weak coupling the n_r = 2 series misses the termination bound
    argv = ["spectrum", "--alpha", "1e-6"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 1
    assert "Traceback" not in err
    by_name = {c["name"]: c for c in load_document(out)["checks"]}
    assert by_name["closed-form-vs-series-solver"]["status"] == "fail"
    assert by_name["closed-form-vs-series-solver"]["measured"] is None
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 1
    solver = {line.split(",")[0]: line.split(",")[6] for line in out.split("\n")[1:] if line}
    assert solver["3s1/2"] == "nan" and solver["1s1/2"] != "nan"


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
        }
    ]


def test_planewave_tolerance_is_wired_through(capsys):
    code, out, _ = run_cli(
        ["planewave", "--k1", "0.3", "--tolerance", "1e-30", "--format", "json"],
        capsys,
    )
    assert code == 1  # roundoff exceeds an impossible tolerance
    doc = load_document(out)
    assert any(c["status"] == "fail" for c in doc["checks"])


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


def test_beyond_json_is_byte_identical_across_runs(capsys):
    argv = ["beyond", "--demo", "sources", "--trials", "10", "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_beyond_requires_a_demo_choice(capsys):
    code, _, err = run_cli(["beyond"], capsys)
    assert code == 2
    assert "--demo" in err


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
         "SVD did not converge"),
        (["beyond", "--demo", "scalar", "--mass", "1e300", "--format", "json"],
         "SVD did not converge"),
        (["beyond", "--demo", "scalar", "--mass", "1e300", "--s=-1e300"],
         "the profile rate sqrt(|mass * potential|) overflows"),
        (["beyond", "--demo", "scalar", "--mass", "1e20", "--format", "json"],
         "math range error"),
    ],
)
def test_bad_numeric_input_is_a_one_line_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.rstrip("\n").split("\n")[-1].endswith(message)
    assert "Traceback" not in err


#: Text for a numeric option: non-finite, negative, zero, extreme, ordinary
#: and non-numeric.  Integers stay within -3..3, so that ``--trials`` and
#: ``--max-n`` keep each run cheap.
NUMERIC_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e300", "-1e300", "abc", ""]),
    st.integers(min_value=-3, max_value=3).map(str),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
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
    # ``--opt=value`` keeps argparse from reading "-1e300" as an option name
    argv = base + [f"{opt}={data.draw(NUMERIC_TEXT, label=opt)}" for opt in chosen]
    code, out, err = run_in_process(argv + ["--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code in (0, 1):
        json.loads(out)


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
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["command"] == "verify"


def test_constants_are_the_published_values():
    # CODATA 2018: these exact literals feed the eV conversion
    assert FINE_STRUCTURE == 7.2973525693e-3
    assert ELECTRON_MASS_EV == 510998.95
