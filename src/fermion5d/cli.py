"""Command-line front end: verification suites, spectra, and demos.

Subcommands
-----------
``verify``
    Runs the cross-module invariant suites (algebra identities, class-swap
    and idempotent-pair rules, plane-wave reduction, phase-bivector
    classification, radial operator algebra, current grade structure) and
    reports one pass/fail line per check.
``spectrum``
    Enumerates hydrogen-like bound states up to a principal quantum number,
    printing the closed-form binding energies in eV next to the independent
    series-solver cross-check.
``planewave``
    Builds one five-dimensional plane wave from spatial momentum, second-time
    momentum and mass, then reports dispersion, amplitude-constraint and
    field-residual checks (plus the four-dimensional reduction when the
    second-time momentum vanishes).
``beyond``
    Runs the beyond-flatness demos: the induced scalar potential or the
    induced source current with its grade-structure claims.

All subcommands support ``--format json`` for a deterministic,
newline-terminated report document; ``spectrum`` additionally supports CSV.
Exit status is 0 iff no check failed, 1 on check failures, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CL32,
    CL41,
    Multivector,
    e,
    kernel_backend,
    pseudoscalar,
    random_multivector,
    tables,
)
from .beyond import (
    ScalarPotentialDemo,
    SourceCurrent,
    demo_grid,
    grade_structure_violations,
    oscillating_source_pair,
    pair_residual,
    random_minus_field,
    scalar_potential_residual,
    second_time_gradient,
    source_current,
    sourced_massless_residual,
)
from .constants import ELECTRON_MASS_EV, FINE_STRUCTURE
from .coulomb import (
    ANGULAR_LETTERS,
    CoulombParams,
    angular_coupling_matrix,
    e0_sandwich_matrix,
    gamma_e0_right_matrix,
    mass_energy_matrix,
    radial_left_matrix,
    solve_radial,
    sommerfeld_energy,
    spectroscopic_label,
    quantum_numbers,
)
from .fields import MappedField, random_points
from .report import Check, ReportDocument, make_check, rows_to_csv
from .spinor import idempotent_split, pm_split
from .wave import (
    GammaChoice,
    GammaRejectionError,
    build_plane_wave,
    dirac5_residual,
    gamma_classify,
    hestenes_dirac_residual,
)

_E012 = e(CL32, 0, 1, 2)
#: Largest ``spectrum --max-n``: one orbital letter per l = 0 .. n - 1.
MAX_N = len(ANGULAR_LETTERS)


def _usage_error(message: str) -> SystemExit:
    """Usage errors exit with status 2, like argparse's own."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


# argparse types: a bad value becomes argparse's one-line usage error (exit 2)


def finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def positive_float(text: str) -> float:
    value = finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _algebra_checks(rng: np.random.Generator, trials: int, corrupt_metric: bool) -> list[Check]:
    sig = CL41 if corrupt_metric else CL32
    unit = pseudoscalar(sig)
    square = unit * unit - Multivector.scalar(1.0, sig)
    checks = [
        make_check("pseudoscalar-square-unit", "algebra", square.inf_norm(), 0.0)
    ]

    center = pseudoscalar(CL32)
    worst = 0.0
    for mask in range(CL32.n_blades):
        blade = Multivector.blade(mask, CL32)
        worst = max(worst, (center * blade - blade * center).inf_norm())
    checks.append(make_check("pseudoscalar-centrality", "algebra", worst, 0.0))

    worst = 0.0
    for i in range(5):
        ei = e(CL32, i)
        sq = ei * ei - Multivector.scalar(float(CL32.signs[i]), CL32)
        worst = max(worst, sq.inf_norm())
        for j in range(i + 1, 5):
            ej = e(CL32, j)
            worst = max(worst, (ei * ej + ej * ei).inf_norm())
    checks.append(make_check("generator-relations", "algebra", worst, 0.0))

    worst = 0.0
    for _ in range(trials):
        x = random_multivector(rng, CL32)
        y = random_multivector(rng, CL32)
        z = random_multivector(rng, CL32)
        worst = max(worst, ((x * y) * z - x * (y * z)).inf_norm())
    checks.append(make_check("product-associativity", "algebra", worst, 1e-12))
    return checks


def _kernel_check(seed: int) -> Check:
    """The product kernel against its reference loop, exactly.

    Dense and single-blade left operands, under both sign tables.  The
    operands come from a generator of their own, so the shared stream that
    every other check draws from is left as it was.
    """
    rng = np.random.default_rng([seed, 1])
    t = tables(CL32)
    worst = 0.0
    for sign in (t.sign, t.wedge_sign):
        for _ in range(5):
            a = rng.uniform(-1, 1, size=CL32.n_blades)
            b = rng.uniform(-1, 1, size=CL32.n_blades)
            blade = Multivector.blade(int(rng.integers(CL32.n_blades)), CL32, a[0]).coeffs
            for left in (a, blade):
                diff = _kernels.gp(sign, left, b) - _kernels.gp_reference(sign, left, b)
                worst = max(worst, float(np.abs(diff).max()))
    return make_check("kernel-backend-agreement", "plumbing", worst, 0.0)


def _spinor_checks(rng: np.random.Generator, trials: int) -> list[Check]:
    e34 = e(CL32, 3, 4)
    worst_swap = worst_lock = worst_partition = 0.0
    n = max(1, min(trials, 50))
    for _ in range(n):
        x = random_multivector(rng, CL32, even=True)
        plus, minus = pm_split(x)
        for mu in range(4):
            shifted = pm_split(e(CL32, mu) * x)
            worst_swap = max(
                worst_swap,
                (shifted.plus - e(CL32, mu) * minus).inf_norm(),
                (shifted.minus - e(CL32, mu) * plus).inf_norm(),
            )
        kept = pm_split(e(CL32, 4) * x)
        worst_swap = max(
            worst_swap,
            (kept.plus - e(CL32, 4) * plus).inf_norm(),
            (kept.minus - e(CL32, 4) * minus).inf_norm(),
        )
        pair = idempotent_split(x)
        worst_lock = max(worst_lock, (pair.minus + pair.plus * e34).inf_norm())
        recon = pair.plus + pair.minus - x * (Multivector.scalar(1.0, CL32) - e34)
        worst_partition = max(worst_partition, recon.inf_norm())
    return [
        make_check("class-swap-rule", "pair-split", worst_swap, 0.0),
        make_check("idempotent-pair-lock", "pair-split", worst_lock, 0.0),
        make_check("idempotent-pair-partition", "pair-split", worst_partition, 0.0),
    ]


def _wave_checks(rng: np.random.Generator, trials: int) -> list[Check]:
    n_waves = max(1, min(trials, 25))
    worst_red = worst_disp = 0.0
    pts = random_points(rng, 3, scale=0.5)
    for _ in range(n_waves):
        k_spatial = rng.uniform(-1.0, 1.0, size=3)
        mass = float(rng.uniform(0.5, 1.5))
        for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
            wave = build_plane_wave(k_spatial, 0.0, mass, gamma)
            worst_disp = max(worst_disp, wave.dispersion_residual())
            field = wave.field()
            for half in ("plus", "minus"):
                xi = MappedField(field, lambda mv, h=half: getattr(idempotent_split(mv), h))
                for x in pts:
                    res = hestenes_dirac_residual(xi, mass, x)
                    worst_red = max(worst_red, res.inf_norm())
    checks = [
        make_check("plane-wave-reduction", "reduction", worst_red, 1e-10),
        make_check("plane-wave-dispersion", "dispersion", worst_disp, 1e-10),
    ]

    ok = True
    for theta, variant in (
        (0.0, GammaChoice.E12_VARIANT),
        (math.pi / 2, GammaChoice.E0E_VARIANT),
        (math.pi, GammaChoice.E12_VARIANT),
        (3 * math.pi / 2, GammaChoice.E0E_VARIANT),
    ):
        mixed = GammaChoice.superposition(theta).as_multivector()
        ok = ok and gamma_classify(mixed).variant == variant
    for bad in (
        GammaChoice.superposition(math.pi / 4).as_multivector(),
        e(CL32, 1, 3),
    ):
        try:
            gamma_classify(bad)
            ok = False
        except GammaRejectionError:
            pass
    checks.append(
        make_check("phase-bivector-classification", "phase-choice", 0.0 if ok else 1.0, 0.0)
    )
    return checks


def _coulomb_checks() -> list[Check]:
    eye = np.eye(16)
    worst_ops = 0.0
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        z_mat = e0_sandwich_matrix()
        h_mat = gamma_e0_right_matrix(gamma)
        r_mat = radial_left_matrix()
        for mat in (z_mat, h_mat, r_mat):
            worst_ops = max(worst_ops, float(np.abs(mat @ mat - eye).max()))
        worst_ops = max(worst_ops, float(np.abs(z_mat @ h_mat - h_mat @ z_mat).max()))
        worst_ops = max(worst_ops, float(np.abs(z_mat @ r_mat + r_mat @ z_mat).max()))
        worst_ops = max(worst_ops, float(np.abs(h_mat @ r_mat - r_mat @ h_mat).max()))
    checks = [make_check("radial-operator-algebra", "radial-system", worst_ops, 0.0)]

    worst_sq = 0.0
    kappa, coupling, mass, energy = -2, 0.3, 1.0, 0.9
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        s_mat = angular_coupling_matrix(kappa, coupling, gamma)
        t_mat = mass_energy_matrix(mass, energy, gamma)
        worst_sq = max(
            worst_sq,
            float(np.abs(s_mat @ s_mat - (kappa**2 - coupling**2) * eye).max()),
            float(np.abs(t_mat @ t_mat - (mass**2 - energy**2) * eye).max()),
        )
    checks.append(make_check("radial-square-identities", "radial-system", worst_sq, 1e-12))

    params = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=-1, n_r=1)
    solution = solve_radial(params)
    rel = abs(solution.energy - sommerfeld_energy(params)) / sommerfeld_energy(params)
    checks.append(make_check("bound-state-cross-check", "spectrum", rel, 1e-9))
    return checks


def _beyond_checks(rng: np.random.Generator, trials: int) -> list[Check]:
    n_fields = max(1, min(trials, 100))
    worst_grade = 0.0
    for _ in range(n_fields):
        fld = random_minus_field(rng)
        for x in random_points(rng, 2, scale=1.0):
            current = SourceCurrent(fld).value(x)
            worst_grade = max(
                worst_grade,
                max(
                    (abs(float(v)) for v in current.coeffs[_forbidden_masks()]),
                    default=0.0,
                ),
            )
    checks = [make_check("current-grade-structure", "source-current", worst_grade, 0.0)]

    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.2, -0.15, 0.1))
    pts = random_points(rng, 5, scale=0.5)
    worst_forms = 0.0
    for x in pts:
        second, potential = scalar_potential_residual(demo, x)
        worst_forms = max(worst_forms, (second - potential).inf_norm())
    checks.append(make_check("scalar-demo-equivalence", "scalar-demo", worst_forms, 1e-9))

    xi_plus, xi_minus = oscillating_source_pair()
    current = source_current(xi_minus)
    worst_src = max(
        sourced_massless_residual(xi_plus, current, x).inf_norm() for x in pts
    )
    checks.append(make_check("sourced-equation", "source-current", worst_src, 1e-12))
    return checks


_FORBIDDEN_CACHE: list[int] = []


def _forbidden_masks() -> list[int]:
    if not _FORBIDDEN_CACHE:
        from .beyond import CURRENT_MASKS

        _FORBIDDEN_CACHE.extend(m for m in range(32) if m not in CURRENT_MASKS)
    return _FORBIDDEN_CACHE


def cmd_verify(args: argparse.Namespace) -> ReportDocument:
    rng = np.random.default_rng(args.seed)
    checks: list[Check] = []
    checks += _algebra_checks(rng, args.trials, args.debug_corrupt_metric)
    checks.append(_kernel_check(args.seed))
    checks += _spinor_checks(rng, args.trials)
    checks += _wave_checks(rng, args.trials)
    checks += _coulomb_checks()
    checks += _beyond_checks(rng, args.trials)
    return ReportDocument(
        command="verify",
        inputs={
            "seed": args.seed,
            "trials": args.trials,
            "backend": kernel_backend(),
            "debug_corrupt_metric": bool(args.debug_corrupt_metric),
        },
        checks=checks,
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _spectrum_states(max_n: int) -> list[tuple[int, int]]:
    """Standard (kappa, n_r) enumeration ordered by (n, l, j)."""
    states = []
    for n in range(1, max_n + 1):
        for kappa in range(-n, n):
            if kappa == 0:
                continue
            n_r = n - abs(kappa)
            if n_r == 0 and kappa > 0:
                continue  # no zero-term series for this branch in standard order
            states.append((kappa, n_r))
    def sort_key(state):
        kappa, n_r = state
        n, j = quantum_numbers(kappa, n_r)
        l = kappa if kappa > 0 else -kappa - 1
        return (n, l, j)
    return sorted(states, key=sort_key)


def cmd_spectrum(args: argparse.Namespace) -> tuple[ReportDocument, list[dict]]:
    coupling = args.z * args.alpha
    if coupling >= 1.0:
        raise _usage_error(
            f"coupling Z*alpha = {coupling:.6f} is outside the bound-state "
            "domain; the series exponent needs coupling^2 < kappa^2 with |kappa| = 1"
        )
    rows = []
    worst_rel = 0.0
    solver_failed = False
    default_constants = (
        args.alpha == FINE_STRUCTURE and args.electron_mass_ev == ELECTRON_MASS_EV
    )
    energies: dict[tuple[int, int], float] = {}
    for kappa, n_r in _spectrum_states(args.max_n):
        params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
        closed = sommerfeld_energy(params)
        energies[(kappa, n_r)] = closed
        try:
            solver_energy = solve_radial(params).energy
        except RuntimeError:
            # no terminating series within the solver's bound: a failed check
            solver_energy = math.nan
            solver_failed = True
        else:
            worst_rel = max(worst_rel, abs(solver_energy - closed) / closed)
        n, j = quantum_numbers(kappa, n_r)
        rows.append(
            {
                "label": spectroscopic_label(kappa, n_r),
                "kappa": kappa,
                "n_r": n_r,
                "n": n,
                "j": j,
                "binding_ev": (closed - 1.0) * args.electron_mass_ev,
                "solver_binding_ev": (solver_energy - 1.0) * args.electron_mass_ev,
            }
        )

    if solver_failed:
        solver_check = Check("closed-form-vs-series-solver", "spectrum", "fail", None, 1e-9)
    else:
        solver_check = make_check("closed-form-vs-series-solver", "spectrum", worst_rel, 1e-9)
    checks = [solver_check]

    worst_degeneracy = 0.0
    for (kappa, n_r), closed in energies.items():
        mirror = energies.get((-kappa, n_r))
        if mirror is not None and not (mirror == closed):
            worst_degeneracy = 1.0
    checks.append(
        make_check("angular-sign-degeneracy-bitwise", "spectrum", worst_degeneracy, 0.0)
    )

    if args.z == 1 and default_constants:
        by_label = {row["label"]: row["binding_ev"] for row in rows}
        targets = [
            ("1s1/2", -13.6059),
            ("2s1/2", -3.402),
            ("2p1/2", -3.402),
            ("2p3/2", -3.401),
        ]
        for label, target in targets:
            if label in by_label:
                checks.append(
                    make_check(
                        f"hydrogen-{label}-binding",
                        "hydrogen-table",
                        abs(by_label[label] - target),
                        1e-3,
                    )
                )
        if "1s1/2" in by_label:
            checks.append(
                Check(
                    name="ground-state-printed-table-gap",
                    paper_ref="hydrogen-table",
                    status="skipped",
                    measured=abs(by_label["1s1/2"] - (-13.06)),
                    tolerance=None,
                )
            )

    doc = ReportDocument(
        command="spectrum",
        inputs={
            "z": args.z,
            "max_n": args.max_n,
            "alpha": args.alpha,
            "electron_mass_ev": args.electron_mass_ev,
        },
        checks=checks,
    )
    return doc, rows


_SPECTRUM_FIELDS = ("label", "kappa", "n_r", "n", "j", "binding_ev", "solver_binding_ev")


def _spectrum_table(rows: list[dict]) -> str:
    header = (
        f"{'label':<7} {'kappa':>5} {'n_r':>3} {'n':>2} {'j':>4} "
        f"{'binding_ev':>16} {'solver_binding_ev':>18}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['label']:<7} {row['kappa']:>5d} {row['n_r']:>3d} {row['n']:>2d} "
            f"{row['j']:>4.1f} {row['binding_ev']:>16.6f} {row['solver_binding_ev']:>18.6f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# planewave
# ---------------------------------------------------------------------------


def cmd_planewave(args: argparse.Namespace) -> ReportDocument:
    gamma = GammaChoice.from_name(args.gamma)
    inputs = {
        "mass": args.mass,
        "k1": args.k1,
        "k2": args.k2,
        "k3": args.k3,
        "k4": args.k4,
        "gamma": gamma.variant,
        "tolerance": args.tolerance,
    }
    try:
        wave = build_plane_wave(
            (args.k1, args.k2, args.k3), args.k4, args.mass, gamma
        )
    except ValueError:
        return ReportDocument(
            command="planewave",
            inputs=inputs,
            checks=[
                Check(
                    name="amplitude-construction",
                    paper_ref="plane-wave",
                    status="fail",
                    measured=None,
                    tolerance=None,
                )
            ],
        )

    inputs["k0"] = float(wave.k[0])
    rng = np.random.default_rng(args.seed)
    pts = random_points(rng, 6, scale=0.5)
    field = wave.field()

    checks = [
        Check("amplitude-construction", "plane-wave", "pass"),
        make_check(
            "dispersion-relation",
            "dispersion",
            wave.dispersion_residual(),
            args.tolerance,
        ),
        make_check(
            "momentum-constraint",
            "plane-wave",
            wave.constraint_residual(),
            args.tolerance,
        ),
        make_check(
            "field-residual",
            "wave-equation",
            max(dirac5_residual(field, args.mass, x).inf_norm() for x in pts),
            args.tolerance,
        ),
    ]

    if args.k4 == 0.0:
        for half in ("plus", "minus"):
            xi = MappedField(field, lambda mv, h=half: getattr(idempotent_split(mv), h))
            worst = max(
                hestenes_dirac_residual(xi, args.mass, x).inf_norm() for x in pts
            )
            checks.append(
                make_check(f"reduction-{half}-half", "reduction", worst, args.tolerance)
            )
    else:
        for half in ("plus", "minus"):
            checks.append(
                Check(
                    name=f"reduction-{half}-half",
                    paper_ref="reduction",
                    status="skipped",
                )
            )
    return ReportDocument(command="planewave", inputs=inputs, checks=checks)


# ---------------------------------------------------------------------------
# beyond
# ---------------------------------------------------------------------------


def _scalar_demo_checks(mass: float, s: float, rng: np.random.Generator) -> list[Check]:
    demo = ScalarPotentialDemo(mass, s, k_spatial=(0.2, -0.15, 0.1))
    pts = random_points(rng, 8, scale=0.5)
    worst_second = worst_potential = worst_diff = worst_eigen = 0.0
    for x in pts:
        second, potential = scalar_potential_residual(demo, x)
        worst_second = max(worst_second, second.inf_norm())
        worst_potential = max(worst_potential, potential.inf_norm())
        worst_diff = max(worst_diff, (second - potential).inf_norm())
        worst_eigen = max(worst_eigen, demo.eigen_residual(x))
    ximinus = demo.derived_minus()
    worst_recon = max(
        (
            second_time_gradient(demo.xi_plus, x)
            - mass * (ximinus.value(x) * _E012)
        ).inf_norm()
        for x in pts
    )
    worst_round = max(
        (
            pair_residual(demo.xi_plus, ximinus, mass, x, "lower")
            - scalar_potential_residual(demo, x)[0]
        ).inf_norm()
        for x in pts
    )
    return [
        make_check("second-derivative-form", "scalar-demo", worst_second, 1e-9),
        make_check("potential-form", "scalar-demo", worst_potential, 1e-9),
        make_check("forms-equivalence", "scalar-demo", worst_diff, 1e-9),
        make_check("profile-eigen-relation", "scalar-demo", worst_eigen, 1e-9),
        make_check("minus-half-reconstruction", "scalar-demo", worst_recon, 1e-9),
        make_check("pair-equation-round-trip", "scalar-demo", worst_round, 1e-9),
    ]


def cmd_beyond(args: argparse.Namespace) -> ReportDocument:
    rng = np.random.default_rng(args.seed)
    if args.demo == "scalar":
        if args.mass <= 0:
            raise _usage_error(
                "the scalar-potential demo requires non-zero (positive) mass; "
                "at zero mass the constraint forces flatness along the second "
                "time axis instead"
            )
        try:
            checks = _scalar_demo_checks(args.mass, args.s, rng)
        except (ValueError, OverflowError) as ex:  # LinAlgError is a ValueError
            raise _usage_error(
                f"the scalar-potential demo cannot be evaluated at s={args.s!r}, "
                f"mass={args.mass!r}: {ex}"
            ) from None
        inputs = {
            "demo": "scalar",
            "s": args.s,
            "mass": args.mass,
            "seed": args.seed,
        }
    else:
        n_fields = args.trials
        worst_grade = 0.0
        for _ in range(n_fields):
            fld = random_minus_field(rng)
            for x in random_points(rng, 2, scale=1.0):
                current = SourceCurrent(fld).value(x)
                worst_grade = max(
                    worst_grade,
                    max(
                        (abs(float(current.coeffs[m])) for m in _forbidden_masks()),
                        default=0.0,
                    ),
                )
        xi_plus, xi_minus = oscillating_source_pair()
        grid = demo_grid()
        samples = grid[:: max(1, len(grid) // 16)]
        current = source_current(xi_minus, xi_plus, samples, tolerance=1e-9)
        worst_src = max(
            sourced_massless_residual(xi_plus, current, x).inf_norm() for x in samples
        )
        worst_div = max(abs(current.divergence(x)) for x in samples)
        hand = max(
            (
                current.value(x)
                - (-math.cos(x[4]) / (4.0 * math.pi)) * e(CL32, 0)
            ).inf_norm()
            for x in samples
        )
        checks = [
            make_check("current-grade-structure", "source-current", worst_grade, 0.0),
            make_check("sourced-equation", "source-current", worst_src, 1e-9),
            make_check("vector-part-divergence", "source-current", worst_div, 1e-9),
            make_check("current-hand-value", "source-current", hand, 1e-12),
        ]
        inputs = {
            "demo": "sources",
            "mass": 0.0,
            "seed": args.seed,
            "trials": n_fields,
        }
    return ReportDocument(command="beyond", inputs=inputs, checks=checks)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermion5d",
        description=(
            "Verification suites and demos for the two-time geometric-algebra "
            "wave equation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the cross-module invariant suites")
    p_verify.add_argument("--seed", type=nonnegative_int, default=42)
    p_verify.add_argument("--trials", type=positive_int, default=1000,
                          help="random trials for property checks (>= 1)")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.add_argument(
        "--debug-corrupt-metric",
        action="store_true",
        help="negative control: break a generator square so a check must fail",
    )
    p_verify.set_defaults(func=_run_verify)

    p_spec = sub.add_parser("spectrum", help="hydrogen-like bound-state table")
    p_spec.add_argument("--z", type=int, default=1, help="nuclear charge (1..137)")
    p_spec.add_argument("--max-n", type=positive_int, default=3, dest="max_n",
                        help="largest principal quantum number to enumerate "
                             f"(1..{MAX_N})")
    p_spec.add_argument("--alpha", type=positive_float, default=FINE_STRUCTURE)
    p_spec.add_argument("--electron-mass-ev", type=positive_float, default=ELECTRON_MASS_EV,
                        dest="electron_mass_ev")
    p_spec.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_spec.set_defaults(func=_run_spectrum)

    p_wave = sub.add_parser("planewave", help="build and check one plane wave")
    p_wave.add_argument("--mass", type=finite_float, default=1.0)
    p_wave.add_argument("--k1", type=finite_float, default=0.0)
    p_wave.add_argument("--k2", type=finite_float, default=0.0)
    p_wave.add_argument("--k3", type=finite_float, default=0.0)
    p_wave.add_argument("--k4", type=finite_float, default=0.0,
                        help="momentum along the second time axis")
    p_wave.add_argument("--gamma", choices=("e12", "e0e"), default="e12",
                        help="phase bivector choice")
    p_wave.add_argument("--seed", type=nonnegative_int, default=42)
    p_wave.add_argument("--tolerance", type=finite_float, default=1e-10)
    p_wave.add_argument("--format", choices=("table", "json"), default="table")
    p_wave.set_defaults(func=_run_planewave)

    p_beyond = sub.add_parser("beyond", help="beyond-flatness demos")
    p_beyond.add_argument("--demo", choices=("scalar", "sources"), required=True)
    p_beyond.add_argument("--s", type=finite_float, default=0.1,
                          help="scalar potential strength (scalar demo)")
    p_beyond.add_argument("--mass", type=finite_float, default=1.0)
    p_beyond.add_argument("--seed", type=nonnegative_int, default=42)
    p_beyond.add_argument("--trials", type=positive_int, default=100,
                          help="random fields for the grade-structure check")
    p_beyond.add_argument("--format", choices=("table", "json"), default="table")
    p_beyond.set_defaults(func=_run_beyond)
    return parser


def _emit(doc: ReportDocument, fmt: str) -> int:
    if fmt == "json":
        sys.stdout.write(doc.to_json())
    else:
        sys.stdout.write(doc.to_table())
    return doc.exit_code()


def _run_verify(args: argparse.Namespace) -> int:
    return _emit(cmd_verify(args), args.format)


def _run_spectrum(args: argparse.Namespace) -> int:
    if not 1 <= args.z <= 137:
        raise _usage_error(
            "--z must be in 1..137 so that the coupling z*alpha stays inside "
            "the bound-state domain (coupling^2 < kappa^2)"
        )
    if args.max_n > MAX_N:
        raise _usage_error(
            f"--max-n must be at most {MAX_N}: the orbital letters end at "
            f"l = {MAX_N - 1} ({ANGULAR_LETTERS[-1]})"
        )
    doc, rows = cmd_spectrum(args)
    if args.format == "csv":
        sys.stdout.write(rows_to_csv(_SPECTRUM_FIELDS, rows))
        return doc.exit_code()
    if args.format == "json":
        return _emit(doc, "json")
    sys.stdout.write(_spectrum_table(rows))
    sys.stdout.write("\n")
    return _emit(doc, "table")


def _run_planewave(args: argparse.Namespace) -> int:
    return _emit(cmd_planewave(args), args.format)


def _run_beyond(args: argparse.Namespace) -> int:
    return _emit(cmd_beyond(args), args.format)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
