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
    printing the closed-form binding energies in eV next to the series
    solver's: the same condition bisected, its series checked to terminate.
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
An unexpected error is one stderr line, ``fermion5d <cmd>: error: <Type>:
<message>``, with exit status 1: no check could pass.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from typing import Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CL32,
    CL41,
    BladeOperator,
    Multivector,
    e,
    kernel_backend,
    pseudoscalar,
    tables,
)
from .beyond import (
    FORBIDDEN_CURRENT_MASKS,
    FOUR_PI,
    ScalarPotentialDemo,
    demo_grid,
    oscillating_source_pair,
    pair_residuals,
    random_minus_wave,
    scalar_potential_residuals,
    second_time_gradients,
    source_current,
    sourced_massless_residuals,
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
    solve_radials,
    sommerfeld_energy,
    spectroscopic_label,
    quantum_numbers,
)
from .fields import PhaseField, minkowski_dot, random_points
from .report import Check, ReportDocument, make_check, rows_to_csv
from .spinor import idempotent_split_coeffs, pm_split_coeffs
from .wave import (
    GammaChoice,
    GammaRejectionError,
    build_plane_wave,
    build_plane_waves,
    dirac5_residuals,
    gamma_classify,
    hestenes_sample_residuals,
    phase_mixture,
    plane_wave_field,
)

_E34 = e(CL32, 3, 4)
_RIGHT_E012 = BladeOperator.right(e(CL32, 0, 1, 2))
#: Associativity trials per batch.  A (64, 32, 32) float64 gather is 512 KB,
#: so the peak memory of ``verify`` does not grow with ``--trials``.  With
#: the C-ordered gather, 1000 trials took 20-21 ms at 64 and at 128 per
#: batch, 21-24 ms at 16 and 32, and 21 ms at 256, whose gathers peak at
#: 2.5 MB against 0.7 MB at 64.
_TRIAL_CHUNK = 64
#: Minus fields per batch of the current-grade check.  A batch's partials
#: take 2.5 KB per field, so ``beyond --trials`` does not grow the peak
#: memory past about 2.5 MB, and ``verify``'s 100 fields are one batch.
_FIELD_CHUNK = 1000
#: Largest ``spectrum --max-n``: one orbital letter per l = 0 .. n - 1.
MAX_N = len(ANGULAR_LETTERS)
#: Default absolute tolerance of the ``planewave`` residuals.
PLANEWAVE_TOLERANCE = 1e-10
#: Worst ``planewave`` residual per squared momentum scale
#: ``s = |(k1, k2, k3, k4, mass)|``.  The residuals are absolute and their
#: float64 roundoff grows like s^2: over 200,000 random inputs the dispersion
#: residual reached 2.35 ulp(1) s^2, and the other checks stayed below
#: 7.5e-12 at s = 400.
PLANEWAVE_ROUNDOFF = 2.35 * np.finfo(np.float64).eps
#: Largest ``planewave`` momentum scale at which an amplitude is found: over
#: 4000 random directions at each of 3e5 .. 7e5 every one had one; from
#: 8.5e5 some did not, and from 1e8 none.
PLANEWAVE_AMPLITUDE_SCALE = 5e5


def _usage_error(command: str, message: str) -> SystemExit:
    """Usage errors exit with status 2, like argparse's own."""
    print(f"fermion5d {command}: error: {message}", file=sys.stderr)
    return SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """Writes a usage error as one stderr line, ``<prog>: error: <message>``,
    and reads ``-1e-3`` and ``-.5e0`` as negative numbers, not option names."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


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


def nonnegative_float(text: str) -> float:
    value = finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
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

    # one row per blade: I b - b I
    center, blades = pseudoscalar(CL32), np.eye(CL32.n_blades)
    commutators = BladeOperator.left(center)(blades) - BladeOperator.right(center)(blades)
    checks.append(
        make_check("pseudoscalar-centrality", "algebra", np.abs(commutators).max(axis=1), 0.0)
    )

    gaps = []
    for i in range(5):
        ei = e(CL32, i)
        sq = ei * ei - Multivector.scalar(float(CL32.signs[i]), CL32)
        gaps.append(sq.inf_norm())
        for j in range(i + 1, 5):
            ej = e(CL32, j)
            gaps.append((ei * ej + ej * ei).inf_norm())
    checks.append(make_check("generator-relations", "algebra", gaps, 0.0))

    # (x, y, z) per trial, drawn in the order of three separate samples
    sign = tables(CL32).sign
    gaps = []
    for start in range(0, trials, _TRIAL_CHUNK):
        size = min(_TRIAL_CHUNK, trials - start)
        x, y, z = np.moveaxis(rng.uniform(-1.0, 1.0, (size, 3, CL32.n_blades)), 1, 0)
        left = _kernels.gp(sign, _kernels.gp(sign, x, y), z)
        right = _kernels.gp(sign, x, _kernels.gp(sign, y, z))
        gaps.append(np.abs(left - right).max(axis=1))
    checks.append(make_check("product-associativity", "algebra", gaps, 1e-12))
    return checks


def _bit_mismatches(got: np.ndarray, ref) -> int:
    """Number of slots whose bit pattern differs from the reference's.

    Subtraction would read a ``-0.0`` against a ``+0.0`` as equal.
    """
    ref = np.asarray(ref, dtype=np.float64)
    return int(np.count_nonzero(got.view(np.uint64) != ref.view(np.uint64)))


def _kernel_check(seed: int) -> Check:
    """The product kernel against its reference loop, bit for bit.

    Dense and single-blade left operands, under both sign tables, one
    product at a time and then as one batch against the reference row by
    row.  The measured value is the largest number of output slots of one
    comparison whose bits differ.  The operands come from a generator of
    their own, so the shared stream that every other check draws from is
    left as it was.
    """
    rng = np.random.default_rng([seed, 1])
    t = tables(CL32)
    signs = (t.sign, t.wedge_sign)
    gaps = []
    for sign in signs:
        for _ in range(5):
            a = rng.uniform(-1, 1, size=CL32.n_blades)
            b = rng.uniform(-1, 1, size=CL32.n_blades)
            blade = Multivector.blade(int(rng.integers(CL32.n_blades)), CL32, a[0]).coeffs
            for left in (a, blade):
                gaps.append(
                    _bit_mismatches(_kernels.gp(sign, left, b), _kernels.gp_reference(sign, left, b))
                )
    lefts = rng.uniform(-1, 1, size=(4, CL32.n_blades))
    rights = rng.uniform(-1, 1, size=(4, CL32.n_blades))
    lefts[-1, np.arange(CL32.n_blades) != rng.integers(CL32.n_blades)] = 0.0  # one blade
    for sign in signs:
        rows = [_kernels.gp_reference(sign, a, b) for a, b in zip(lefts, rights)]
        gaps.append(_bit_mismatches(_kernels.gp(sign, lefts, rights), rows))
    return make_check("kernel-backend-agreement", "plumbing", gaps, 0.0)


def _spinor_checks(rng: np.random.Generator, trials: int) -> list[Check]:
    """The pair-split rules on random even samples, one gap per sample."""
    n = max(1, min(trials, 50))
    even = tables(CL32).grades % 2 == 0
    x = np.where(even, rng.uniform(-1.0, 1.0, (n, CL32.n_blades)), 0.0)
    plus, minus = pm_split_coeffs(x)
    swaps = []
    for mu in range(5):
        gen = BladeOperator.left(e(CL32, mu))
        shifted_plus, shifted_minus = pm_split_coeffs(gen(x))
        # e0..e3 swap the halves, e4 keeps them
        to_plus, to_minus = (minus, plus) if mu < 4 else (plus, minus)
        swaps += [shifted_plus - gen(to_plus), shifted_minus - gen(to_minus)]
    pair_plus, pair_minus = idempotent_split_coeffs(x)
    lock = pair_minus + BladeOperator.right(_E34)(pair_plus)
    one_minus_e34 = (Multivector.scalar(1.0, CL32) - _E34).coeffs
    recon = pair_plus + pair_minus - _kernels.gp(
        tables(CL32).sign, x, np.broadcast_to(one_minus_e34, x.shape)
    )
    return [
        make_check("class-swap-rule", "pair-split", np.abs(swaps).max(axis=(0, 2)), 0.0),
        make_check("idempotent-pair-lock", "pair-split", np.abs(lock).max(axis=1), 0.0),
        make_check("idempotent-pair-partition", "pair-split", np.abs(recon).max(axis=1), 0.0),
    ]


def _half_residuals(field, points, mass) -> list[np.ndarray]:
    """Hestenes residuals of the plus and minus idempotent halves of a flat
    field, from one evaluation of its values and partials."""
    values = idempotent_split_coeffs(field.values(points))
    partials = idempotent_split_coeffs(field.partials(points))
    return [hestenes_sample_residuals(v, p, mass) for v, p in zip(values, partials)]


def _wave_checks(rng: np.random.Generator, trials: int) -> list[Check]:
    """The 4D reduction of random flat plane waves, checked as one batch.

    Each phase bivector's waves are built together (one SVD for all their
    amplitudes) and checked at the same three points as one
    :class:`PhaseField` of ``waves x points`` rows.
    """
    n_waves = max(1, min(trials, 25))
    reductions, dispersions = [], []
    pts = random_points(rng, 3, scale=0.5)
    draws = [(rng.uniform(-1.0, 1.0, size=3), float(rng.uniform(0.5, 1.5))) for _ in range(n_waves)]
    k_spatial = np.array([k for k, _ in draws])
    masses = np.array([m for _, m in draws])
    # row w * len(pts) + p pairs wave w with point p
    waves = np.repeat(np.arange(n_waves), len(pts))
    points = np.tile(pts, (n_waves, 1))
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        k, amps = build_plane_waves(k_spatial, 0.0, masses, gamma)
        dispersions += [abs(minkowski_dot(kk, kk) + m**2) for kk, (_, m) in zip(k, draws)]
        field = plane_wave_field(k[waves], amps[waves], gamma)
        halves = _half_residuals(field, points, masses[waves])
        reductions += [np.abs(res).max(axis=1) for res in halves]
    checks = [
        make_check("plane-wave-reduction", "reduction", reductions, 1e-10),
        make_check("plane-wave-dispersion", "dispersion", dispersions, 1e-10),
    ]

    # one 0/1 per candidate: on the quarter-turn lattice a mixture is e12
    # (even k) or e0E (odd k); the last two must be rejected
    pure = (GammaChoice.E12_VARIANT, GammaChoice.E0E_VARIANT)
    wrong = [float(gamma_classify(phase_mixture(k * math.pi / 2)).variant != pure[k % 2])
             for k in range(4)]
    for bad in (phase_mixture(math.pi / 4), e(CL32, 1, 3)):
        try:
            gamma_classify(bad)
            wrong.append(1.0)
        except GammaRejectionError:
            wrong.append(0.0)
    checks.append(make_check("phase-bivector-classification", "phase-choice", wrong, 0.0))
    return checks


def _coulomb_checks() -> list[Check]:
    eye = np.eye(16)
    gaps = []
    z_mat, r_mat = e0_sandwich_matrix(), radial_left_matrix()
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        h_mat = gamma_e0_right_matrix(gamma)
        for mat in (z_mat, h_mat, r_mat):
            gaps.append(np.abs(mat @ mat - eye).max())
        gaps.append(np.abs(z_mat @ h_mat - h_mat @ z_mat).max())
        gaps.append(np.abs(z_mat @ r_mat + r_mat @ z_mat).max())
        gaps.append(np.abs(h_mat @ r_mat - r_mat @ h_mat).max())
    checks = [make_check("radial-operator-algebra", "radial-system", gaps, 0.0)]

    gaps = []
    kappa, coupling, mass, energy = -2, 0.3, 1.0, 0.9
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        s_mat = angular_coupling_matrix(kappa, coupling, gamma)
        t_mat = mass_energy_matrix(mass, energy, gamma)
        gaps.append(np.abs(s_mat @ s_mat - (kappa**2 - coupling**2) * eye).max())
        gaps.append(np.abs(t_mat @ t_mat - (mass**2 - energy**2) * eye).max())
    checks.append(make_check("radial-square-identities", "radial-system", gaps, 1e-12))

    params = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=-1, n_r=1)
    solution = solve_radial(params)
    rel = abs(solution.energy - sommerfeld_energy(params)) / sommerfeld_energy(params)
    checks.append(make_check("bound-state-cross-check", "spectrum", rel, 1e-9))
    return checks


def _minus_samples(rng: np.random.Generator, n_fields: int) -> tuple[PhaseField, np.ndarray]:
    """``n_fields`` random minus halves at two points each, as one field
    paired with its ``(2 n_fields, 5)`` point array.

    Draws one field's ``A``, ``B`` and ``w`` (:func:`random_minus_wave`) and
    then its two points, ``n_fields`` times.
    """
    draws = [(random_minus_wave(rng), random_points(rng, 2, scale=1.0)) for _ in range(n_fields)]
    rows = (np.repeat([wave[i] for wave, _ in draws], 2, axis=0) for i in range(3))
    return PhaseField(*rows), np.concatenate([pts for _, pts in draws])


def _current_grade_check(rng: np.random.Generator, n_fields: int) -> Check:
    """The induced current of random minus halves stays on its blades.

    The current is the unguarded ``e4 d^4 xi_minus / 4 pi`` at the samples
    of :func:`_minus_samples`, because ``SourceCurrent.values`` raises on
    the very blades measured here.  The fields are checked in batches of
    :data:`_FIELD_CHUNK`, drawn in order.
    """
    forbidden = []
    for start in range(0, n_fields, _FIELD_CHUNK):
        field, points = _minus_samples(rng, min(_FIELD_CHUNK, n_fields - start))
        current = second_time_gradients(field, points) / FOUR_PI
        forbidden.append(np.abs(current[:, FORBIDDEN_CURRENT_MASKS]).max(axis=1))
    return make_check("current-grade-structure", "source-current", forbidden, 0.0)


def _beyond_checks(rng: np.random.Generator, trials: int) -> list[Check]:
    checks = [_current_grade_check(rng, max(1, min(trials, 100)))]

    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.2, -0.15, 0.1))
    pts = random_points(rng, 5, scale=0.5)
    second, potential = scalar_potential_residuals(demo, pts)
    gaps = np.abs(second - potential).max(axis=1)
    checks.append(make_check("scalar-demo-equivalence", "scalar-demo", gaps, 1e-9))

    xi_plus, xi_minus = oscillating_source_pair()
    current = source_current(xi_minus)
    gaps = np.abs(sourced_massless_residuals(xi_plus, current, pts)).max(axis=1)
    checks.append(make_check("sourced-equation", "source-current", gaps, 1e-12))
    return checks


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
    """Standard (kappa, n_r) enumeration ordered by (n, l, j): kappa = l has
    j = l - 1/2 and kappa = -(l + 1) has j = l + 1/2."""
    return [
        (kappa, n - abs(kappa))
        for n in range(1, max_n + 1)
        for l in range(n)
        for kappa in ((l, -l - 1) if l else (-1,))
    ]


def cmd_spectrum(args: argparse.Namespace) -> tuple[ReportDocument, list[dict]]:
    coupling = args.z * args.alpha
    if coupling >= 1.0:
        raise _usage_error(
            args.command,
            f"coupling Z*alpha = {coupling:.6f} is outside the bound-state "
            "domain; the series exponent needs coupling^2 < kappa^2 with |kappa| = 1"
        )
    rows, rel_errors = [], []
    default_constants = args.alpha == FINE_STRUCTURE and args.electron_mass_ev == ELECTRON_MASS_EV
    states = _spectrum_states(args.max_n)
    params_seq = [CoulombParams(mass=1.0, coupling=coupling, kappa=k, n_r=n) for k, n in states]
    energies: dict[tuple[int, int], float] = {}
    for (kappa, n_r), params, solved in zip(states, params_seq, solve_radials(params_seq)):
        closed = sommerfeld_energy(params)
        energies[(kappa, n_r)] = closed
        # no terminating series within the solver's bound: a failed check
        solver_energy = math.nan if isinstance(solved, RuntimeError) else solved.energy
        rel_errors.append(abs(solver_energy - closed) / closed)
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

    # one gap per table row; the NaN of a failed solve fails the check
    checks = [make_check("closed-form-vs-series-solver", "spectrum", rel_errors, 1e-9)]
    split = [float((-kappa, n_r) in energies and energies[(-kappa, n_r)] != closed)
             for (kappa, n_r), closed in energies.items()]
    checks.append(make_check("angular-sign-degeneracy-bitwise", "spectrum", split, 0.0))

    if args.z == 1 and default_constants:
        by_label = {row["label"]: row["binding_ev"] for row in rows}
        targets = [("1s1/2", -13.6059), ("2s1/2", -3.402), ("2p1/2", -3.402), ("2p3/2", -3.401)]
        checks += [
            make_check(f"hydrogen-{label}-binding", "hydrogen-table",
                       abs(by_label[label] - target), 1e-3)
            for label, target in targets if label in by_label
        ]
        if "1s1/2" in by_label:
            gap = abs(by_label["1s1/2"] - (-13.06))
            checks.append(Check("ground-state-printed-table-gap", "hydrogen-table", "skipped", gap))

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
        failed = Check("amplitude-construction", "plane-wave", "fail")
        return ReportDocument(command="planewave", inputs=inputs, checks=[failed])

    inputs["k0"] = float(wave.k[0])
    rng = np.random.default_rng(args.seed)
    pts = random_points(rng, 6, scale=0.5)
    field = wave.field()

    checks = [
        Check("amplitude-construction", "plane-wave", "pass"),
        make_check("dispersion-relation", "dispersion", wave.dispersion_residual(), args.tolerance),
        make_check("momentum-constraint", "plane-wave", wave.constraint_residual(), args.tolerance),
        make_check(
            "field-residual",
            "wave-equation",
            np.abs(dirac5_residuals(field, args.mass, pts)).max(axis=1),
            args.tolerance,
        ),
    ]

    if args.k4 == 0.0:
        for half, res in zip(("plus", "minus"), _half_residuals(field, pts, args.mass)):
            gaps = np.abs(res).max(axis=1)
            checks.append(make_check(f"reduction-{half}-half", "reduction", gaps, args.tolerance))
    else:
        checks += [Check(f"reduction-{h}-half", "reduction", "skipped") for h in ("plus", "minus")]
    return ReportDocument(command="planewave", inputs=inputs, checks=checks)


# ---------------------------------------------------------------------------
# beyond
# ---------------------------------------------------------------------------


def _scalar_demo_checks(mass: float, s: float, rng: np.random.Generator) -> list[Check]:
    demo = ScalarPotentialDemo(mass, s, k_spatial=(0.2, -0.15, 0.1))
    pts = random_points(rng, 8, scale=0.5)
    second, potential = scalar_potential_residuals(demo, pts)
    ximinus = demo.derived_minus()
    recon = second_time_gradients(demo.xi_plus, pts) - mass * _RIGHT_E012(ximinus.values(pts))
    round_trip = pair_residuals(demo.xi_plus, ximinus, mass, pts, "lower") - second
    measured = [
        ("second-derivative-form", second),
        ("potential-form", potential),
        ("forms-equivalence", second - potential),
        ("profile-eigen-relation", demo.eigen_residuals(pts)[:, None]),  # a sup-norm per point
        ("minus-half-reconstruction", recon),
        ("pair-equation-round-trip", round_trip),
    ]
    return [make_check(name, "scalar-demo", np.abs(v).max(axis=1), 1e-9) for name, v in measured]


def cmd_beyond(args: argparse.Namespace) -> ReportDocument:
    rng = np.random.default_rng(args.seed)
    if args.demo == "scalar":
        if args.mass <= 0:
            raise _usage_error(
                args.command,
                "the scalar-potential demo requires non-zero (positive) mass; "
                "at zero mass the constraint forces flatness along the second "
                "time axis instead"
            )
        try:
            checks = _scalar_demo_checks(args.mass, args.s, rng)
        except (ValueError, OverflowError) as ex:  # LinAlgError is a ValueError
            raise _usage_error(
                args.command,
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
        grade_check = _current_grade_check(rng, args.trials)
        xi_plus, xi_minus = oscillating_source_pair()
        grid = demo_grid()
        samples = grid[:: max(1, len(grid) // 16)]
        current = source_current(xi_minus)  # judged by the checks below, once
        sourced = np.abs(sourced_massless_residuals(xi_plus, current, samples)).max(axis=1)
        # the hand value -(cos(x4) / 4pi) e0, as a wave along x4
        hand = PhaseField(-e(CL32, 0), Multivector.zero(CL32), (0, 0, 0, 0, 1)).values(samples)
        hand_gaps = np.abs(current.values(samples) - hand / (4.0 * math.pi)).max(axis=1)
        checks = [
            grade_check,
            make_check("sourced-equation", "source-current", sourced, 1e-9),
            make_check("vector-part-divergence", "source-current",
                       np.abs(current.divergences(samples)), 1e-9),
            make_check("current-hand-value", "source-current", hand_gaps, 1e-12),
        ]
        inputs = {
            "demo": "sources",
            "mass": 0.0,
            "seed": args.seed,
            "trials": args.trials,
        }
    return ReportDocument(command="beyond", inputs=inputs, checks=checks)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fermion5d",
        description=(
            "Verification suites and demos for the two-time geometric-algebra "
            "wave equation"
        ),
    )
    sub = parser.add_subparsers(dest="command")  # subparsers are _Parser too

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
    p_wave.add_argument("--mass", type=nonnegative_float, default=1.0,
                        help="rest mass (>= 0; 0 gives a massless wave)")
    p_wave.add_argument("--k1", type=finite_float, default=0.0)
    p_wave.add_argument("--k2", type=finite_float, default=0.0)
    p_wave.add_argument("--k3", type=finite_float, default=0.0)
    p_wave.add_argument("--k4", type=finite_float, default=0.0,
                        help="momentum along the second time axis")
    p_wave.add_argument("--gamma", choices=("e12", "e0e"), default="e12",
                        help="phase bivector choice")
    p_wave.add_argument("--seed", type=nonnegative_int, default=42)
    p_wave.add_argument("--tolerance", type=nonnegative_float, default=PLANEWAVE_TOLERANCE)
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
            args.command,
            "--z must be in 1..137 so that the coupling z*alpha stays inside "
            "the bound-state domain (coupling^2 < kappa^2)"
        )
    if args.max_n > MAX_N:
        raise _usage_error(
            args.command,
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


def planewave_max_scale(tolerance: float) -> float:
    """Largest momentum scale ``|(k1, k2, k3, k4, mass)|`` of ``planewave``.

    Up to it the worst measured roundoff stays within half of the tolerance,
    and an amplitude is found.  A tolerance tighter than the default keeps
    the default's domain (a scale of about 309.6): roundoff may exceed such a
    tolerance anywhere, and the checks report it.
    """
    reach = math.sqrt(max(tolerance, PLANEWAVE_TOLERANCE) / (2.0 * PLANEWAVE_ROUNDOFF))
    return min(reach, PLANEWAVE_AMPLITUDE_SCALE)


def _run_planewave(args: argparse.Namespace) -> int:
    scale = math.hypot(args.k1, args.k2, args.k3, args.k4, args.mass)
    limit = planewave_max_scale(args.tolerance)
    if scale > limit:
        if limit == PLANEWAVE_AMPLITUDE_SCALE:
            beyond = "no amplitude may be found"
        else:
            tolerance = max(args.tolerance, PLANEWAVE_TOLERANCE)
            beyond = f"float64 roundoff in the residuals can exceed the tolerance {tolerance:g}"
        raise _usage_error(
            args.command,
            f"the momentum scale |(k1, k2, k3, k4, mass)| = {scale:g} exceeds "
            f"{limit:g}; beyond it {beyond}",
        )
    return _emit(cmd_planewave(args), args.format)


def _run_beyond(args: argparse.Namespace) -> int:
    return _emit(cmd_beyond(args), args.format)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # argparse wraps the usage to the terminal width: join it into one line
        parser.error("a command is required; " + " ".join(parser.format_usage().split()))
    try:
        return args.func(args)
    except Exception as ex:  # usage errors are SystemExit and keep exit 2
        message = " ".join(f"{type(ex).__name__}: {ex}".split())
        print(f"fermion5d {args.command}: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
