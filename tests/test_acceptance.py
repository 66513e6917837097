"""Acceptance gate: one test per primary criterion, at the pinned tolerances.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) before asserting, so a full run yields one line per criterion:

* C1  algebra identity suite, exact or < 1e-12, under one second
* C2  plane-wave reduction: both idempotent halves solve the 4D equation
* C3  dispersion: every constructed wave sits on the mass shell to 1e-10
* C4  phase-bivector admissibility on the quarter-turn lattice only
* C5  closed form vs series solver over the full parameter grid, 1e-9 rel
* C6  hydrogen fine-structure table at the published constants, +-0.001 eV
* C7  bitwise degeneracy of the closed form in the sign of the angular label
* C8  scalar-potential demo: form equivalence and round trip < 1e-9
* C9  source current: exact grade confinement and a divergence-free vector part
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fermion5d.algebra import CL32, Multivector, e, pseudoscalar, random_multivector
from fermion5d.beyond import (
    CURRENT_MASKS,
    DEMO_GRID_SPACING,
    ScalarPotentialDemo,
    SourceCurrent,
    demo_grid,
    oscillating_source_pair,
    pair_residuals,
    random_minus_wave,
    scalar_potential_residual,
    second_time_gradients,
)
from fermion5d.constants import ELECTRON_MASS_EV, FINE_STRUCTURE
from fermion5d.coulomb import (
    CoulombParams,
    solve_radial,
    sommerfeld_energy,
    spectroscopic_label,
)
from fermion5d.fields import PhaseField
from fermion5d.wave import (
    GammaChoice,
    GammaRejectionError,
    build_plane_wave,
    gamma_classify,
    hestenes_dirac_residual,
    phase_mixture,
    sector_fields,
)

E012 = e(CL32, 0, 1, 2)
BOTH_GAMMAS = (GammaChoice.e12(), GammaChoice.e0E())


def report(criterion: str, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {criterion}: {description} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # build the cached sign and gather tables before the timed criterion runs
    x = random_multivector(np.random.default_rng(0), CL32)
    for _ in range(3):
        x = x * x + Multivector.scalar(1.0) - x
    yield


def test_c1_algebra_identity_suite():
    start = time.perf_counter()
    worst_exact = 0.0
    top = pseudoscalar(CL32)
    worst_exact = max(worst_exact, (top * top - Multivector.scalar(1.0)).inf_norm())
    for mask in range(CL32.n_blades):
        blade = Multivector.blade(mask, CL32)
        worst_exact = max(worst_exact, (top * blade - blade * top).inf_norm())
    for i in range(5):
        ei = e(CL32, i)
        worst_exact = max(
            worst_exact,
            (ei * ei - Multivector.scalar(float(CL32.signs[i]))).inf_norm(),
        )
        for j in range(i + 1, 5):
            ej = e(CL32, j)
            worst_exact = max(worst_exact, (ei * ej + ej * ei).inf_norm())
    rng = np.random.default_rng(101)
    worst_assoc = 0.0
    for _ in range(1000):
        x = random_multivector(rng, CL32)
        y = random_multivector(rng, CL32)
        z = random_multivector(rng, CL32)
        worst_assoc = max(worst_assoc, ((x * y) * z - x * (y * z)).inf_norm())
    elapsed = time.perf_counter() - start
    report(
        "C1",
        "algebra identities exact, associativity < 1e-12, under 1 s",
        worst_exact == 0.0 and worst_assoc < 1e-12 and elapsed < 1.0,
        f"exact residual {worst_exact:.1e}, associativity {worst_assoc:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_c2_reduction_of_flat_waves_to_the_4d_equation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        k_spatial = rng.uniform(-1.0, 1.0, size=3)
        mass = float(rng.uniform(0.5, 1.5))
        pts = rng.uniform(-0.7, 0.7, size=(3, 5))
        for gamma in BOTH_GAMMAS:
            wave = build_plane_wave(k_spatial, 0.0, mass, gamma)
            plus, minus = sector_fields(wave.field())
            for xi in (plus, minus):
                for x in pts:
                    worst = max(worst, hestenes_dirac_residual(xi, mass, x).inf_norm())
    report(
        "C2",
        "100 flat waves x both phase choices: both halves solve the 4D equation",
        worst < 1e-10,
        f"worst residual {worst:.2e} < 1e-10",
    )


def test_c3_every_constructed_wave_is_on_the_mass_shell():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        mass = float(rng.uniform(0.3, 2.0))
        k_spatial = rng.uniform(-1.0, 1.0, size=3)
        k4 = float(rng.uniform(-0.9, 0.9)) * mass
        gamma = BOTH_GAMMAS[int(rng.integers(2))]
        wave = build_plane_wave(k_spatial, k4, mass, gamma)
        worst = max(worst, wave.dispersion_residual())
    report(
        "C3",
        "dispersion k.k + m^2 = 0 for every constructed plane wave",
        worst < 1e-10,
        f"worst |k.k + m^2| = {worst:.2e} < 1e-10",
    )


def test_c4_phase_bivector_classification():
    ok = True
    notes = []
    for gamma in BOTH_GAMMAS:
        g = gamma.as_multivector()
        square_exact = (g * g + 1).inf_norm() == 0.0
        classified = gamma_classify(g).variant == gamma.variant
        ok = ok and square_exact and classified
        notes.append(f"{gamma.variant} square&identity {'ok' if square_exact and classified else 'BAD'}")
    for k in range(8):
        expected = GammaChoice.E12_VARIANT if k % 2 == 0 else GammaChoice.E0E_VARIANT
        try:
            classified = gamma_classify(phase_mixture(k * math.pi / 2)).variant
        except GammaRejectionError:
            classified = "rejected"
        if classified != expected:
            ok = False
            notes.append(f"theta={k}pi/2 {classified}, expected {expected}")
    rejected = 0
    for theta in (math.pi / 4, 3 * math.pi / 4, 1.0):
        try:
            gamma_classify(phase_mixture(theta))
        except GammaRejectionError:
            rejected += 1
    ok = ok and rejected == 3
    report(
        "C4",
        "mixtures admissible exactly on the quarter-turn lattice; pi/4 rejected",
        ok,
        "; ".join(notes) + f"; {rejected}/3 off-lattice angles rejected",
    )


def test_c5_series_solver_matches_the_closed_form_over_the_grid():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for coupling in (0.001, FINE_STRUCTURE, 0.3):
        for kappa in (-3, -2, -1, 1, 2, 3):
            for n_r in range(4):
                params = CoulombParams(
                    mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r
                )
                solution = solve_radial(params)
                closed = sommerfeld_energy(params)
                worst = max(worst, abs(solution.energy - closed) / closed)
                cells += 1
    elapsed = time.perf_counter() - start
    report(
        "C5",
        "series solver vs closed form, 72-cell grid, 1e-9 relative, under 30 s",
        worst < 1e-9 and elapsed < 30.0 and cells == 72,
        f"worst relative {worst:.2e}, {cells} cells in {elapsed:.1f} s",
    )


def test_c6_hydrogen_fine_structure_table():
    targets = {
        ("1s1/2", -1, 0): -13.6059,
        ("2s1/2", -1, 1): -3.402,
        ("2p1/2", 1, 1): -3.402,
        ("2p3/2", -2, 0): -3.401,
    }
    worst = 0.0
    for (label, kappa, n_r), target in targets.items():
        params = CoulombParams(
            mass=1.0, coupling=FINE_STRUCTURE, kappa=kappa, n_r=n_r
        )
        assert spectroscopic_label(kappa, n_r) == label
        binding = (sommerfeld_energy(params) - 1.0) * ELECTRON_MASS_EV
        worst = max(worst, abs(binding - target))
    ground = (
        sommerfeld_energy(
            CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=-1, n_r=0)
        )
        - 1.0
    ) * ELECTRON_MASS_EV
    printed_figure_gap = abs(ground - (-13.06))
    report(
        "C6",
        "hydrogen 1s/2s/2p bindings within 0.001 eV of the reference figures",
        worst < 1e-3,
        f"worst deviation {worst:.2e} eV; gap to the printed -13.06 figure "
        f"{printed_figure_gap:.3f} eV recorded as a discrepancy, not matched",
    )


def test_c7_bitwise_degeneracy_in_the_angular_sign():
    mismatches = 0
    cells = 0
    for coupling in (0.001, FINE_STRUCTURE, 0.3):
        for kappa in (1, 2, 3):
            for n_r in range(4):
                plus = sommerfeld_energy(
                    CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
                )
                minus = sommerfeld_energy(
                    CoulombParams(mass=1.0, coupling=coupling, kappa=-kappa, n_r=n_r)
                )
                cells += 1
                if plus != minus:
                    mismatches += 1
    report(
        "C7",
        "closed-form energy identical bit-for-bit under kappa -> -kappa",
        mismatches == 0,
        f"{mismatches} mismatches over {cells} cells",
    )


def test_c8_scalar_potential_demo_equivalence_and_round_trip():
    rng = np.random.default_rng(108)
    pts = rng.uniform(-0.5, 0.5, size=(6, 5))
    worst_forms = 0.0
    worst_round = 0.0
    for s in (0.01, 0.1, 1.0):
        demo = ScalarPotentialDemo(1.0, s, k_spatial=(0.2, -0.15, 0.1))
        ximinus = demo.derived_minus()
        for x in pts:
            second_form, potential_form = scalar_potential_residual(demo, x)
            worst_forms = max(worst_forms, (second_form - potential_form).inf_norm())
        right = [(ximinus.value(x) * E012).coeffs for x in pts]
        reconstruction = np.abs(second_time_gradients(demo.xi_plus, pts) - right).max()
        substituted = np.abs(pair_residuals(ximinus, demo.xi_plus, 1.0, pts)).max()
        worst_round = max(worst_round, float(reconstruction), float(substituted))
    report(
        "C8",
        "scalar demo: two reduced forms agree and the minus half round-trips",
        worst_forms < 1e-9 and worst_round < 1e-9,
        f"forms diff {worst_forms:.2e}, round trip {worst_round:.2e}, "
        f"s in {{0.01, 0.1, 1}} at unit mass",
    )


def test_c9_source_current_grade_structure_and_conservation():
    rng = np.random.default_rng(109)
    forbidden = [m for m in range(32) if m not in CURRENT_MASKS]
    worst_forbidden = 0.0
    for _ in range(100):
        field = PhaseField(*random_minus_wave(rng))
        current = SourceCurrent(field)
        for x in rng.uniform(-1.0, 1.0, size=(2, 5)):
            value = current.value(x)
            worst_forbidden = max(
                worst_forbidden, float(np.abs(value.coeffs[forbidden]).max())
            )
    _, xi_minus = oscillating_source_pair()
    current = SourceCurrent(xi_minus)
    grid = demo_grid()
    samples = grid[::81]
    worst_divergence = float(np.abs(current.divergences(samples)).max())
    h_squared = DEMO_GRID_SPACING**2
    report(
        "C9",
        "current confined to grades {1,3} without e4, exactly, for 100 random "
        "minus halves; vector part divergence-free on the demo grid",
        worst_forbidden == 0.0 and worst_divergence <= h_squared,
        f"largest forbidden coefficient {worst_forbidden:.1e} (exact zero "
        f"required), divergence {worst_divergence:.1e} <= h^2 = {h_squared:.1e} "
        f"over {len(samples)} grid points",
    )
