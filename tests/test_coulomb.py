"""Tests for the Coulomb radial system, closed-form ladder, and series solver.

The closed-form energies are checked two independent ways: against literal
frozen values (regression pinning; every operation in the closed form is a
correctly-rounded IEEE primitive, so the doubles are platform-stable) and
against a 50-digit arbitrary-precision evaluation of the textbook formula in
the (n, j) parametrization, which shares no code with the implementation.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from fermion5d import coulomb
from fermion5d.algebra import CL32, Multivector, e
from fermion5d.constants import ELECTRON_MASS_EV, FINE_STRUCTURE
from fermion5d.coulomb import (
    CoulombParams,
    RadialSeries,
    RadialSolution,
    angular_coupling_matrix,
    angular_reduction_check,
    e0_sandwich_matrix,
    even_operator_matrix,
    gamma_e0_right_matrix,
    mass_energy_matrix,
    orbital_letter,
    quantum_numbers,
    radial_left_matrix,
    radial_ode_residual,
    solve_radial,
    sommerfeld_energy,
    spectroscopic_label,
)
from fermion5d.fields import AnalyticField
from fermion5d.wave import GammaChoice

BOTH_GAMMAS = (GammaChoice.e12(), GammaChoice.e0E())
EYE = np.eye(16)

#: Frozen binding energies in eV for hydrogen (Z = 1), computed as
#: (closed-form energy at unit mass - 1) * electron mass.  Regression pins.
FROZEN_BINDING_EV = {
    ("1s1/2", -1, 0): -13.605874258219037,
    ("2s1/2", -1, 1): -3.4014798856230613,
    ("2p1/2", 1, 1): -3.4014798856230613,
    ("2p3/2", -2, 0): -3.4014346014633188,
    ("3p3/2", -2, 1): -1.5117503889693862,
}

#: Frozen fine-structure splitting 2p3/2 - 2p1/2 in eV.
FROZEN_2P_SPLIT_EV = 4.5284159742209344e-05


def textbook_binding_ev(n: int, j: float, z: int = 1) -> float:
    """Arbitrary-precision Dirac-Coulomb binding energy in eV, (n, j) form."""
    with mp.workdps(50):
        za = z * mp.mpf("7.2973525693e-3")
        me = mp.mpf("510998.95")
        kabs = mp.mpf(j) + mp.mpf(1) / 2
        denom = n - kabs + mp.sqrt(kabs**2 - za**2)
        return float(me / mp.sqrt(1 + (za / denom) ** 2) - me)


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_building_block_operators_are_exact_involutions(gamma):
    z = e0_sandwich_matrix()
    h = gamma_e0_right_matrix(gamma)
    r = radial_left_matrix()
    for mat in (z, h, r):
        assert np.array_equal(mat @ mat, EYE)
    assert np.array_equal(z @ h, h @ z)
    assert np.array_equal(z @ r, -(r @ z))
    assert np.array_equal(h @ r, r @ h)


def test_operators_accept_any_spatial_radial_unit():
    for unit in (e(CL32, 1), e(CL32, 2)):
        mat = radial_left_matrix(unit)
        assert np.array_equal(mat @ mat, EYE)


def test_radial_unit_validation():
    with pytest.raises(ValueError, match="grade-1"):
        radial_left_matrix(e(CL32, 1, 2))
    with pytest.raises(ValueError, match="spatial"):
        radial_left_matrix(e(CL32, 0))
    with pytest.raises(ValueError, match="spatial"):
        radial_left_matrix(e(CL32, 4))
    with pytest.raises(ValueError, match="square"):
        radial_left_matrix(2.0 * e(CL32, 3))


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_radial_system_square_identities(gamma):
    kappa, coupling, mass, energy = -2, 0.3, 1.0, 0.95
    s_mat = angular_coupling_matrix(kappa, coupling, gamma)
    t_mat = mass_energy_matrix(mass, energy, gamma)
    assert np.abs(s_mat @ s_mat - (kappa**2 - coupling**2) * EYE).max() < 1e-12
    assert np.abs(t_mat @ t_mat - (mass**2 - energy**2) * EYE).max() < 1e-12


RADIAL_UNITS = (None, e(CL32, 1), e(CL32, 2))


@pytest.mark.parametrize("radial_unit", RADIAL_UNITS, ids=("default", "e1", "e2"))
@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_cached_blocks_compose_to_the_freshly_built_matrices(gamma, radial_unit):
    z = e0_sandwich_matrix()
    h = gamma_e0_right_matrix(gamma)
    r = radial_left_matrix(radial_unit)
    kappa, coupling, mass, energy = -2, 0.3, 1.0, 0.95
    for _ in range(2):  # the first call may fill the cache, the second reads it
        s_mat = angular_coupling_matrix(kappa, coupling, gamma, radial_unit)
        t_mat = mass_energy_matrix(mass, energy, gamma, radial_unit)
        assert s_mat.tobytes() == (kappa * z + coupling * (r @ h @ z)).tobytes()
        assert t_mat.tobytes() == (mass * r - energy * (r @ h @ z)).tobytes()
    blocks = coulomb._radial_blocks(gamma, radial_unit)
    assert all(not block.flags.writeable for block in blocks)
    # the public builders still hand out fresh, writable arrays
    assert z.flags.writeable and h.flags.writeable and r.flags.writeable
    assert not any(np.shares_memory(z, block) for block in blocks)


def test_cached_blocks_are_keyed_by_phase_bivector_and_radial_unit():
    z12, rhz12, r12 = coulomb._radial_blocks(GammaChoice.e12(), None)
    z0e, rhz0e, r0e = coulomb._radial_blocks(GammaChoice.e0E(), None)
    assert np.array_equal(z12, z0e) and np.array_equal(r12, r0e)
    assert not np.array_equal(rhz12, rhz0e)
    _, rhz1, r1 = coulomb._radial_blocks(GammaChoice.e12(), e(CL32, 1))
    _, rhz3, r3 = coulomb._radial_blocks(GammaChoice.e12(), e(CL32, 3))
    assert not np.array_equal(r1, r3) and not np.array_equal(rhz1, rhz3)
    # None and an explicit e3 name the same radial unit
    assert np.array_equal(r3, r12) and np.array_equal(rhz3, rhz12)


def test_invalid_radial_unit_raises_on_every_call():
    bad = 2.0 * e(CL32, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="square"):
            radial_left_matrix(bad)
        with pytest.raises(ValueError, match="square"):
            angular_coupling_matrix(-1, 0.3, GammaChoice.e12(), bad)


def test_even_operator_matrix_rejects_parity_violations():
    with pytest.raises(ValueError, match="mixes even and odd"):
        even_operator_matrix(lambda mv: mv + e(CL32, 0) * mv)

    def inconsistent(mv):
        # identity on the scalar blade, grade-flipping elsewhere
        return mv if mv.coeffs[0] != 0.0 else e(CL32, 0) * mv

    with pytest.raises(ValueError, match="parity differs"):
        even_operator_matrix(inconsistent)


# ---------------------------------------------------------------------------
# parameters and labels
# ---------------------------------------------------------------------------


def test_params_validation():
    good = dict(mass=1.0, coupling=0.3, kappa=-1, n_r=0)
    CoulombParams(**good)
    with pytest.raises(ValueError, match="mass"):
        CoulombParams(**{**good, "mass": 0.0})
    with pytest.raises(ValueError, match="kappa"):
        CoulombParams(**{**good, "kappa": 0})
    with pytest.raises(ValueError, match="kappa"):
        CoulombParams(**{**good, "kappa": 1.5})
    with pytest.raises(ValueError, match="n_r"):
        CoulombParams(**{**good, "n_r": -1})
    with pytest.raises(ValueError, match="coupling"):
        CoulombParams(**{**good, "coupling": -0.1})
    with pytest.raises(ValueError, match="too strong"):
        CoulombParams(**{**good, "coupling": 1.0})
    # |kappa| = 2 admits couplings up to 2
    CoulombParams(mass=1.0, coupling=1.5, kappa=2, n_r=0)


def test_series_exponent():
    params = CoulombParams(mass=1.0, coupling=0.6, kappa=-2, n_r=0)
    assert params.series_exponent == pytest.approx(math.sqrt(4 - 0.36), rel=1e-15)


def test_quantum_numbers_and_labels():
    assert quantum_numbers(-1, 0) == (1, 0.5)
    assert quantum_numbers(1, 1) == (2, 0.5)
    assert quantum_numbers(-2, 0) == (2, 1.5)
    assert quantum_numbers(2, 1) == (3, 1.5)
    assert spectroscopic_label(-1, 0) == "1s1/2"
    assert spectroscopic_label(-1, 1) == "2s1/2"
    assert spectroscopic_label(1, 1) == "2p1/2"
    assert spectroscopic_label(-2, 0) == "2p3/2"
    assert spectroscopic_label(2, 1) == "3d3/2"
    assert spectroscopic_label(-3, 0) == "3d5/2"
    assert orbital_letter(-1) == "s" and orbital_letter(1) == "p"
    with pytest.raises(ValueError):
        quantum_numbers(0, 0)
    with pytest.raises(ValueError):
        quantum_numbers(1, -1)
    assert [orbital_letter(-l - 1) for l in range(7, 13)] == list("klmnoq")
    assert orbital_letter(20) == "z"
    with pytest.raises(ValueError):
        orbital_letter(21)


# ---------------------------------------------------------------------------
# closed-form ladder
# ---------------------------------------------------------------------------


def test_hydrogen_bindings_match_frozen_values():
    for (label, kappa, n_r), frozen in FROZEN_BINDING_EV.items():
        params = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=kappa, n_r=n_r)
        assert spectroscopic_label(kappa, n_r) == label
        binding = (sommerfeld_energy(params) - 1.0) * ELECTRON_MASS_EV
        assert binding == frozen, label


def test_hydrogen_bindings_match_the_textbook_formula():
    # independent oracle: 50-digit (n, j)-parametrized evaluation
    for (label, kappa, n_r), _ in FROZEN_BINDING_EV.items():
        params = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=kappa, n_r=n_r)
        n, j = quantum_numbers(kappa, n_r)
        binding = (sommerfeld_energy(params) - 1.0) * ELECTRON_MASS_EV
        assert binding == pytest.approx(textbook_binding_ev(n, j), abs=5e-10), label


def test_fine_structure_splitting_is_resolved():
    p12 = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=1, n_r=1)
    p32 = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=-2, n_r=0)
    split = (sommerfeld_energy(p32) - sommerfeld_energy(p12)) * ELECTRON_MASS_EV
    assert split == FROZEN_2P_SPLIT_EV
    assert split > 0  # j = 3/2 is the shallower level


def test_degeneracy_in_the_angular_sign_is_bitwise():
    for coupling in (0.001, FINE_STRUCTURE, 0.3):
        for kappa in (1, 2, 3):
            for n_r in range(4):
                plus = sommerfeld_energy(
                    CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
                )
                minus = sommerfeld_energy(
                    CoulombParams(mass=1.0, coupling=coupling, kappa=-kappa, n_r=n_r)
                )
                assert plus == minus


def test_ladder_orderings():
    # all levels bound, below the rest mass, deeper for smaller n
    couplings = (0.01, 0.3)
    for coupling in couplings:
        energies = [
            sommerfeld_energy(CoulombParams(mass=1.0, coupling=coupling, kappa=-1, n_r=n_r))
            for n_r in range(4)
        ]
        assert all(0 < eps < 1 for eps in energies)
        assert energies == sorted(energies)  # binding shrinks with n


def test_nonrelativistic_limit_bound():
    # the ladder agrees with -R_y Z^2 / n^2 up to relative alpha^2 corrections
    rydberg = 0.5 * FINE_STRUCTURE**2 * ELECTRON_MASS_EV
    for kappa, n_r in ((-1, 0), (-1, 1), (-2, 1)):
        n, _ = quantum_numbers(kappa, n_r)
        params = CoulombParams(mass=1.0, coupling=FINE_STRUCTURE, kappa=kappa, n_r=n_r)
        binding = (sommerfeld_energy(params) - 1.0) * ELECTRON_MASS_EV
        bohr = -rydberg / n**2
        assert abs(binding - bohr) < FINE_STRUCTURE**2 * rydberg


# ---------------------------------------------------------------------------
# series solver
# ---------------------------------------------------------------------------


REPRESENTATIVE_CELLS = (
    (-1, 0, FINE_STRUCTURE),
    (-1, 2, 0.3),
    (2, 1, 0.3),
    (-3, 3, 0.001),
    (3, 1, FINE_STRUCTURE),
)


@pytest.mark.parametrize("kappa,n_r,coupling", REPRESENTATIVE_CELLS)
def test_solver_agrees_with_the_closed_form(kappa, n_r, coupling):
    params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
    solution = solve_radial(params)
    closed = sommerfeld_energy(params)
    assert abs(solution.energy - closed) / closed < 1e-9
    assert solution.binding_energy == solution.energy - 1.0
    assert solution.series.coefficients.shape == (n_r + 1, 16)
    diag = solution.diagnostics
    assert diag["termination_relative"] <= 1e-10
    assert diag["s_square_error"] < 1e-12
    assert diag["t_square_error"] < 1e-12
    assert diag["indicial_residual"] < 1e-12
    assert diag["closed_form_delta"] < 1e-9


@pytest.mark.parametrize("kappa,n_r,coupling", REPRESENTATIVE_CELLS)
def test_series_satisfies_the_radial_ode(kappa, n_r, coupling):
    params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
    solution = solve_radial(params)
    assert radial_ode_residual(solution) < 1e-8


def test_ode_residual_rejects_a_perturbed_energy():
    # negative control: nudging the energy off the ladder must be detected
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1)
    genuine = solve_radial(params)
    assert radial_ode_residual(genuine) < 1e-10
    tampered = RadialSolution(
        params=params,
        energy=genuine.energy * 1.001,
        series=genuine.series,
        diagnostics={},
    )
    assert radial_ode_residual(tampered) > 1e-5


def test_solver_energy_is_degenerate_in_the_angular_sign():
    for n_r in (1, 2):
        plus = solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=2, n_r=n_r))
        minus = solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=-2, n_r=n_r))
        assert plus.energy == minus.energy


def test_mass_scaling():
    light = solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1))
    heavy = solve_radial(CoulombParams(mass=2.0, coupling=0.3, kappa=-1, n_r=1))
    assert heavy.energy == pytest.approx(2.0 * light.energy, rel=1e-12)


def test_selection_rule_for_the_single_sector_phase_choice():
    # with gamma = e0 * pseudoscalar only kappa < 0 admits a zero-term series
    solve_radial(
        CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=0, gamma=GammaChoice.e0E())
    )
    with pytest.raises(RuntimeError, match="no terminating series"):
        solve_radial(
            CoulombParams(mass=1.0, coupling=0.3, kappa=1, n_r=0, gamma=GammaChoice.e0E())
        )
    # the e12 route keeps both angular signs at the bottom of the ladder
    for kappa in (1, -1):
        solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=kappa, n_r=0))
    # away from the bottom both routes solve both signs
    solve_radial(
        CoulombParams(mass=1.0, coupling=0.3, kappa=1, n_r=1, gamma=GammaChoice.e0E())
    )


def test_solver_with_a_different_radial_direction():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1)
    solution = solve_radial(params, radial_unit=e(CL32, 1))
    assert abs(solution.energy - sommerfeld_energy(params)) < 1e-12
    assert radial_ode_residual(solution, radial_unit=e(CL32, 1)) < 1e-8


# ---------------------------------------------------------------------------
# radial series container
# ---------------------------------------------------------------------------


def test_series_evaluate_matches_its_derivative():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-2, n_r=2)
    series = solve_radial(params).series
    h = 1e-6
    for r in (0.5, 1.0, 3.0):
        numeric = (series.evaluate(r + h) - series.evaluate(r - h)) / (2 * h)
        analytic = series.derivative(r)
        scale = np.abs(analytic).max() + 1.0
        assert np.abs(numeric - analytic).max() / scale < 1e-8


def test_series_multivector_is_even():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1)
    series = solve_radial(params).series
    mv = series.multivector(1.0)
    assert isinstance(mv, Multivector)
    assert mv.is_even


def test_series_guards():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=0)
    series = solve_radial(params).series
    with pytest.raises(ValueError):
        series.evaluate(0.0)
    with pytest.raises(ValueError):
        series.derivative(-1.0)
    with pytest.raises(ValueError):
        RadialSeries(exponent=1.0, decay=-1.0, coefficients=np.zeros((3, 8)))


# ---------------------------------------------------------------------------
# angular identity
# ---------------------------------------------------------------------------


def radial_profile_field(constant: Multivector) -> AnalyticField:
    """Spherically symmetric field exp(-|r|^2) * constant with exact partials."""

    def value(pt):
        r2 = float(pt[1] ** 2 + pt[2] ** 2 + pt[3] ** 2)
        return math.exp(-r2) * constant

    def partial(axis, pt):
        r2 = float(pt[1] ** 2 + pt[2] ** 2 + pt[3] ** 2)
        if axis in (1, 2, 3):
            return (-2.0 * pt[axis] * math.exp(-r2)) * constant
        return Multivector.zero()

    return AnalyticField(value, partial)


def test_angular_identity_for_spherical_fields(rng):
    pts = rng.uniform(0.2, 1.0, size=(6, 5))
    # e0 (1) e0 = -1: the scalar profile carries the kappa = -1 label
    scalar_field = radial_profile_field(Multivector.scalar(1.0))
    assert angular_reduction_check(-1, scalar_field, pts) < 1e-12
    assert angular_reduction_check(1, scalar_field, pts) > 0.1
    # e0 (e0e1) e0 = +e0e1: this one carries kappa = +1
    bivector_field = radial_profile_field(e(CL32, 0, 1))
    assert angular_reduction_check(1, bivector_field, pts) < 1e-12
    assert angular_reduction_check(-1, bivector_field, pts) > 0.1
    with pytest.raises(ValueError):
        angular_reduction_check(1, scalar_field, [])
