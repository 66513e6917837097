"""Tests for the Coulomb radial system, closed-form ladder, and series solver.

The closed-form energies are checked two independent ways: against literal
frozen values (regression pinning; every operation in the closed form is a
correctly-rounded IEEE primitive, so the doubles are platform-stable) and
against a 50-digit arbitrary-precision evaluation of the textbook formula in
the (n, j) parametrization, which shares no code with the implementation.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from fermion5d import cli, coulomb
from fermion5d.algebra import (
    CL32,
    BladeOperator,
    Multivector,
    e,
    even_masks,
    pseudoscalar,
)
from fermion5d.constants import ELECTRON_MASS_EV, FINE_STRUCTURE
from fermion5d.coulomb import (
    CoulombParams,
    RadialSeries,
    angular_coupling_matrix,
    angular_reduction_check,
    e0_sandwich_matrix,
    even_operator_matrix,
    gamma_e0_right_matrix,
    mass_energy_matrix,
    orbital_letter,
    quantum_numbers,
    radial_left_matrix,
    solve_radial,
    solve_radials,
    sommerfeld_energy,
    spectroscopic_label,
)
from fermion5d.fields import AnalyticField
from fermion5d.spinor import idempotent_split
from fermion5d.wave import GammaChoice

BOTH_GAMMAS = (GammaChoice.e12(), GammaChoice.e0E())
LEFT_PSEUDO = BladeOperator.left(pseudoscalar(CL32))  # the grade-flip pairing, x -> E x
EYE = np.eye(16)
EPS = np.finfo(np.float64).eps

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
    # the reduction does not depend on the radial direction: left
    # multiplication by any spatial unit has the algebra of R, and the last
    # of them, e3, is R
    for axis in (1, 2, 3):
        mat = even_operator_matrix(BladeOperator.left(e(CL32, axis)), LEFT_PSEUDO)
        assert np.array_equal(mat @ mat, EYE)
        assert np.array_equal(z @ mat, -(mat @ z))
        assert np.array_equal(h @ mat, mat @ h)
    assert np.array_equal(mat, r)


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_radial_system_square_identities(gamma):
    kappa, coupling, mass, energy = -2, 0.3, 1.0, 0.95
    s_mat = angular_coupling_matrix(kappa, coupling, gamma)
    t_mat = mass_energy_matrix(mass, energy, gamma)
    assert np.abs(s_mat @ s_mat - (kappa**2 - coupling**2) * EYE).max() < 1e-12
    assert np.abs(t_mat @ t_mat - (mass**2 - energy**2) * EYE).max() < 1e-12


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_cached_blocks_compose_to_the_freshly_built_matrices(gamma):
    z = e0_sandwich_matrix()
    h = gamma_e0_right_matrix(gamma)
    r = radial_left_matrix()
    kappa, coupling, mass, energy = -2, 0.3, 1.0, 0.95
    for _ in range(2):  # the first call may fill the cache, the second reads it
        s_mat = angular_coupling_matrix(kappa, coupling, gamma)
        t_mat = mass_energy_matrix(mass, energy, gamma)
        assert s_mat.tobytes() == (kappa * z + coupling * (r @ h @ z)).tobytes()
        assert t_mat.tobytes() == (mass * r - energy * (r @ h @ z)).tobytes()
    blocks = coulomb._radial_blocks(gamma)
    assert all(not block.flags.writeable for block in blocks)
    # the public builders still hand out fresh, writable arrays
    assert z.flags.writeable and h.flags.writeable and r.flags.writeable
    assert not any(np.shares_memory(z, block) for block in blocks)


def test_cached_blocks_are_keyed_by_phase_bivector():
    z12, rhz12, r12 = coulomb._radial_blocks(GammaChoice.e12())
    z0e, rhz0e, r0e = coulomb._radial_blocks(GammaChoice.e0E())
    assert np.array_equal(z12, z0e) and np.array_equal(r12, r0e)
    assert not np.array_equal(rhz12, rhz0e)
    # an equal phase bivector built anew hits the cache
    again = coulomb._radial_blocks(GammaChoice.e12())
    assert all(a is b for a, b in zip(again, (z12, rhz12, r12)))


@pytest.mark.parametrize("broken", ["z-scaled", "rhz-entry-2", "rhz-two-in-a-row",
                                    "rhz-commutes", "rhz-out-of-block", "r-out-of-block"])
def test_dirac_blocks_refuse_blocks_without_the_kernel_structure(broken, monkeypatch):
    # Z = diag(1, -1) and RHZ +-1 off the diagonal in every 2 x 2 block, and
    # nothing outside the blocks, are what make the indicial kernel exact.
    # Each case breaks one of them
    z, rhz, r = (np.array(block) for block in coulomb._radial_blocks(GammaChoice.e12()))
    if broken == "z-scaled":
        z *= 2.0  # still anticommutes with RHZ
    elif broken == "rhz-entry-2":
        rhz *= 2.0
    elif broken == "rhz-two-in-a-row":
        # a second entry between opposite Z signs keeps the anticommutation
        rhz[0, np.flatnonzero((np.diag(z) != z[0, 0]) & (rhz[0] == 0))[0]] = 1.0
    elif broken == "rhz-commutes":
        rhz = z.copy()  # a signed permutation that commutes with Z
    else:  # two blades where Z = +1, in different blocks, swap their images
        block = rhz if broken == "rhz-out-of-block" else r
        block[:, [1, 2]] = block[:, [2, 1]]
    monkeypatch.setattr(coulomb, "_radial_blocks", lambda gamma: (z, rhz, r))
    with pytest.raises(RuntimeError, match="do not split into eight 2 x 2 blocks"):
        coulomb._dirac_blocks.__wrapped__(GammaChoice.e12())


def column_loop_operator_matrix(fn):
    """The column loop that ``even_operator_matrix`` replaced: one product per
    even basis blade, odd output paired with the pseudoscalar."""
    masks = even_masks(CL32)
    outputs = [fn(Multivector.blade(mask, CL32)) for mask in masks]
    odd = any(out.grades_present and out.grades_present[0] % 2 for out in outputs)
    matrix = np.zeros((len(masks), len(masks)))
    for j, out in enumerate(outputs):
        if odd:
            out = pseudoscalar(CL32) * out
        assert out.is_even
        matrix[:, j] = out.coeffs[list(masks)]
    return matrix


def test_even_operator_matrix_equals_the_column_loop_bitwise():
    e0, e012 = e(CL32, 0), e(CL32, 0, 1, 2)
    cases = [
        (e0_sandwich_matrix(), lambda mv: e0 * mv * e0),
        (radial_left_matrix(), lambda mv: e(CL32, 3) * mv),
        (
            even_operator_matrix(BladeOperator.right(-e012), LEFT_PSEUDO),
            lambda mv: -(mv * e012),
        ),
    ]
    for gamma in BOTH_GAMMAS:
        ge0 = gamma.as_multivector() * e0
        cases.append((gamma_e0_right_matrix(gamma), lambda mv, ge0=ge0: mv * ge0))
    for axis in (1, 2, 3):
        unit = e(CL32, axis)
        cases.append(
            (even_operator_matrix(BladeOperator.left(unit), LEFT_PSEUDO), lambda mv, u=unit: u * mv)
        )
    for got, fn in cases:
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == column_loop_operator_matrix(fn).tobytes()


def test_even_operator_matrix_rejects_parity_violations():
    # a grade-flipping chain without the final pseudoscalar pairing
    for ops in (
        (BladeOperator.left(e(CL32, 3)),),
        (BladeOperator.right(GammaChoice.e12().as_multivector()), coulomb._RIGHT_E0),
        (LEFT_PSEUDO,),
    ):
        with pytest.raises(ValueError, match="output is odd"):
            even_operator_matrix(*ops)
    with pytest.raises(TypeError, match="BladeOperator"):
        even_operator_matrix(lambda mv: e(CL32, 3) * mv)


def test_the_operator_builders_multiply_no_multivectors(monkeypatch):
    def no_product(self, other):
        raise AssertionError("Multivector product")

    monkeypatch.setattr(Multivector, "__mul__", no_product)
    e0_sandwich_matrix()
    radial_left_matrix()
    for gamma in BOTH_GAMMAS:
        gamma_e0_right_matrix(gamma)
        coulomb._radial_blocks.__wrapped__(gamma)
        coulomb._dirac_blocks.__wrapped__(gamma)


# ---------------------------------------------------------------------------
# parameters and labels
# ---------------------------------------------------------------------------


def test_params_validation():
    good = dict(mass=1.0, coupling=0.3, kappa=-1, n_r=0)
    CoulombParams(**good)
    for mass in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="mass"):
            CoulombParams(**{**good, "mass": mass})
    with pytest.raises(ValueError, match="kappa"):
        CoulombParams(**{**good, "kappa": 0})
    with pytest.raises(ValueError, match="kappa"):
        CoulombParams(**{**good, "kappa": 1.5})
    with pytest.raises(ValueError, match="n_r"):
        CoulombParams(**{**good, "n_r": -1})
    # bool is an int subclass, but True is not an angular label or a term count
    for name, flag in (("kappa", True), ("kappa", False), ("n_r", True), ("n_r", False)):
        with pytest.raises(ValueError, match=name):
            CoulombParams(**{**good, name: flag})
    CoulombParams(**{**good, "kappa": np.int64(-1), "n_r": np.int32(0)})
    # a phase bivector is a GammaChoice, not its name
    with pytest.raises(TypeError, match="GammaChoice"):
        CoulombParams(**{**good, "gamma": "e12"})
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
    with pytest.raises(ValueError, match="nonzero"):
        orbital_letter(0)
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
    decay = -solution.series.decay
    assert solution.binding_energy == -(decay * decay / (1.0 + solution.energy))
    assert solution.series.coefficients.shape == (n_r + 1, 16)
    diag = solution.diagnostics
    assert diag["termination_relative"] <= 1e-10
    assert diag["s_square_error"] < 1e-12
    assert diag["t_square_error"] < 1e-12
    assert diag["indicial_residual"] < 1e-12
    assert diag["closed_form_delta"] < 1e-9


@pytest.mark.parametrize("kappa,n_r,coupling", REPRESENTATIVE_CELLS)
def test_series_satisfies_the_radial_ode(kappa, n_r, coupling):
    # substituting u = r^q e^(beta r) sum_p C_p r^p into du/dr = S u / r - T u
    # leaves one identity per power p = 0 .. n_r + 1:
    # ((p + q) I - S) C_p + (beta I + T) C_(p-1) = 0, with C_(-1) = C_(n_r+1) = 0
    params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
    solution = solve_radial(params)
    series = solution.series
    s_mat = angular_coupling_matrix(kappa, coupling, params.gamma)
    shifted_t = series.decay * EYE + mass_energy_matrix(1.0, solution.energy, params.gamma)
    padded = np.vstack([np.zeros(16), series.coefficients, np.zeros(16)])
    for p, (lower, upper) in enumerate(zip(padded, padded[1:])):
        indicial = (p + series.exponent) * EYE - s_mat
        residual = np.linalg.norm(indicial @ upper + shifted_t @ lower)
        scale = np.linalg.norm(indicial, 2) * np.linalg.norm(upper)
        scale += np.linalg.norm(shifted_t, 2) * np.linalg.norm(lower)
        assert residual <= 1e-10 * scale, p


@pytest.mark.parametrize("kappa,n_r", [(-1, 0), (1, 1), (-2, 0), (3, 2)])
@pytest.mark.parametrize("coupling", [1e-4, 1e-8, 1e-12])
def test_weak_coupling_binding_does_not_cancel(coupling, kappa, n_r):
    # energy - mass read -1.1e-16 at coupling 1e-8, where the closed form is
    # -5e-17, and 0.0 at 1e-12; -d^2 / (m + eps) keeps every digit
    params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
    binding = solve_radial(params).binding_energy
    with mp.workdps(50):
        lam = mp.mpf(coupling)
        shift = n_r + mp.sqrt(kappa**2 - lam**2)
        closed = float(1 / mp.sqrt(1 + (lam / shift) ** 2) - 1)
    assert binding < 0.0
    assert abs(binding - closed) <= 1e-9 * abs(closed)


def test_solver_energy_is_degenerate_in_the_angular_sign():
    for n_r in (1, 2):
        plus = solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=2, n_r=n_r))
        minus = solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=-2, n_r=n_r))
        assert plus.energy == minus.energy


def test_mass_scaling():
    light = solve_radial(CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1))
    for mass in (2.0, 3.0, 1e-3):
        heavy = solve_radial(CoulombParams(mass=mass, coupling=0.3, kappa=-1, n_r=1))
        assert heavy.energy == mass * light.energy
        assert heavy.series.decay == mass * light.series.decay


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


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("coupling", [1e-6, 1e-7, 1e-8])
def test_weak_coupling_terminates_in_float64(coupling, kappa):
    # T built from the rounded energy moves its eigenvalues off the decay
    # constant by ~ulp(eps) m / d: at 1e-6 and 1e-8 that left relative
    # termination residuals of 2.0e-10 and 1.7e-9 at n_r = 2; in split form
    # float64 alone ends near roundoff
    params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=2)
    solution = solve_radial(params)
    assert solution.diagnostics["termination_relative"] < 1e-10


@pytest.mark.parametrize("kappa", [1, -1])
def test_post_check_of_a_tiny_last_coefficient_is_finite(kappa):
    # at coupling 1e-10 the last coefficient of n_r = 15 is so small that
    # the squares of its raw components underflowed: the post-check read
    # 0 / 0 = NaN, with a RuntimeWarning, and NaN passed the bound
    params = CoulombParams(mass=1.0, coupling=1e-10, kappa=kappa, n_r=15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = solve_radial(params)
    assert 0.0 <= solution.diagnostics["termination_relative"] <= 1e-10


def test_a_last_coefficient_that_underflows_to_zero_raises():
    # at coupling 1e-16 the last of twenty terms underflows to all zeros,
    # which no relative residual can check
    params = CoulombParams(mass=1.0, coupling=1e-16, kappa=-1, n_r=19)
    with pytest.raises(RuntimeError, match="series underflows") as raised:
        solve_radial(params)
    assert "nan" not in str(raised.value)


@pytest.mark.parametrize("n_r", [0, 3])
@pytest.mark.parametrize("coupling", [1e-70, 1e-100, 1e-300])
def test_tiny_couplings_root_at_the_closed_form_decay(coupling, n_r):
    # a bisection capped at 200 steps from a 10,000-point scan of (0, m)
    # stopped at d = 3.11e-65 for all six cells, and the post-check
    # accepted that root
    params = CoulombParams(mass=1.0, coupling=coupling, kappa=-1, n_r=n_r)
    shift = n_r + params.series_exponent
    exact = params.mass * coupling / math.sqrt(shift**2 + coupling**2)
    (decay,) = coulomb._termination_decays([params])
    assert abs(decay - exact) <= 1e-15 * exact
    if coupling == 1e-300 and n_r == 3:
        # the last coefficient scales like d^3 and underflows to zero
        with pytest.raises(RuntimeError, match="series underflows"):
            solve_radial(params)
    else:
        assert solve_radial(params).series.decay == -decay


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mass", [1e300, 1e-300, 1e100, 1e-100, 1.5e154])
def test_masses_far_from_1_scale_the_mass_1_solutions(mass):
    # solved with the mass in every matrix, the chain grew or decayed like
    # mass^p: the n_r = 3 states were errors at 1e+-100, every state at
    # 1e-300, and from 1.4e154 the batch raised OverflowError; in units of
    # the mass every state is the mass-1 state scaled
    grid = [CoulombParams(mass=mass, coupling=0.3, kappa=k, n_r=n)
            for k in (1, -1, 2, -2) for n in range(4)]
    unit = solve_radials([CoulombParams(1.0, p.coupling, p.kappa, p.n_r) for p in grid])
    for params, result, one in zip(grid, solve_radials(grid), unit):
        assert not isinstance(result, RuntimeError), (params, result)
        assert result.energy == mass * one.energy, params
        assert result.series.decay == mass * one.series.decay, params
        assert result.series.unit == mass, params
        assert result.series.coefficients.tobytes() == one.series.coefficients.tobytes(), params
        assert all(math.isfinite(v) for v in result.diagnostics.values()), params
        assert result.binding_energy == pytest.approx(mass * one.binding_energy, rel=1e-15)
        # u(r) at mass m is the mass-1 series at rho = m r
        value, reference = result.series.evaluate(2.0 / mass), one.series.evaluate(2.0)
        assert np.abs(value - reference).max() <= 1e-13 * np.abs(reference).max(), params


def test_a_decay_that_rounds_to_0_raises():
    # at coupling 5e-324 the bisection ends on [0, 5e-324] and its midpoint
    # rounds to 0: a "bound state" at the rest mass that passed the post-check
    with pytest.raises(RuntimeError, match="decay constant rounds to 0"):
        solve_radial(CoulombParams(1.0, 5e-324, -1, 0))


def test_every_state_of_the_coupling_sweep_terminates():
    # negative control: the termination identity with T rebuilt from the
    # public builder holds at the solver's energy and fails, relative to the
    # same scale, once the energy moves by 1e-3 relative
    def termination_relative(solution, energy):
        gamma = solution.params.gamma
        shifted_t = solution.series.decay * EYE + mass_energy_matrix(1.0, energy, gamma)
        last = solution.series.coefficients[-1]
        return np.linalg.norm(shifted_t @ last) / (
            np.linalg.norm(shifted_t, 2) * np.linalg.norm(last)
        )

    solved = 0
    for gamma, coupling, kappa, n_r in itertools.product(
        BOTH_GAMMAS, (1e-10, 1e-8, 1e-6, 1e-4, 0.3, 0.99), (1, -1, 2, -2, 3, -3), range(4)
    ):
        params = CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r, gamma=gamma)
        if gamma.variant == GammaChoice.E0E_VARIANT and n_r == 0 and kappa > 0:
            # the selection rule holds at every coupling
            with pytest.raises(RuntimeError, match="no terminating series"):
                solve_radial(params)
            continue
        solution = solve_radial(params)
        closed = sommerfeld_energy(params)
        assert solution.diagnostics["termination_relative"] <= 1e-10, params
        assert abs(solution.energy - closed) / closed < 1e-9, params
        assert termination_relative(solution, solution.energy) <= 1e-10, params
        assert termination_relative(solution, solution.energy * (1 - 1e-3)) > 1e-5, params
        solved += 1
    assert solved == 270


def bisected_decays(params_seq):
    """Each state's decay by a bisection of the termination gap ``d (n_r + q)
    - lambda sqrt(m^2 - d^2)`` from (0, m), which brackets its root, until
    the bracket is two adjacent floats: the solver's root search before it
    started next to the closed form, run on every state at once."""
    mass, coupling, shift = (np.array(column, dtype=np.float64) for column in zip(
        *[(p.mass, p.coupling, p.n_r + p.series_exponent) for p in params_seq]))
    lo, hi = np.zeros_like(mass), mass.copy()
    done = np.zeros(len(mass), dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        done |= (mid == lo) | (mid == hi)
        if done.all():
            return (0.5 * (lo + hi)).tolist()
        below = mid * shift - coupling * np.sqrt((mass - mid) * (mass + mid)) < 0.0
        lo, hi = np.where(~done & below, mid, lo), np.where(~done & ~below, mid, hi)


def hexes(values):
    return [float(v).hex() for v in values]


def spectrum_batches():
    """Spectrum's ``--max-n 8`` batch at each Z = 1..137 and the default alpha."""
    return [[CoulombParams(1.0, z * FINE_STRUCTURE, kappa, n_r)
             for kappa, n_r in cli._spectrum_states(8)] for z in range(1, 138)]


def coupling_sweep():
    """kappa = +-1..+-8 and n_r = 0..11 at couplings from the smallest
    subnormal to within 1e-15 of |kappa|, one batch per coupling."""
    couplings = [5e-324, 1e-320, 1e-310, 1e-300, 1e-70, 1e-20, 1e-12, 1e-6, 0.0073, 0.3, 0.9]
    batches = [[CoulombParams(1.0, c, sign * k, n_r)
                for k in range(1, 9) for sign in (1, -1) for n_r in range(12)] for c in couplings]
    batches.append([CoulombParams(1.0, k * (1 - 1e-15), sign * k, n_r)
                    for k in range(1, 9) for sign in (1, -1) for n_r in range(12)])
    return batches


def test_the_decays_keep_the_bits_of_a_bisection_from_0():
    # each state's bisection starts at a 256-ulp bracket around the closed
    # form, and ends on the two floats that a bisection from (0, 1) ends on
    spectrum = [p for batch in spectrum_batches() for p in batch]
    for batch in [spectrum] + coupling_sweep():
        assert hexes(coulomb._termination_decays(batch)) == hexes(bisected_decays(batch))


def test_a_gap_whose_sign_flips_twice_near_the_root_keeps_the_bisections_root():
    # at Z = 21, kappa = -2, n_r = 3 the float gap changes sign twice within
    # four ulps: a bisection from +-8 ulps around the closed form ends on
    # 0.030670528098577836, and the closed form itself is one ulp above
    params = CoulombParams(1.0, 21 * FINE_STRUCTURE, -2, 3)
    shift = params.n_r + params.series_exponent
    closed = params.coupling / math.hypot(shift, params.coupling)
    (decay,) = coulomb._termination_decays([params])
    assert decay.hex() == "0x1.f68184c89aae0p-6" == hexes(bisected_decays([params]))[0]
    assert closed.hex() == "0x1.f68184c89aae1p-6"


def recorded_sign_tests(monkeypatch) -> list:
    """The arguments of every call of the decay bisection's sign test, from now on."""
    calls = []
    sign_test = coulomb._below_root

    def counting(*args):
        calls.append(args)
        return sign_test(*args)

    monkeypatch.setattr(coulomb, "_below_root", counting)
    return calls


def test_each_spectrum_batch_roots_in_a_few_sign_tests(monkeypatch):
    # from (0, 1) a batch took 56-63 sign tests; a silent fall-back to
    # (0, 1) would keep every bit and lose the time
    calls = recorded_sign_tests(monkeypatch)
    for batch in spectrum_batches():
        calls.clear()
        coulomb._termination_decays(batch)
        assert len(calls) <= 14, batch[0].coupling
    # a subnormal guess has no 256-ulp bracket: it starts from (0, 1), with
    # one sign test per halving down to its root near 2^-1030
    params = CoulombParams(1.0, 1e-310, -1, 0)
    calls.clear()
    assert hexes(coulomb._termination_decays([params])) == hexes(bisected_decays([params]))
    assert len(calls) > 1000


@pytest.mark.parametrize("coupling, kappa, n_r", [
    ("0x1.595c64e7359b5p-1", 1, 5),  # the guess's bracket lies a width above the root
    ("0x1.d5ee1fc8c8f34p+2", 8, 2),  # and here a width below it
])
def test_a_bracket_moved_by_one_width_keeps_the_bits_and_the_short_path(
        coupling, kappa, n_r, monkeypatch):
    params = CoulombParams(1.0, float.fromhex(coupling), kappa, n_r)
    calls = recorded_sign_tests(monkeypatch)
    assert hexes(coulomb._termination_decays([params])) == hexes(bisected_decays([params]))
    assert len(calls) <= 14


def status(result) -> str:
    """``"solved"``, or an error's message up to its first colon or parenthesis."""
    if not isinstance(result, RuntimeError):
        return "solved"
    return re.split(r"[:(]", str(result))[0].rstrip()


def forbidden(params) -> bool:
    """A kappa > 0, n_r = 0 state, which only e12's P = +1 blocks solve."""
    return params.kappa > 0 and params.n_r == 0


def test_subnormal_couplings_solve_with_no_warning():
    # a bracket built by dividing by its width raised "divide by zero" when
    # the guess is 0.  e12 ends each cell as e0E does, save the kappa > 0,
    # n_r = 0 states that only e12 solves: at 1e-320 and 1e-310 the last
    # coefficient of the kappa pair underflows at n_r = 2, as e0E's does
    grid = [CoulombParams(1.0, coupling, kappa, n_r, gamma) for gamma in BOTH_GAMMAS
            for coupling in (5e-324, 1e-320, 1e-310) for kappa in (1, -1, 2, -2)
            for n_r in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = solve_radials(grid)
    half = len(grid) // 2
    for params, e12, e0e in zip(grid, results[:half], results[half:]):
        if params.coupling == 5e-324:
            assert str(e12).startswith("decay constant rounds to 0"), params
        if forbidden(params) and params.coupling != 5e-324:
            assert (status(e12), status(e0e)) == ("solved", SELECTION_RULE_MESSAGE), params
        else:
            assert status(e12) == status(e0e), params
        if params.kappa < 0 and params.n_r == 2 and params.coupling != 5e-324:
            assert status(e12) == "series underflows", params


def column_scale(block):
    """Largest column 2-norm of ``block``: the solver's lower bound on ``|block|_2``."""
    return np.linalg.norm(block, axis=0).max()


def spectral_norm(block):
    return np.linalg.norm(block, 2)


def solve_step_by_step(params, scale_of=column_scale):
    """The solver's energy, kernel dimension, vacuity and series, recomputed
    the way they were before the recurrence steps were built in one batch:
    the decay of :func:`bisected_decays`, one ``np.linalg.solve`` per
    recurrence step and one ``scale_of`` per block of the threshold scale.
    The series follows the solver's rule: the admissible subspace projected
    onto each block's two columns of the block basis, in the order 4..7,
    0..3, and the first projection that is not zero, signed so that the slot
    where ``Z = sign kappa`` is positive."""
    m, coupling, n_r = params.mass, params.coupling, params.n_r
    q = params.series_exponent
    (decay,) = bisected_decays([params])
    energy = math.sqrt((m - decay) * (m + decay))

    s_mat = angular_coupling_matrix(params.kappa, coupling, params.gamma)
    _, rhz, r = coulomb._radial_blocks(params.gamma)
    binding = decay * decay / (m + energy)

    def terminate(c):
        return m * ((r - rhz) @ c) + binding * (rhz @ c) - decay * c

    def step(p, c):
        return np.linalg.solve((p + q) * EYE - s_mat, -c)

    termination = terminate(EYE)
    generic_scale = scale_of(termination)
    for p in range(n_r, 0, -1):
        generic_scale *= scale_of(step(p, termination))

    def propagate(chain):
        chains = [chain]
        for p in range(1, n_r + 1):
            chains.append(step(p, terminate(chains[-1])))
        return chains

    _, sing_k, vt_k = np.linalg.svd(s_mat - q * EYE)
    kernel = vt_k[sing_k <= 1e-10 * sing_k[0]].T
    restricted = terminate(propagate(kernel)[-1])
    _, sing_w, vt_w = np.linalg.svd(restricted)
    threshold = coulomb.SVD_GAP_THRESHOLD * generic_scale
    kernel_dim = int(np.count_nonzero(sing_w <= threshold))
    vacuity = np.linalg.norm(restricted, 2) / generic_scale
    if kernel_dim == 0:
        return energy, kernel_dim, vacuity, None
    admissible = kernel @ vt_w[sing_w <= threshold].T
    basis, slot = coulomb._dirac_blocks(params.gamma)[0] / math.sqrt(2.0), int(params.kappa < 0)
    for k in (4, 5, 6, 7, 0, 1, 2, 3):
        columns = basis[:, 2 * k:2 * k + 2]
        projection = columns.T @ admissible  # rank 1 with singular value 1, or roundoff
        if np.linalg.norm(projection) > 0.5:
            pair = (projection @ projection.T)[:, slot]
            start = columns @ (pair / math.sqrt(pair[slot]))
            return energy, kernel_dim, vacuity, np.array(propagate(start))
    raise AssertionError(f"no block holds the admissible subspace of {params}")


@functools.lru_cache(maxsize=None)
def reference_solution(params):
    """:func:`solve_step_by_step` with its default scale, once per state: two
    tests compare the whole grid with it."""
    return solve_step_by_step(params)


def diagnostic_grid():
    """Both phase bivectors, weak to strong coupling, kappa = +-1..+-4 and
    n_r = 0..5, including the 20 selection-rule cells that raise."""
    for gamma, coupling, kappa, n_r in itertools.product(
        BOTH_GAMMAS, (1e-8, 1e-4, 0.1, 0.6, 0.99), (1, -1, 2, -2, 3, -3, 4, -4), range(6)
    ):
        yield CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r, gamma=gamma)


SELECTION_RULE_MESSAGE = "no terminating series at the root energy"


def assert_matches_step_by_step(params, solution):
    """``solution`` (a solution or an error) against :func:`solve_step_by_step`:
    True for a selection-rule cell, which must be an error."""
    gamma, kappa, n_r = params.gamma, params.kappa, params.n_r
    energy, kernel_dim, vacuity, coefficients = reference_solution(params)
    if kernel_dim == 0:
        assert gamma.variant == GammaChoice.E0E_VARIANT and n_r == 0 and kappa > 0
        assert isinstance(solution, RuntimeError), params
        assert str(solution).startswith(SELECTION_RULE_MESSAGE), params
        return True
    diag = solution.diagnostics
    assert solution.energy == energy, params
    assert diag["termination_kernel_dim"] == kernel_dim, params
    assert abs(diag["termination_vacuity"] - vacuity) <= 1e-13, params
    assert diag["termination_relative"] <= 1e-10, params
    # the series direction is fixed by a rule, not by roundoff, so the
    # two arithmetics give the same series to within roundoff
    scale = np.abs(coefficients).max()
    assert np.abs(solution.series.coefficients - coefficients).max() <= 1e-10 * scale, params
    return False


def test_solver_diagnostics_match_a_step_by_step_recomputation():
    raised = 0
    for params in diagnostic_grid():
        try:
            solution = solve_radial(params)
        except RuntimeError as error:
            solution = error
        raised += assert_matches_step_by_step(params, solution)
    assert raised == 20  # e0 E, n_r = 0, kappa = 1..4, at each coupling


def blocks_of(dense):
    """The ``(N, 8, 2, 2)`` diagonal blocks of 16 x 16 matrices in the solver's
    block basis, and the largest entry of each matrix outside them."""
    basis, k = coulomb._dirac_blocks(GammaChoice.e12())[0], np.arange(8)
    full = (basis.T @ dense @ basis / 2).reshape(-1, 8, 2, 8, 2)
    blocks = full[:, k, :, k].swapaxes(0, 1)
    outside = full.copy()
    outside[:, k, :, k] = 0.0
    return blocks, np.abs(outside).max(axis=(1, 2, 3, 4))


def test_column_scale_bounds_the_2_norm_and_keeps_every_kernel_dimension():
    # each factor of the threshold scale is a largest column norm in the
    # blade basis, taken from the blocks: at most the 2-norm that set it
    # before, so no threshold is looser, and the dense matrix's own largest
    # column norm to within roundoff.  On the grid a threshold from 2-norms
    # admits the same kernel dimensions
    bound = 1.0 + 4.0 * EPS
    grid = list(diagnostic_grid())
    for params, result in zip(grid, solve_radials(grid)):
        dense = []

        def recorded(block):
            dense.append(block)
            return spectral_norm(block)

        kernel_dim = solve_step_by_step(params, recorded)[1]
        solved = not isinstance(result, RuntimeError)
        assert kernel_dim == (result.diagnostics["termination_kernel_dim"] if solved else 0), params
        dense = np.array(dense)
        blocks, outside = blocks_of(dense)
        assert (outside <= 1e-15 * np.abs(dense).max(axis=(1, 2))).all(), params
        scales = coulomb._column_scale(blocks)
        assert np.all(scales <= [spectral_norm(block) * bound for block in dense]), params
        columns = [column_scale(block) for block in dense]
        assert np.abs(scales - columns).max() <= 4.0 * EPS * max(columns), params


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_the_block_basis_splits_the_radial_system_exactly(gamma):
    # the solver's kernel columns lie in different blocks, so their images
    # do too: each column norm is a singular value.  That rests on the
    # tables, which must rebuild every dense matrix bit for bit; S too, and T
    # to within one rounding of its entries
    basis, tables = coulomb._dirac_blocks(gamma)
    pairing = even_operator_matrix(coulomb._RIGHT_E34)
    assert np.array_equal(basis, coulomb._dirac_blocks(BOTH_GAMMAS[0])[0])  # either bivector's
    assert np.array_equal(basis.T @ basis, 2.0 * EYE)
    assert np.array_equal(pairing @ basis, basis * np.repeat([1.0, -1.0], 8))
    # blocks k and k + 4 hold the same blades at the same slots, as
    # _column_scale reads them
    assert np.array_equal(np.abs(basis[:, :8]), np.abs(basis[:, 8:]))
    assert not (basis.flags.writeable or tables.flags.writeable)
    assert np.array_equal(tables, np.round(tables))
    assert np.array_equal(tables[0], np.broadcast_to(np.diag([1.0, -1.0]), (8, 2, 2)))

    def dense_of(blocks):
        block_diagonal = np.zeros((16, 16))
        for k, block in enumerate(blocks):
            block_diagonal[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
        return basis @ block_diagonal @ basis.T / 2

    for blocks, dense in zip(tables, coulomb._radial_blocks(gamma)):
        assert np.array_equal(dense_of(blocks), dense)
        assert blocks_of(dense[None])[1][0] == 0.0
    z, rhz, r = tables
    for kappa, coupling, energy in ((-2, 0.3, 0.9), (3, 0.0073, 0.99997), (1, 1e-8, 1.0)):
        assert np.array_equal(dense_of(kappa * z + coupling * rhz),
                              angular_coupling_matrix(kappa, coupling, gamma))
        t_mat = mass_energy_matrix(1.0, energy, gamma)
        assert np.abs(dense_of(r - energy * rhz) - t_mat).max() <= EPS


@pytest.mark.parametrize("kappa, coupling, energy", [(-2, 0.3, 0.9), (3, 0.3, 0.9),
                                                     (1, 0.0073, 0.99997), (-4, 0.9, 0.5)])
def test_e12_is_the_e0e_system_at_kappa_and_at_minus_kappa(kappa, coupling, energy):
    # in the block basis, e12's blocks of P-eigenvalue -1 are e0E's at kappa
    # and its blocks of eigenvalue +1 are e0E's at -kappa with the two slots
    # swapped (which exchanges Z = +-1): so e12 solves kappa > 0 at n_r = 0,
    # which e0E, Dirac's radial pairs, does not
    def system(gamma, kappa):
        z, rhz, r = coulomb._dirac_blocks(gamma)[1]
        return kappa * z + coupling * rhz, r - energy * rhz

    for e12, e0e_kappa, e0e_minus in zip(system(GammaChoice.e12(), kappa),
                                         system(GammaChoice.e0E(), kappa),
                                         system(GammaChoice.e0E(), -kappa)):
        assert np.array_equal(e12[4:], e0e_kappa[4:])
        assert np.array_equal(e12[:4], e0e_minus[:4, ::-1, ::-1])
        assert not np.array_equal(e12[:4], e0e_kappa[:4])  # not the other way round


def test_the_two_bivectors_agree_on_status():
    # e12's series is e0E's kappa pair, so it solves, or fails, where e0E's
    # does, save the kappa > 0, n_r = 0 states that only its -kappa pair
    # holds.  Pinned: 16 states whose kappa pair underflows, which e12 solved
    # when its series could be the -kappa pair
    cells = [(mass, coupling, sign * k, n_r) for mass in (1.0, 3.5e-7)
             for coupling in (1e-300, 1e-30, 1e-15, 1e-6, 0.0073, 0.3, 0.9)
             for k in range(1, 5) for sign in (1, -1) for n_r in range(13)]
    e12, e0e = (solve_radials([CoulombParams(*cell, gamma) for cell in cells])
                for gamma in BOTH_GAMMAS)
    outcomes = {cell: (status(a), status(b)) for cell, a, b in zip(cells, e12, e0e)}
    for (mass, coupling, kappa, n_r), (a, b) in outcomes.items():
        if kappa > 0 and n_r == 0:
            assert (a, b) == ("solved", SELECTION_RULE_MESSAGE), (mass, coupling, kappa)
        else:
            assert a == b, (mass, coupling, kappa, n_r)
    for mass in (1.0, 3.5e-7):
        for coupling, n_r in ((1e-300, 2), (1e-30, 11)):
            for kappa in (-1, -2, -3, -4):
                assert outcomes[mass, coupling, kappa, n_r][0] == "series underflows"


def radial_grid(gamma):
    """Couplings 1e-6 to 0.9, kappa = +-1..+-4 and n_r = 0..5 under ``gamma``,
    with each state's solution or error."""
    grid = [CoulombParams(1.0, coupling, sign * k, n_r, gamma)
            for coupling in (1e-6, 1e-4, 0.0073, 0.3, 0.9)
            for k in range(1, 5) for sign in (1, -1) for n_r in range(6)]
    return zip(grid, solve_radials(grid))


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_each_series_is_one_dirac_pair_that_the_idempotent_keeps(gamma):
    # in the block basis every coefficient lies in block 4 (P = -1), whose
    # (1 - e3 e4) image is twice itself; e12's kappa > 0, n_r = 0 series lie
    # in block 0 (P = +1), whose image is exactly 0
    basis = coulomb._dirac_blocks(gamma)[0]
    even = list(even_masks(CL32))
    for params, solution in radial_grid(gamma):
        if isinstance(solution, RuntimeError):
            assert gamma.variant == GammaChoice.E0E_VARIANT and forbidden(params), params
            continue
        coefficients = solution.series.coefficients
        block = 0 if forbidden(params) else 4
        outside = np.delete(coefficients @ basis, [2 * block, 2 * block + 1], axis=1)
        assert not outside.any(), params
        full = np.zeros((len(coefficients), CL32.n_blades))
        full[:, even] = coefficients
        for row in full:
            split = idempotent_split(Multivector(row))
            image = (split.plus + split.minus).coeffs
            assert np.array_equal(image, np.zeros_like(row) if block == 0 else 2.0 * row), params


def dirac_pair_residual(params, solution, r, energy) -> float:
    """The textbook Dirac-Coulomb radial pair ``dG/dr = -kappa G/r + (m + E +
    lambda/r) F``, ``dF/dr = kappa F/r + (m - E - lambda/r) G`` at ``r``,
    relative to ``max(|G|, |F|, |G'|, |F'|)``.  Block 4 holds ``(G, F) =
    (slot 1, -slot 0)`` at kappa; e12's block 0 ``(slot 0, slot 1)`` at -kappa."""
    basis = coulomb._dirac_blocks(params.gamma)[0]
    u, du = (basis.T @ values for values in (solution.series.evaluate(r),
                                             solution.series.derivative(r)))
    if forbidden(params):
        kappa, (g, f, dg, df) = -params.kappa, (u[0], u[1], du[0], du[1])
    else:
        kappa, (g, f, dg, df) = params.kappa, (u[9], -u[8], du[9], -du[8])
    m, lam = params.mass, params.coupling
    residual = max(abs(dg - (-kappa * g / r + (m + energy + lam / r) * f)),
                   abs(df - (kappa * f / r + (m - energy - lam / r) * g)))
    return residual / max(abs(g), abs(f), abs(dg), abs(df))


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_the_series_solves_the_textbook_dirac_coulomb_radial_pair(gamma):
    # written out by hand (Bethe and Salpeter, 1957): it measured at most
    # 4.4e-15; an energy moved by 1e-6 relative leaves at least 7.5e-8
    for params, solution in radial_grid(gamma):
        if isinstance(solution, RuntimeError):
            continue
        for r in (0.3, 1.0, 4.0):
            assert dirac_pair_residual(params, solution, r, solution.energy) <= 1e-12, params
            moved = solution.energy * (1 + 1e-6)
            assert dirac_pair_residual(params, solution, r, moved) > 1e-12, params


@pytest.mark.parametrize("product", ["right-e12", "left-e34"])
def test_dirac_blocks_refuse_a_pairing_without_its_structure(product, monkeypatch):
    # x -> x e1 e2 squares to -I, so e_b +- P e_b are not its eigenvectors;
    # x -> e3 e4 x is an involution that commutes with Z and moves every
    # blade, so they are, but it anticommutes with R, so the radial blocks do
    # not split in their basis
    operator = BladeOperator.right(e(CL32, 1, 2)) if product == "right-e12" else (
        BladeOperator.left(e(CL32, 3, 4)))
    monkeypatch.setattr(coulomb, "_RIGHT_E34", operator)
    message = ("does not give a basis e_b \\+- P e_b of its eigenvectors" if product == "right-e12"
               else "do not split into eight 2 x 2 blocks")
    for gamma in BOTH_GAMMAS:
        with pytest.raises(RuntimeError, match=message):
            coulomb._dirac_blocks.__wrapped__(gamma)


def test_one_batch_of_the_whole_grid_isolates_each_state():
    # both phase bivectors and every coupling in one call: each selection-rule
    # cell gets its own error, with the message of a batch of one, and every
    # other cell the bits of a batch of one
    grid = list(diagnostic_grid())
    batch = solve_radials(grid)
    assert len(batch) == len(grid)
    errors = [result for result in batch if isinstance(result, RuntimeError)]
    assert len(errors) == 20 and len({id(error) for error in errors}) == 20
    for params, result in zip(grid, batch):
        if assert_matches_step_by_step(params, result):
            with pytest.raises(RuntimeError) as alone:
                solve_radial(params)
            assert str(result) == str(alone.value)
            continue
        alone = solve_radial(params)
        assert result.params is params
        assert result.energy == alone.energy
        assert result.series.coefficients.tobytes() == alone.series.coefficients.tobytes()
        assert result.diagnostics == alone.diagnostics


def test_solving_the_grid_in_any_order_gives_each_state_the_same_bits():
    # the solver sorts each phase bivector's states by n_r and scatters the
    # results back: reversed or shuffled, every state keeps its bits
    grid = list(diagnostic_grid())
    in_order = solve_radials(grid)
    shuffled = np.random.default_rng(2005).permutation(len(grid)).tolist()
    for order in (list(range(len(grid)))[::-1], shuffled):
        for i, result in zip(order, solve_radials([grid[i] for i in order])):
            expected = in_order[i]
            if isinstance(expected, RuntimeError):
                assert type(result) is RuntimeError and str(result) == str(expected), grid[i]
                continue
            assert result.params is grid[i]
            assert result.energy == expected.energy, grid[i]
            assert result.series.decay == expected.series.decay, grid[i]
            assert result.series.coefficients.tobytes() == expected.series.coefficients.tobytes()
            assert result.diagnostics == expected.diagnostics, grid[i]


@pytest.mark.parametrize(
    "bad, error",
    [
        ((s for s in ()), None),  # any iterable, even a generator
        ([CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=0), "1s"],
         "state 1 is a str, not a CoulombParams"),
    ],
    ids=["generator", "not-params"],
)
def test_solve_radials_takes_any_iterable_and_names_a_bad_element(bad, error):
    if error is None:
        assert solve_radials(bad) == []
        states = [CoulombParams(mass=1.0, coupling=0.3, kappa=k, n_r=1) for k in (-1, 1)]
        solved = solve_radials(iter(states))
        assert [s.energy for s in solved] == [s.energy for s in solve_radials(states)]
        return
    with pytest.raises(TypeError, match=error):
        solve_radials(bad)


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_solver_lapack_calls_do_not_grow_with_the_series_length(gamma, monkeypatch):
    # The recurrence steps and the indicial kernel come from S^2 = q^2 I in
    # closed form, the threshold scale takes largest column norms, and the
    # kernel basis makes column norms the singular values of the termination
    # and final-coefficient maps.  So no solve makes a LAPACK call, whatever
    # its series length, batch size, phase bivectors or admissible dimensions.
    names = ("solve", "svd", "inv", "norm")

    def assert_no_lapack_call(batch):
        solve_radials(batch)  # fill the block and pairing caches first
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        solve_radials(batch)
        monkeypatch.undo()
        assert counts == dict.fromkeys(names, 0), counts

    def state(kappa=-2, n_r=0, coupling=0.3):
        return CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r, gamma=gamma)

    assert_no_lapack_call([state(n_r=0)])
    assert_no_lapack_call([state(n_r=6)])
    # 14 states that share n_r
    kappas = [k for k in range(-7, 8) if k]
    assert_no_lapack_call([state(kappa=k, n_r=3) for k in kappas])
    # a batch over four n_r and two couplings
    mixed = [state(k, n_r, c) for k in kappas for n_r in range(4) for c in (1e-4, 0.6)]
    assert_no_lapack_call(mixed)
    # both phase bivectors in one batch
    other = BOTH_GAMMAS[1] if gamma == BOTH_GAMMAS[0] else BOTH_GAMMAS[0]
    assert_no_lapack_call(mixed + [replace(p, gamma=other) for p in mixed])
    # the 64 states of `spectrum --max-n 8` at Z = 37
    assert_no_lapack_call([state(k, n_r, 37 * FINE_STRUCTURE) for k, n_r in cli._spectrum_states(8)])


#: Couplings of the closed-form checks, 1e-300 to 0.9999999.
IDENTITY_COUPLINGS = (1e-300, 1e-200, 1e-100, 1e-50, 1e-30, 1e-20, *np.logspace(-16, -1, 24),
                      0.3, 0.5, 0.9, 0.99, 0.999999, 0.9999999)


def identity_grid(gamma):
    """``(kappa, coupling, q, S)`` as ``(N, 1, 1, 1)`` columns and the stack of
    ``S``'s ``(N, 8, 2, 2)`` blocks, for kappa = +-1..+-21 at every coupling of
    :data:`IDENTITY_COUPLINGS`."""
    kappa, coupling = np.meshgrid([k for k in range(-21, 22) if k], IDENTITY_COUPLINGS)
    kappa, coupling = kappa.reshape(-1, 1, 1, 1).astype(float), coupling.reshape(-1, 1, 1, 1)
    q = np.sqrt((kappa - coupling) * (kappa + coupling))  # as series_exponent rounds it
    z, rhz, _ = coulomb._dirac_blocks(gamma)[1]
    return kappa, coupling, q, kappa * z + coupling * rhz


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_closed_form_steps_match_the_lapack_inverse(gamma):
    # ((p+q) I - S)^-1 = ((S + qI) + pI) / (p (p+2q)) against np.linalg.inv, for
    # each 2 x 2 block at the powers of `spectrum --max-n 8`, relative to the
    # largest entry of the state's step.  The bound is the sum of both errors:
    # where they differ most, against a 40-digit inverse, LAPACK's is 9 eps
    # and the closed form's 5 eps
    kappa, coupling, q, s_mat = identity_grid(gamma)
    eye = np.eye(2)
    worst = (0.0, None)
    for p in range(1, 9):
        closed = coulomb._step_inverses(s_mat + q * eye, q, p)
        reference = np.linalg.inv((p + q) * eye - s_mat)
        largest = np.abs(reference).max(axis=(1, 2, 3))
        relative = np.abs(closed - reference).max(axis=(1, 2, 3)) / largest
        assert (relative <= 16 * EPS).all(), (p, relative.max() / EPS)
        if relative.max() >= worst[0]:
            worst = (relative.max(), (p, relative.argmax(), closed[relative.argmax()]))
    p, i, closed = worst[1]
    with mp.workdps(40):
        shift = (p + mp.mpf(q[i, 0, 0, 0])) * mp.eye(2)
        exact = np.array([((shift - mp.matrix(block.tolist()))**-1).tolist()
                          for block in s_mat[i]], dtype=np.float64)
    assert np.abs(closed - exact).max() <= 6 * EPS * np.abs(exact).max()


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_structured_indicial_kernel_matches_the_svd_kernel(gamma):
    kappa, coupling, q, s_mat = identity_grid(gamma)
    kernel = coulomb._indicial_kernel(s_mat + q * np.eye(2), kappa, coupling, q)
    # unit columns, one per block
    assert np.abs(coulomb._norms(kernel) - 1.0).max() <= 2 * EPS
    # in the blades: the kernel the SVD finds, the same subspace, up to the
    # SVD's own error, which reaches 1.01e-14 at |kappa| = 13
    basis = coulomb._dirac_blocks(gamma)[0].reshape(16, 8, 2)
    columns = np.einsum("bks,nks->nbk", basis, kernel) * math.sqrt(0.5)
    dense = angular_coupling_matrix(kappa[..., 0], coupling[..., 0], gamma)
    svd_kernel = np.swapaxes(np.linalg.svd(dense - q[..., 0] * EYE)[2][:, 8:], 1, 2)
    projectors = columns @ columns.swapaxes(1, 2), svd_kernel @ svd_kernel.swapaxes(1, 2)
    assert np.abs(projectors[0] - projectors[1]).max() <= 64 * EPS
    # (S - qI) k is (kappa^2 - lambda^2 - q^2) / |column| at one slot of each
    # block: not 0, as q is a rounded square root, but within eps |kappa|,
    # where the SVD kernel's residual reaches 76 eps |kappa|
    residual = np.abs(coulomb._apply(s_mat, kernel) - q[..., 0] * kernel).max(axis=(1, 2))
    assert (residual <= EPS * np.abs(kappa[:, 0, 0, 0])).all()


def test_a_failed_square_identity_is_an_error_for_every_state(monkeypatch):
    # the solver takes its steps and kernel from S^2 = q^2 I, so a block that
    # breaks it (one sign inside a 2 x 2 block of R H Z flipped) makes every
    # state an error
    basis, tables = coulomb._dirac_blocks(GammaChoice.e12())
    flipped = np.array(tables)
    flipped[1, 0, 0, 1] *= -1.0
    monkeypatch.setattr(coulomb, "_dirac_blocks", lambda gamma: (basis, flipped))
    batch = [CoulombParams(mass=1.0, coupling=c, kappa=k, n_r=n_r)
             for c in (1e-4, 0.3, 0.9) for k in (-2, -1, 1, 2) for n_r in range(3)]
    for params, result in zip(batch, solve_radials(batch)):
        assert isinstance(result, RuntimeError), params
        assert str(result).startswith("S^2 = q^2 I fails: error "), result
        assert f"kappa={params.kappa}, n_r={params.n_r}" in str(result)
    with pytest.raises(RuntimeError, match=r"S\^2 = q\^2 I fails"):
        solve_radial(batch[0])


# ---------------------------------------------------------------------------
# radial series container
# ---------------------------------------------------------------------------


def test_series_evaluate_matches_its_derivative():
    # the series is in rho = mass r, so radii and the step scale by 1 / mass
    for mass in (1.0, 2.5, 1e3):
        params = CoulombParams(mass=mass, coupling=0.3, kappa=-2, n_r=2)
        series = solve_radial(params).series
        h = 1e-6 / mass
        for r in (0.5 / mass, 1.0 / mass, 3.0 / mass):
            numeric = (series.evaluate(r + h) - series.evaluate(r - h)) / (2 * h)
            analytic = series.derivative(r)
            scale = np.abs(analytic).max() + 1.0
            assert np.abs(numeric - analytic).max() / scale < 1e-8, (mass, r)


def test_series_derivative_is_finite_at_subnormal_radii():
    # powers / r overflowed to inf before the tiny terms multiplied it, with
    # an overflow warning, which the suite makes an error
    for gamma in BOTH_GAMMAS:
        for mass in (1.0, 3.5e-7):
            series = solve_radial(CoulombParams(mass, 1e-6, -1, 2, gamma)).series
            for r in (5e-324, 1e-320, 1e-310):
                assert np.isfinite(series.derivative(r)).all(), (gamma, mass, r)
            # where the terms are normal it is the old form to within roundoff
            for r in np.array([1e-6, 0.3, 1.0, 10.0]) / mass:
                powers, terms = series._terms(r)
                old = ((powers / r + series.decay) * terms) @ series.coefficients
                assert np.abs(series.derivative(r) - old).max() <= 1e-13 * np.abs(old).max()
    # near 0 the leading term is all: du/dr = m q rho^(q-1) C_0
    series = solve_radial(CoulombParams(1.0, 1e-6, -1, 2)).series
    q = series.exponent
    leading = q * math.exp((q - 1.0) * math.log(1e-310)) * series.coefficients[0]
    assert np.abs(series.derivative(1e-310) - leading).max() <= 1e-12 * np.abs(leading).max()


@pytest.mark.filterwarnings("error")
def test_series_is_zero_where_its_decay_underflows():
    # rho^q and rho^p were taken apart from exp(beta r): at r = 1e160 rho^q
    # raised a bare OverflowError, and at 1e110 rho^3 overflowed to inf, so
    # that 0 * inf gave NaN in every slot
    for params, radius in ((CoulombParams(1.0, 0.3, -2, 1), 1e160),
                           (CoulombParams(1.0, 0.3, -1, 3), 1e110)):
        series = solve_radial(params).series
        for r in (radius, 1e300):
            assert math.exp(series.decay * r) == 0.0
            for method in (series.evaluate, series.derivative):
                values = method(r)
                assert values.shape == (16,) and not values.any(), (params, r)
        # before it underflows the series is finite, and where neither factor
        # under- or overflows it is the prefactor times the polynomial
        assert np.isfinite(series.evaluate(300.0)).all() and series.evaluate(300.0).any()
        for mass in (1.0, 3.5e-7):
            series = solve_radial(replace(params, mass=mass)).series
            for r in np.array([1e-3, 0.1, 1.0, 2.5, 10.0]) / mass:
                rho, q = mass * r, series.exponent
                powers = rho ** np.arange(params.n_r + 1)
                expected = rho**q * math.exp(series.decay * r) * (powers @ series.coefficients)
                assert (np.abs(series.evaluate(r) - expected).max()
                        <= 1e-12 * np.abs(expected).max()), (params, mass, r)
        # where rho = m r underflows to 0 its log is log m + log r: u is finite
        assert np.isfinite(series.evaluate(1e-320)).all(), params


def test_series_multivector_is_even():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1)
    series = solve_radial(params).series
    values = series.evaluate(1.0)
    assert values.shape == (len(even_masks(CL32)),)
    coeffs = np.zeros(CL32.n_blades)
    coeffs[list(even_masks(CL32))] = values
    assert Multivector(coeffs).is_even


def test_series_guards():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=0)
    series = solve_radial(params).series
    with pytest.raises(ValueError):
        series.evaluate(0.0)
    with pytest.raises(ValueError):
        series.derivative(-1.0)
    for method in (series.evaluate, series.derivative):
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive"):
                method(radius)
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


def test_angular_identity_keeps_a_nan(rng):
    # an all-NaN field must not score 0.0 and pass
    nan = Multivector(np.full(CL32.n_blades, math.nan))
    field = AnalyticField(lambda pt: nan, lambda axis, pt: nan)
    pts = rng.uniform(0.2, 1.0, size=(3, 5))
    assert math.isnan(angular_reduction_check(-1, field, pts))
