"""Tests for the Coulomb radial system, closed-form ladder, and series solver.

The closed-form energies are checked two independent ways: against literal
frozen values (regression pinning; every operation in the closed form is a
correctly-rounded IEEE primitive, so the doubles are platform-stable) and
against a 50-digit arbitrary-precision evaluation of the textbook formula in
the (n, j) parametrization, which shares no code with the implementation.
"""
from __future__ import annotations

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fermion5d import coulomb
from fermion5d.algebra import (
    CL32,
    Multivector,
    e,
    even_coeffs,
    even_masks,
    from_even_coeffs,
    pseudoscalar,
    random_multivector,
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
    # the reduction does not depend on the radial direction: left
    # multiplication by any spatial unit has the algebra of R, and the last
    # of them, e3, is R
    for axis in (1, 2, 3):
        unit = e(CL32, axis)
        mat = even_operator_matrix(lambda mv: unit * mv)
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
        matrix[:, j] = even_coeffs(out)
    return matrix


def test_even_operator_matrix_equals_the_column_loop_bitwise(rng):
    even = random_multivector(rng, CL32, even=True)
    vec = random_multivector(rng, CL32).grade(1)
    operators = [
        lambda mv: even * mv - mv * even,
        lambda mv: vec * mv,
        lambda mv: -(mv * e(CL32, 0, 1, 2)),
        lambda mv: 0.0 * mv,
    ]
    for gamma in (GammaChoice.e12(), GammaChoice.e0E()):
        ge0 = gamma.as_multivector() * e(CL32, 0)
        operators.append(lambda mv, ge0=ge0: mv * ge0)
    for unit in (e(CL32, 1), e(CL32, 2), e(CL32, 3)):
        operators.append(lambda mv, unit=unit: unit * mv)
    operators.append(lambda mv: e(CL32, 0) * mv * e(CL32, 0))
    for fn in operators:
        got = even_operator_matrix(fn)
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == column_loop_operator_matrix(fn).tobytes()


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


def column_scale(block):
    """Largest column 2-norm of ``block``: the solver's lower bound on ``|block|_2``."""
    return np.linalg.norm(block, axis=0).max()


def spectral_norm(block):
    return np.linalg.norm(block, 2)


def solve_step_by_step(params, scale_of=column_scale):
    """The solver's energy, kernel dimension, vacuity and series, recomputed
    the way they were before the recurrence steps were inverted in one
    batched call: ``series_exponent`` read on every bisection step, one
    ``np.linalg.solve`` per recurrence step and one ``scale_of`` per block
    of the threshold scale.  The series direction follows the solver's
    rule, the fixed probe projected onto the top singular subspace of the
    final coefficients."""
    m, coupling, n_r = params.mass, params.coupling, params.n_r
    q = params.series_exponent

    def gap(decay):
        shift = n_r + params.series_exponent
        return decay * shift - coupling * np.sqrt((m - decay) * (m + decay))

    # the solver's root search: (0, m) brackets the root, bisected to two
    # adjacent floats
    lo, hi = 0.0, m
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    decay = 0.5 * (lo + hi)
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
    _, sing_b, vt_b = np.linalg.svd(propagate(admissible)[-1], full_matrices=False)
    top = admissible @ vt_b[sing_b >= (1.0 - 1e-8) * sing_b[0]].T
    start = top @ (top.T @ coulomb._DIRECTION_PROBE)
    return energy, kernel_dim, vacuity, np.array(propagate(start / np.linalg.norm(start)))


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
    energy, kernel_dim, vacuity, coefficients = solve_step_by_step(params)
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


def test_column_scale_bounds_the_2_norm_and_keeps_every_kernel_dimension():
    # each factor of the threshold scale is a largest column norm, at most
    # the 2-norm that set it before, so no threshold is looser; and on the
    # grid a threshold from 2-norms admits the same kernel dimensions
    bound = 1.0 + 4.0 * np.finfo(np.float64).eps
    grid = list(diagnostic_grid())
    for params, result in zip(grid, solve_radials(grid)):
        blocks = []

        def recorded(block):
            blocks.append(block)
            return spectral_norm(block)

        kernel_dim = solve_step_by_step(params, recorded)[1]
        solved = not isinstance(result, RuntimeError)
        assert kernel_dim == (result.diagnostics["termination_kernel_dim"] if solved else 0), params
        scales = coulomb._column_scale(np.array(blocks))
        assert np.all(scales <= [spectral_norm(block) * bound for block in blocks]), params


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


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_solver_lapack_calls_do_not_grow_with_the_series_length(gamma, monkeypatch):
    # One batched inverse builds every recurrence step, and the threshold
    # scale takes largest column norms, not singular values, so a solve
    # makes four LAPACK calls (the inverse and three SVDs) whatever n_r is.
    # A batch makes each call once per group of states that share the
    # phase bivector and n_r.
    names = ("solve", "svd", "inv", "norm")

    def lapack_calls(solve):
        solve()  # fill the block cache first
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                assert kwargs.get("compute_uv", True), "an SVD for singular values alone"
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        solve()
        monkeypatch.undo()
        return counts

    def state(kappa=-2, n_r=0, coupling=0.3):
        return CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r, gamma=gamma)

    short = lapack_calls(lambda: solve_radial(state(n_r=0)))
    long = lapack_calls(lambda: solve_radial(state(n_r=6)))
    assert short["solve"] == long["solve"] == 0, (short, long)
    assert sum(long.values()) <= sum(short.values()), (short, long)
    assert long["svd"] + long["inv"] <= 4, long

    # 14 states that share n_r make the calls of one
    kappas = [k for k in range(-7, 8) if k]
    many = lapack_calls(lambda: solve_radials([state(kappa=k, n_r=3) for k in kappas]))
    assert many == lapack_calls(lambda: solve_radials([state(n_r=3)])), many
    # a batch over four n_r and two couplings makes at most four per n_r
    mixed = [state(k, n_r, c) for k in kappas for n_r in range(4) for c in (1e-4, 0.6)]
    counts = lapack_calls(lambda: solve_radials(mixed))
    assert counts["svd"] + counts["inv"] <= 4 * 4, counts


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


def test_series_multivector_is_even():
    params = CoulombParams(mass=1.0, coupling=0.3, kappa=-1, n_r=1)
    series = solve_radial(params).series
    mv = from_even_coeffs(series.evaluate(1.0))
    assert isinstance(mv, Multivector)
    assert mv.is_even


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
