"""Tests for the five-dimensional wave equation and its plane-wave solutions."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fermion5d import wave
from fermion5d.algebra import (
    CL32,
    Multivector,
    e,
    even_masks,
    linear_map_matrix,
    pseudoscalar,
    random_multivector,
)
from fermion5d.beyond import ScalarPotentialDemo, pair_residuals
from fermion5d.spinor import idempotent_split_coeffs
from fermion5d.fields import (
    METRIC_SIGNS,
    AnalyticField,
    ConstantField,
    FiniteDifferenceField,
    PhaseField,
    minkowski_dot,
)
from fermion5d.wave import (
    GammaChoice,
    GammaRejectionError,
    NO_E4_EVEN_MASKS,
    PlaneWave,
    build_plane_wave,
    build_plane_waves,
    constraint_residuals,
    dirac5_potential_residuals,
    dirac5_residual,
    dirac5_residuals,
    gamma_classify,
    hestenes_dirac_residual,
    hestenes_plane_wave_field,
    hestenes_sample_residuals,
    phase_mixture,
    plane_wave_amplitudes,
    plane_wave_field,
    sector_fields,
    solve_hestenes_amplitude,
    solve_time_component,
)

BOTH_GAMMAS = (GammaChoice.e12(), GammaChoice.e0E())


def momentum_vector(k):
    """The grade-1 multivector ``k^A e_A``: the rows the constraint multiplies."""
    return Multivector(wave._momentum_rows(np.asarray(k, dtype=np.float64)))


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis (columns) via SVD: the right singular
    vectors whose singular values are at most 1e-10 times the largest.  The
    reference that the closed-form amplitudes are held to."""
    u, s, vt = np.linalg.svd(matrix)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(matrix.shape[1])
    keep = s <= 1e-10 * s[0]
    # vt rows beyond len(s) correspond to exactly-null directions
    extra = vt.shape[0] - s.size
    null_rows = np.concatenate([np.nonzero(keep)[0], np.arange(s.size, s.size + extra)])
    return vt[null_rows].T.copy() if null_rows.size else np.zeros((matrix.shape[1], 0))


def constraint_oracle(k, mass, gamma):
    """Matrix of ``amp -> K amp gamma + m E amp`` on the even blades, one
    multivector product chain per column."""
    kvec = momentum_vector(k)
    gmv = gamma.as_multivector()
    return linear_map_matrix(
        lambda mv: kvec * mv * gmv + mass * (pseudoscalar(CL32) * mv), CL32, even_masks(CL32)
    )


def hestenes_oracle(k4, mass):
    """Matrix of ``psi -> K psi e12 - m psi e012`` on the e4-free even blades."""
    kvec = momentum_vector([*k4, 0.0])
    e12, e012 = e(CL32, 1, 2), e(CL32, 0, 1, 2)
    return linear_map_matrix(
        lambda mv: kvec * mv * e12 - mass * (mv * e012), CL32, NO_E4_EVEN_MASKS
    )


def amplitude_basis(k, mass, gamma):
    """Orthonormal basis of the even amplitudes that satisfy the momentum
    constraint: the reference null space of its matrix, on the even blades."""
    basis = nullspace(constraint_oracle(k, mass, gamma))
    coeffs = np.zeros((basis.shape[1], CL32.n_blades))
    coeffs[:, list(even_masks(CL32))] = basis.T
    return [Multivector(row) for row in coeffs]


def distance_to_span(basis, vector):
    """Largest coefficient of ``vector`` off the span of orthonormal columns."""
    return np.abs(vector - basis @ (basis.T @ vector)).max()


def test_nullspace_finds_exact_kernel():
    mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis = nullspace(mat)
    assert basis.shape == (3, 1)
    assert np.allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0])
    full = nullspace(np.zeros((2, 3)))
    assert full.shape[1] == 3
    none = nullspace(np.eye(3))
    assert none.shape == (3, 0)


def sample_points(rng, count=4, scale=0.7):
    return rng.uniform(-scale, scale, size=(count, 5))


# ---------------------------------------------------------------------------
# phase bivector admissibility and classification
# ---------------------------------------------------------------------------


def test_pure_phase_bivectors_square_to_minus_one():
    for gamma in BOTH_GAMMAS:
        g = gamma.as_multivector()
        assert g * g == Multivector.scalar(-1.0)


def test_e0e_variant_is_e0_times_the_pseudoscalar():
    assert GammaChoice.e0E().as_multivector() == e(CL32, 0) * pseudoscalar(CL32)


def test_superposition_admissible_exactly_on_the_quarter_turn_lattice():
    for k in range(8):
        expected = GammaChoice.E12_VARIANT if k % 2 == 0 else GammaChoice.E0E_VARIANT
        got = gamma_classify(phase_mixture(k * math.pi / 2)).variant
        assert got == expected, f"theta = {k}*pi/2 must classify as {expected}"


def test_superposition_rejected_off_the_lattice():
    for theta in (math.pi / 4, 0.3, 1.0, 3 * math.pi / 4):
        with pytest.raises(GammaRejectionError) as err:
            gamma_classify(phase_mixture(theta))
        assert err.value.diagnostics


def test_classification_rejects_squares_and_projection_mismatches():
    # e1e3 squares to -1 but fails the projection identity
    with pytest.raises(GammaRejectionError) as err:
        gamma_classify(e(CL32, 1, 3))
    assert any("projection" in d for d in err.value.diagnostics)
    # odd content is reported
    with pytest.raises(GammaRejectionError) as err:
        gamma_classify(e(CL32, 1))
    assert any("odd" in d for d in err.value.diagnostics)
    # wrong algebra
    from fermion5d.algebra import CL31

    with pytest.raises(GammaRejectionError):
        gamma_classify(Multivector.scalar(1.0, CL31))


def test_gamma_from_name():
    assert GammaChoice.from_name("e12").variant == GammaChoice.E12_VARIANT
    assert GammaChoice.from_name("E0E").variant == GammaChoice.E0E_VARIANT
    for name in ("e13", "e1e2"):
        with pytest.raises(ValueError):
            GammaChoice.from_name(name)


# ---------------------------------------------------------------------------
# momentum algebra
# ---------------------------------------------------------------------------


def test_momentum_vector_components():
    k = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    kvec = momentum_vector(k)
    assert kvec.grades_present == (1,)
    for a in range(5):
        assert kvec.coeffs[1 << a] == k[a]
    # square of a grade-1 vector is its metric norm
    assert np.isclose((kvec * kvec).coeffs[0], minkowski_dot(k, k))


def test_solve_time_component_uses_the_two_time_metric():
    assert solve_time_component((3.0, 0.0, 0.0), 0.0, 4.0) == 5.0
    # a second-time momentum reduces the frequency
    assert solve_time_component((0.0, 0.0, 0.0), 0.8, 1.0) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        solve_time_component((0.0, 0.0, 0.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        solve_time_component((1.0, 2.0), 0.0, 1.0)


@pytest.mark.parametrize("scale", [1e-200, 1e-300, 5e-324])
def test_solve_time_component_survives_squares_that_underflow(scale):
    # the plain sum of squares is 0 here; an exact power-of-two rescale is not
    assert solve_time_component((3 * scale, 0.0, 0.0), 0.0, 4 * scale) == pytest.approx(
        5 * scale, rel=1e-15, abs=0.0
    )
    with pytest.raises(ValueError, match="no real frequency"):
        solve_time_component((scale, 0.0, 0.0), 2 * scale, 0.0)


def test_solve_time_component_keeps_the_plain_sum_where_squares_are_normal():
    # hypot would differ by an ulp here; only underflowing inputs are rescaled
    for x in (1e-150, 1.5e-154):
        assert solve_time_component((x, 0.0, 0.0), 0.0, x) == math.sqrt(x * x + x * x)


def test_amplitude_space_dimension_on_and_off_shell():
    k_on = np.array([math.sqrt(1.09), 0.3, 0.0, 0.0, 0.0])
    for gamma in BOTH_GAMMAS:
        assert len(amplitude_basis(k_on, 1.0, gamma)) == 8
    k_off = np.array([1.0, 0.3, 0.0, 0.0, 0.0])
    assert len(amplitude_basis(k_off, 1.0, GammaChoice.e12())) == 0


# ---------------------------------------------------------------------------
# plane waves solve the free equation
# ---------------------------------------------------------------------------


def test_plane_waves_solve_the_free_equation(rng):
    pts = sample_points(rng)
    for _ in range(5):
        k_spatial = rng.uniform(-1, 1, size=3)
        k4 = float(rng.uniform(-0.5, 0.5))
        mass = float(rng.uniform(0.5, 1.5))
        for gamma in BOTH_GAMMAS:
            wave = build_plane_wave(k_spatial, k4, mass, gamma)
            assert wave.dispersion_residual() < 1e-10
            assert wave.constraint_residual() < 1e-10
            field = wave.field()
            for x in pts:
                assert dirac5_residual(field, mass, x).inf_norm() < 1e-10


def test_every_amplitude_basis_element_works(rng):
    k_spatial = (0.4, -0.2, 0.1)
    mass = 1.0
    k0 = solve_time_component(k_spatial, 0.3, mass)
    k = np.array([k0, *k_spatial, 0.3])
    pts = sample_points(rng, count=2)
    for gamma in BOTH_GAMMAS:
        for amp in amplitude_basis(k, mass, gamma):
            wave = PlaneWave(amplitude=amp, k=k, gamma=gamma, mass=mass)
            field = wave.field()
            for x in pts:
                assert dirac5_residual(field, mass, x).inf_norm() < 1e-10


def test_specialized_constraint_forms(rng):
    # for the pure variants the constraint collapses to a reduced condition:
    # K amp = m amp e0 for e0E, and K amp = -m amp e0e3e4 for e1e2
    for gamma in BOTH_GAMMAS:
        wave = build_plane_wave((0.3, 0.1, -0.2), 0.2, 1.2, gamma)
        kvec, amp = momentum_vector(wave.k), wave.amplitude
        if gamma.variant == GammaChoice.E0E_VARIANT:
            reduced = kvec * amp - wave.mass * (amp * e(CL32, 0))
        else:
            reduced = kvec * amp + wave.mass * (amp * e(CL32, 0, 3, 4))
        assert reduced.inf_norm() < 1e-10


def test_plane_wave_constructor_guards(rng):
    k = np.array([math.sqrt(2.0), 1.0, 0.0, 0.0, 0.0])
    bad_amp = random_multivector(rng, CL32, even=True)  # not in the null space
    with pytest.raises(ValueError):
        PlaneWave(amplitude=bad_amp, k=k, gamma=GammaChoice.e12(), mass=1.0)
    with pytest.raises(ValueError):
        PlaneWave(amplitude=e(CL32, 0), k=k, gamma=GammaChoice.e12(), mass=1.0)


def test_build_plane_wave_rejects_imaginary_frequency():
    with pytest.raises(ValueError):
        build_plane_wave((0.0, 0.0, 0.0), 2.0, 1.0, GammaChoice.e12())


# ---------------------------------------------------------------------------
# the pair form on the idempotent halves
# ---------------------------------------------------------------------------


def test_pair_form_is_equivalent_to_the_full_equation(rng):
    pts = sample_points(rng, count=3)
    wave = build_plane_wave((0.3, -0.4, 0.2), 0.25, 1.0, GammaChoice.e12())
    plus, minus = sector_fields(wave.field())
    for lead, trail in ((plus, minus), (minus, plus)):  # the upper and lower signs
        assert np.abs(pair_residuals(lead, trail, 1.0, pts)).max() < 1e-10


def test_pair_residuals_sum_to_the_full_residual(rng):
    # for any even field, the two signs of the pair equation add up to the
    # full residual times (1 - e3e4)
    one_minus_e34 = Multivector.scalar(1.0) - e(CL32, 3, 4)
    amp = random_multivector(rng, CL32, even=True)
    freq = rng.uniform(-1, 1, size=5)

    def value(pt):
        return float(np.cos(freq @ pt)) * amp

    def partial(axis, pt):
        return float(-np.sin(freq @ pt) * freq[axis]) * amp

    field = AnalyticField(value, partial)
    plus, minus = sector_fields(field)
    for mass in (0.0, 0.7):
        pts = sample_points(rng, count=3)
        split = pair_residuals(plus, minus, mass, pts) + pair_residuals(minus, plus, mass, pts)
        for x, row in zip(pts, split):
            total = dirac5_residual(field, mass, x) * one_minus_e34
            assert np.abs(total.coeffs - row).max() < 1e-14


# ---------------------------------------------------------------------------
# reduction to the four-dimensional equation
# ---------------------------------------------------------------------------


def test_flat_wave_halves_satisfy_the_reduced_equation(rng):
    pts = sample_points(rng, count=3)
    for gamma in BOTH_GAMMAS:
        wave = build_plane_wave((0.2, 0.5, -0.3), 0.0, 1.0, gamma)
        plus, minus = sector_fields(wave.field())
        for xi in (plus, minus):
            for x in pts:
                assert hestenes_dirac_residual(xi, 1.0, x).inf_norm() < 1e-10


def test_reduction_refuses_fields_that_vary_along_the_second_time(rng):
    wave = build_plane_wave((0.2, 0.5, -0.3), 0.4, 1.0, GammaChoice.e12())
    field = wave.field()
    with pytest.raises(ValueError, match="second time"):
        hestenes_dirac_residual(field, 1.0, rng.uniform(-1, 1, size=5))


def test_reduction_with_a_constant_electric_potential(rng):
    # gauge shift: a wave with k0 offset by q*a0 solves the coupled equation
    mass, charge, a0 = 1.0, 0.25, 0.6
    k_free = np.array([math.sqrt(1.0 + 0.09), 0.3, 0.0, 0.0])
    amp = solve_hestenes_amplitude(k_free, mass)
    k_shifted = np.array([*(k_free + [charge * a0, 0.0, 0.0, 0.0]), 0.0])
    amp_g = amp * e(CL32, 1, 2)

    def value(pt):
        th = minkowski_dot(k_shifted, pt)
        return amp * math.cos(th) + amp_g * math.sin(th)

    def partial(axis, pt):
        k_low = METRIC_SIGNS * k_shifted
        th = minkowski_dot(k_shifted, pt)
        return (amp * -math.sin(th) + amp_g * math.cos(th)) * float(k_low[axis])

    field = AnalyticField(value, partial)
    potential = ConstantField(a0 * e(CL32, 0))
    for x in sample_points(rng, count=3):
        res = hestenes_dirac_residual(field, mass, x, charge=charge, potential=potential)
        assert res.inf_norm() < 1e-10
        # without the potential the same field fails
        assert hestenes_dirac_residual(field, mass, x).inf_norm() > 0.01


def test_reduction_potential_guards(rng):
    field = hestenes_plane_wave_field((0.1, 0.0, 0.0), 1.0)
    x = rng.uniform(-0.5, 0.5, size=5)
    with pytest.raises(ValueError, match="charge given without a potential"):
        hestenes_dirac_residual(field, 1.0, x, charge=1.0)
    with pytest.raises(ValueError, match="grade-1"):
        hestenes_dirac_residual(
            field, 1.0, x, charge=1.0, potential=ConstantField(e(CL32, 0, 1))
        )
    with pytest.raises(ValueError, match="second-time"):
        hestenes_dirac_residual(
            field, 1.0, x, charge=1.0, potential=ConstantField(e(CL32, 4))
        )


def test_five_dimensional_potential_residual_matches_free_form_at_zero_charge(rng):
    # charge 0 is the free residual bit for bit, and the potential is not
    # read: not even a grade-2 one, nor none at all
    field = build_plane_wave((0.3, -0.1, 0.2), 0.2, 1.0, GammaChoice.e12()).field()
    points = sample_points(rng, count=5)
    free = dirac5_residuals(field, 1.0, points)
    for potential in (ConstantField(Multivector.zero()), ConstantField(e(CL32, 0, 1)), None):
        for gamma in BOTH_GAMMAS:
            gauged = dirac5_potential_residuals(field, 1.0, 0.0, potential, gamma, points)
            assert gauged.tobytes() == free.tobytes()
    with pytest.raises(ValueError, match="grade-1"):
        dirac5_potential_residuals(
            field, 1.0, 1.0, ConstantField(e(CL32, 0, 1)), GammaChoice.e12(), points
        )
    # a potential is a field: a bare callable is refused, as a missing one is
    for potential in (None, lambda pt: e(CL32, 0)):
        with pytest.raises(ValueError, match="charge given without a potential field"):
            dirac5_potential_residuals(field, 1.0, 1.0, potential, GammaChoice.e12(), points)


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_batch_potential_residuals_equal_the_point_calls_bitwise(rng, gamma):
    # a potential that varies from point to point: A = cos(k.x) e1 + 0.5 sin(k.x) e0
    field = build_plane_wave((0.4, -0.2, 0.7), 0.3, 0.9, gamma).field()
    potential = PhaseField(e(CL32, 1), 0.5 * e(CL32, 0), (0.3, -0.2, 0.1, 0.4, 0.2))
    points = rng.uniform(-2.0, 2.0, size=(9, 5))
    batch = dirac5_potential_residuals(field, 0.9, -0.75, potential, gamma, points)
    assert batch.shape == (9, CL32.n_blades)
    for n, x in enumerate(points):
        one = dirac5_potential_residuals(field, 0.9, -0.75, potential, gamma, [x])
        assert batch[n].tobytes() == one[0].tobytes()


def test_the_coupled_residuals_multiply_no_multivectors(rng, monkeypatch):
    # the coupling term is one batched product and a signed gather
    def no_product(self, other):
        raise AssertionError("Multivector product")

    field = build_plane_wave((0.3, -0.1, 0.2), 0.2, 1.0, GammaChoice.e0E()).field()
    flat = hestenes_plane_wave_field((0.1, 0.2, 0.0), 1.0)
    five = ConstantField(0.6 * e(CL32, 0) - 0.2 * e(CL32, 4))
    four = ConstantField(0.3 * e(CL32, 0) + 0.1 * e(CL32, 2))
    points = sample_points(rng, count=3)
    monkeypatch.setattr(Multivector, "__mul__", no_product)
    for gamma in BOTH_GAMMAS:
        dirac5_potential_residuals(field, 1.0, 0.5, five, gamma, points)
    hestenes_dirac_residual(flat, 1.0, points[0], charge=0.5, potential=four)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_point_raises_one_line_naming_its_row(bad):
    field = build_plane_wave((0.2, 0.1, 0.3), 0.0, 1.0, GammaChoice.e12()).field()
    point = [0.0, bad, 0.0, 0.0, 0.0]
    calls = [
        lambda: dirac5_residuals(field, 1.0, [[0.1] * 5, point]),
        lambda: dirac5_residual(field, 1.0, point),
        lambda: hestenes_dirac_residual(sector_fields(field)[0], 1.0, point),
    ]
    for row, call in zip((1, 0, 0), calls):
        with pytest.raises(ValueError, match=f"point row {row} .* is not finite") as info:
            call()
        assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# four-dimensional plane waves
# ---------------------------------------------------------------------------


def test_hestenes_amplitude_space_has_dimension_four():
    # the reference null space has dimension 4; the closed form lies in it,
    # on the e4-free blades, at positive, zero and negative mass
    cases = (((0.2, -1.0, 0.0), 1.0), ((0.3, 0.1, -0.2), 0.0), ((0.2, -1.0, 0.0), -0.7))
    for k_spatial, mass in cases:
        k4 = np.array([solve_time_component(k_spatial, 0.0, mass), *k_spatial])
        basis = nullspace(hestenes_oracle(k4, mass))
        assert basis.shape[1] == 4
        amp = solve_hestenes_amplitude(k4, mass)
        present = {int(m) for m in np.nonzero(amp.coeffs)[0]}
        assert present <= set(NO_E4_EVEN_MASKS)
        assert distance_to_span(basis, amp.coeffs[list(NO_E4_EVEN_MASKS)]) < 1e-14


def test_hestenes_plane_wave_is_flat_and_solves_the_reduced_equation(rng):
    field = hestenes_plane_wave_field((0.2, -0.1, 0.4), 1.3)
    for x in sample_points(rng, count=4):
        assert field.partial(4, x) == Multivector.zero()
        assert hestenes_dirac_residual(field, 1.3, x).inf_norm() < 1e-12


# ---------------------------------------------------------------------------
# batch residuals
# ---------------------------------------------------------------------------


def test_batch_residuals_equal_the_point_residuals_bitwise(rng):
    points = rng.uniform(-2.0, 2.0, size=(12, 5))
    for gamma in BOTH_GAMMAS:
        for k4 in (0.0, 0.3):
            wave = build_plane_wave((0.4, -0.2, 0.7), k4, 0.9, gamma)
            field = wave.field()
            batch = dirac5_residuals(field, 0.9, points)
            for n, x in enumerate(points):
                assert batch[n].tobytes() == dirac5_residual(field, 0.9, x).coeffs.tobytes()
            if k4 != 0.0:
                continue
            for half in sector_fields(field):
                batch = hestenes_sample_residuals(half.values(points), half.partials(points), 0.9)
                for n, x in enumerate(points):
                    expected = hestenes_dirac_residual(half, 0.9, x).coeffs
                    assert batch[n].tobytes() == expected.tobytes()


def test_point_residual_is_the_multivector_formula_bitwise(rng):
    # the sums the batch path replaces, written out with multivector products
    field = hestenes_plane_wave_field((0.2, -0.1, 0.4), 1.3)
    gens = [e(CL32, a) for a in range(5)]
    a_val = 0.3 * e(CL32, 0) + 0.1 * e(CL32, 2)
    for x in sample_points(rng, count=4):
        res = 1.3 * (pseudoscalar(CL32) * field.value(x))
        for a in range(5):
            res = res + float(METRIC_SIGNS[a]) * (gens[a] * field.partial(a, x))
        assert dirac5_residual(field, 1.3, x).coeffs.tobytes() == res.coeffs.tobytes()
        for charge in (0.0, 0.5):
            res = -1.3 * (field.value(x) * e(CL32, 0, 1, 2))
            if charge:
                res = res - charge * (a_val * field.value(x) * e(CL32, 1, 2))
            for mu in range(4):
                res = res + float(METRIC_SIGNS[mu]) * (gens[mu] * field.partial(mu, x))
            got = hestenes_dirac_residual(field, 1.3, x, charge, ConstantField(a_val))
            assert got.coeffs.tobytes() == res.coeffs.tobytes()


def test_potential_residual_is_the_multivector_formula_bitwise(rng):
    # the coupled sum as written with multivector products, at nonzero charge
    gens = [e(CL32, a) for a in range(5)]
    field = build_plane_wave((0.3, -0.1, 0.2), 0.2, 1.0, GammaChoice.e12()).field()
    potentials = (
        ConstantField(0.6 * e(CL32, 0) - 0.2 * e(CL32, 4)),
        FiniteDifferenceField(lambda pt: float(pt[1]) * e(CL32, 2) + 0.1 * e(CL32, 0)),
    )
    for x in sample_points(rng, count=3):
        val = field.value(x)
        for potential, gamma, mass, charge in (
            (potentials[0], GammaChoice.e12(), 1.0, 0.25),
            (potentials[1], GammaChoice.e0E(), -0.7, -1.5),
        ):
            a_val = potential.value(x)
            res = mass * (val * pseudoscalar(CL32)) - charge * (
                a_val * val * gamma.as_multivector()
            )
            for a in range(5):
                res = res + float(METRIC_SIGNS[a]) * (gens[a] * field.partial(a, x))
            got = dirac5_potential_residuals(field, mass, charge, potential, gamma, [x])
            assert got[0].tobytes() == res.coeffs.tobytes()


def test_batch_reduction_refuses_a_field_that_varies_at_any_point(rng):
    flat = build_plane_wave((0.2, 0.5, -0.3), 0.0, 1.0, GammaChoice.e12()).field()
    moving = build_plane_wave((0.2, 0.5, -0.3), 0.4, 1.0, GammaChoice.e12()).field()
    points = sample_points(rng, count=3)
    residuals = hestenes_sample_residuals(flat.values(points), flat.partials(points), 1.0)
    assert residuals.shape == (3, CL32.n_blades)
    with pytest.raises(ValueError, match="second time"):
        hestenes_sample_residuals(moving.values(points), moving.partials(points), 1.0)
    with pytest.raises(ValueError, match="second time"):
        hestenes_dirac_residual(moving, 1.0, points[0])


def test_sample_residuals_of_the_split_arrays_equal_the_sector_fields_bitwise(rng):
    # one evaluation split in two gives the residuals of both half fields
    points = sample_points(rng, count=6)
    masses = rng.uniform(0.5, 1.5, size=6)
    for gamma in BOTH_GAMMAS:
        field = build_plane_wave((0.4, -0.2, 0.7), 0.0, 0.9, gamma).field()
        split = zip(
            idempotent_split_coeffs(field.values(points)),
            idempotent_split_coeffs(field.partials(points)),
        )
        for (values, partials), half in zip(split, sector_fields(field)):
            half_values, half_partials = half.values(points), half.partials(points)
            for mass in (0.9, masses):
                got = hestenes_sample_residuals(values, partials, mass)
                expected = hestenes_sample_residuals(half_values, half_partials, mass)
                assert got.tobytes() == expected.tobytes()


def test_the_flatness_gate_refuses_a_moving_wave_and_a_nan_in_d4(rng):
    # the NaN field is finite everywhere but in d4: NaN >= tolerance is
    # False, so the gate must be written as "not below the tolerance"
    moving = build_plane_wave((0.2, 0.5, -0.3), 0.4, 1.0, GammaChoice.e12()).field()
    amp = hestenes_plane_wave_field((0.1, 0.0, 0.0), 1.0).value(np.zeros(5))
    nan_d4 = Multivector.scalar(math.nan)
    nan_field = AnalyticField(
        lambda pt: amp, lambda axis, pt: nan_d4 if axis == 4 else Multivector.zero()
    )
    points = sample_points(rng, count=3)
    assert np.isfinite(nan_field.values(points)).all()
    assert np.isfinite(nan_field.partials(points)[:4]).all()
    for field in (moving, nan_field):
        with pytest.raises(ValueError, match="second time"):
            hestenes_sample_residuals(field.values(points), field.partials(points), 1.0)
        with pytest.raises(ValueError, match="second time"):
            hestenes_dirac_residual(field, 1.0, points[0])


def test_sector_fields_of_an_odd_field_raise(rng):
    odd = ConstantField(e(CL32, 0))
    for half in sector_fields(odd):
        with pytest.raises(ValueError, match="even"):
            half.value(rng.uniform(-1, 1, size=5))
        pts = sample_points(rng, count=2)
        with pytest.raises(ValueError, match="even"):
            hestenes_sample_residuals(half.values(pts), half.partials(pts), 1.0)


@pytest.mark.parametrize(
    "field, point, message",
    [
        (hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0), [math.nan] * 5, "not finite"),
        (ConstantField(e(CL32, 0)), [0.1] * 5, "expects an even multivector"),
    ],
    ids=["nan-point", "odd-field"],
)
def test_a_sector_half_names_non_finite_samples_apart_from_odd_content(field, point, message):
    for half in sector_fields(field):
        with pytest.raises(ValueError, match=message):
            hestenes_dirac_residual(half, 1.0, point)


def test_a_potential_without_charge_is_the_free_residual(rng):
    field = hestenes_plane_wave_field((0.1, 0.0, 0.0), 1.0)
    x = rng.uniform(-0.5, 0.5, size=5)
    with_potential = hestenes_dirac_residual(
        field, 1.0, x, charge=0.0, potential=ConstantField(e(CL32, 0, 1))
    )
    assert with_potential.coeffs.tobytes() == hestenes_dirac_residual(field, 1.0, x).coeffs.tobytes()


def unit_coeffs(mv: Multivector) -> np.ndarray:
    """Coefficients over their Euclidean norm, zeros as +0.0."""
    return mv.coeffs / np.hypot.reduce(mv.coeffs) + 0.0


def test_amplitudes_equal_the_product_formula_bitwise(rng):
    # m c - E K c gamma, with c = e01 under e0E at negative mass, written with
    # multivector products; on shell or not, the gathers give the same bits
    pseudo = pseudoscalar(CL32)
    ks = [rng.uniform(-2, 2, size=5) for _ in range(10)]
    ks += [np.array([1.0, 0.0, 0.0, 0.0, 0.0]), np.array([1.0, -0.0, 0.5, 0.0, -0.25])]
    ks += [np.round(k) for k in ks[:4]]
    # every term of a zero entry is -0.0 at negative mass: the sum must give +0.0
    ks.append(-np.abs(ks[0]))
    for k in ks:
        summed = Multivector.zero()
        for a in range(5):
            summed = summed + float(k[a]) * e(CL32, a)
        assert momentum_vector(k).coeffs.tobytes() == summed.coeffs.tobytes()
        for mass in (1.0, 0.0, -0.7, float(k[0])):
            for gamma in BOTH_GAMMAS:
                flip = gamma.variant == GammaChoice.E0E_VARIANT and mass < 0
                seed = e(CL32, 0, 1) if flip else Multivector.scalar(1.0)
                kc = momentum_vector(k) * seed
                want = unit_coeffs(mass * seed - pseudo * kc * gamma.as_multivector())
                got = plane_wave_amplitudes(k[None], mass, gamma)[0]
                assert got.tobytes() == want.tobytes()


def test_hestenes_amplitudes_equal_the_product_formula_bitwise(rng):
    # K chi e12 + m chi e012, with chi = e3 at negative mass, written with
    # multivector products, and in the reference null space
    e12, e012 = e(CL32, 1, 2), e(CL32, 0, 1, 2)
    for n in range(8):
        k_spatial = rng.uniform(-1, 1, size=3)
        mass = float(rng.uniform(0.2, 1.5)) * (-1) ** n
        k4 = np.array([math.sqrt(float(k_spatial @ k_spatial) + mass * mass), *k_spatial])
        chi = e(CL32, 3) if mass < 0 else e(CL32, 0)
        want = unit_coeffs(momentum_vector([*k4, 0.0]) * chi * e12 + mass * (chi * e012))
        got = solve_hestenes_amplitude(k4, mass)
        assert got.coeffs.tobytes() == want.tobytes()
        basis = nullspace(hestenes_oracle(k4, mass))
        assert basis.shape[1] == 4
        assert distance_to_span(basis, got.coeffs[list(NO_E4_EVEN_MASKS)]) < 1e-14


def test_non_finite_momentum_is_rejected():
    for k, mass in (([math.inf, 0, 0, 0, 0], 1.0), ([1.0, 0, 0, 0, 0], math.nan)):
        for gamma in BOTH_GAMMAS:
            with pytest.raises(ValueError, match="finite"):
                plane_wave_amplitudes([k], mass, gamma)
    with pytest.raises(ValueError, match="finite"):
        solve_hestenes_amplitude([1.0, math.nan, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="overflows"):
        hestenes_plane_wave_field((0.1, 0.0, 0.0), 1e300)
    with pytest.raises(ValueError, match="overflows"):
        build_plane_wave((1e200, 0.0, 0.0), 0.0, 1.0, GammaChoice.e12())


# ---------------------------------------------------------------------------
# plane waves as one batch
# ---------------------------------------------------------------------------


def momentum_grid():
    """Spatial momenta, k4 and masses over a grid, the rest frame included."""
    axis = (-1.0, -0.3, 0.0, 0.45, 1.0)
    k_spatial = np.array([(a, b, c) for a in axis for b in axis for c in axis])
    rows = [(ks, k4, m) for ks in k_spatial for k4, m in ((0.0, 0.5), (0.0, 1.5), (0.3, 1.0))]
    rows += [(np.zeros(3), 0.0, 0.0), (np.array([0.6, 0.0, -0.8]), 0.0, 0.0)]  # massless
    k_spatial, k4, masses = (np.array(col) for col in zip(*rows))
    return k_spatial, k4, masses


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_batch_amplitudes_equal_the_per_wave_ones_bitwise(gamma):
    k_spatial, k4, masses = momentum_grid()
    k, amps = build_plane_waves(k_spatial, k4, masses, gamma)
    assert amps.shape == (len(masses), CL32.n_blades)
    for i, m in enumerate(masses):
        wave = build_plane_wave(k_spatial[i], k4[i], m, gamma)
        assert k[i].tobytes() == wave.k.tobytes()
        assert amps[i].tobytes() == wave.amplitude.coeffs.tobytes()
    # the zero matrix of the massless rest frame: every direction is null,
    # and the amplitude is the scalar 1
    assert amps[-2].tobytes() == Multivector.scalar(1.0).coeffs.tobytes()


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_closed_form_amplitudes_lie_in_the_reference_null_space(gamma):
    # the grid at both signs of the mass, and the rest frame at m > 0, m = 0
    # and m < 0, where a fixed seed could give a zero amplitude
    k_spatial, k4, masses = momentum_grid()
    k_spatial = np.concatenate([k_spatial, k_spatial, np.zeros((3, 3))])
    k4 = np.concatenate([k4, k4, np.zeros(3)])
    masses = np.concatenate([masses, -masses, [1.0, 0.0, -1.0]])
    k, amps = build_plane_waves(k_spatial, k4, masses, gamma)
    evens = list(even_masks(CL32))
    assert not np.delete(amps, evens, axis=1).any()
    pseudo, gmv = pseudoscalar(CL32), gamma.as_multivector()
    for kk, m, amp in zip(k, masses, amps):
        basis = nullspace(constraint_oracle(kk, m, gamma))
        assert basis.shape[1] == (8 if kk.any() or m else 16)
        assert distance_to_span(basis, amp[evens]) < 1e-14
        assert np.hypot.reduce(amp) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        if m and kk[1:].any():
            # negative control: the sign-flipped m + E K gamma misses the
            # constraint (under e0E it is 0 at rest, a trivial solution)
            flipped = unit_coeffs(m + pseudo * momentum_vector(kk) * gmv)
            with pytest.raises(ValueError, match="violates the momentum constraint"):
                wave._require_constraint(kk, flipped, m, gamma)


def test_scalar_demo_carriers_at_zero_and_negative_mass_build(rng):
    # mass + potential is 0 and -1: the rest-frame carriers need the scalar 1
    # fallback and the e3 seed
    for potential, want in ((-1.0, Multivector.scalar(1.0)), (-2.0, e(CL32, 0, 1, 2, 3))):
        demo = ScalarPotentialDemo(1.0, potential)
        assert demo.carrier.value(np.zeros(5)) == want
        for x in sample_points(rng, count=2):
            assert hestenes_dirac_residual(demo.carrier, 1.0 + potential, x).inf_norm() < 1e-15


def test_batch_constraint_residuals_equal_the_product_formula(rng):
    # every row of the batch post-check is the multivector products of that
    # row alone, also for amplitudes that miss the constraint
    pseudo = pseudoscalar(CL32)
    k_spatial, k4, masses = momentum_grid()
    for gamma in BOTH_GAMMAS:
        k, amps = build_plane_waves(k_spatial, k4, masses, gamma)
        amps[::3] += np.where(amps[::3] != 0.0, rng.uniform(-1e-3, 1e-3, amps[::3].shape), 0.0)
        got = constraint_residuals(k, amps, masses, gamma)
        for kk, amp, m, value in zip(k, amps, masses, got):
            amp = Multivector(amp)
            lhs = momentum_vector(kk) * amp * gamma.as_multivector() + float(m) * (pseudo * amp)
            assert value == lhs.inf_norm()
        assert np.max(got[::3]) > 1e-8 and np.max(got[1::3]) < 1e-10


def test_constraint_residuals_of_zero_momenta_are_empty():
    # the post-check is a product of zero-row batches (the coupled residual's
    # zero-row case is in tests/test_api.py)
    for gamma in BOTH_GAMMAS:
        got = constraint_residuals(np.zeros((0, 5)), np.zeros((0, 32)), 1.0, gamma)
        assert got.shape == (0,)


def test_batch_build_runs_the_constraint_check_on_every_row(monkeypatch):
    # a row that misses the constraint fails the whole batch
    from fermion5d import wave

    amplitudes = wave.plane_wave_amplitudes

    def one_bad_row(k, mass, gamma):
        amps = amplitudes(k, mass, gamma)
        amps[-1] *= 1.0 + 1e-6
        amps[-1, 0] += 1e-3
        return amps

    monkeypatch.setattr(wave, "plane_wave_amplitudes", one_bad_row)
    k_spatial = np.array([[0.1, 0.2, 0.3], [0.4, -0.2, 0.0], [-0.5, 0.0, 0.7]])
    with pytest.raises(ValueError, match="violates the momentum constraint"):
        build_plane_waves(k_spatial, 0.0, [1.0, 1.1, 1.2], GammaChoice.e12())


def test_gamma_choice_has_only_the_two_pure_variants():
    for variant in ("superposition", "e13"):
        with pytest.raises(ValueError, match="unknown variant"):
            GammaChoice(variant)


@pytest.mark.parametrize("gamma", BOTH_GAMMAS, ids=lambda g: g.variant)
def test_paired_plane_wave_field_equals_each_wave_at_its_point(rng, gamma):
    # N waves paired with N points: row n is wave n at point n, bit for bit,
    # and so are the halves' Hestenes residuals at each wave's own mass
    k_spatial = rng.uniform(-1, 1, size=(7, 3))
    masses = rng.uniform(0.5, 1.5, size=7)
    pts = sample_points(rng, count=7)
    k, amps = build_plane_waves(k_spatial, 0.0, masses, gamma)
    paired = plane_wave_field(k, amps, gamma)
    values, partials = paired.values(pts), paired.partials(pts)
    halves = [
        hestenes_sample_residuals(h.values(pts), h.partials(pts), masses)
        for h in sector_fields(paired)
    ]
    for n, m in enumerate(masses):
        single = build_plane_wave(k_spatial[n], 0.0, float(m), gamma).field()
        assert values[n].tobytes() == single.values(pts[n : n + 1])[0].tobytes()
        assert partials[:, n].tobytes() == single.partials(pts[n : n + 1])[:, 0].tobytes()
        for half, res in zip(sector_fields(single), halves):
            one_pt = pts[n : n + 1]
            one = hestenes_sample_residuals(half.values(one_pt), half.partials(one_pt), float(m))
            assert res[n].tobytes() == one[0].tobytes()
    with pytest.raises(ValueError):
        paired.values(pts[:3])


def test_hestenes_wave_builds_when_the_squares_underflow():
    # |k|^2 + m^2 underflows to 0; k0 comes from the scaled mass-shell solve
    field = hestenes_plane_wave_field((1e-300, 0.0, 0.0), 1e-300)
    k0 = solve_time_component((1e-300, 0.0, 0.0), 0.0, 1e-300)
    assert k0 == pytest.approx(math.sqrt(2) * 1e-300, rel=1e-15)
    assert np.any(field.values([np.zeros(5)]))
