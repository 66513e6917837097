"""Tests for the second-time demos: scalar potential, flatness, source current."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fermion5d import wave
from fermion5d.algebra import CL32, Multivector, e
from fermion5d.beyond import (
    CURRENT_MASKS,
    DEMO_GRID_POINTS,
    DEMO_GRID_SPACING,
    GradeStructureError,
    MINUS_CONSTANCY_BOUND,
    SECOND_TIME_EVEN_MASKS,
    ScalarPotentialDemo,
    SourceCurrent,
    demo_grid,
    derived_minus_field,
    minus_constancy_ratio,
    oscillating_source_pair,
    pair_residuals,
    random_minus_wave,
    scalar_potential_residual,
    scalar_potential_residuals,
    second_time_gradients,
    source_current,
    sourced_massless_residual,
    sourced_massless_residuals,
    spacetime_gradients,
)
from fermion5d.fields import (
    METRIC_SIGNS,
    AnalyticField,
    ConstantField,
    FiniteDifferenceField,
    PhaseField,
    add_gradient,
)
from fermion5d.fields import _gradient_gather
from fermion5d.spinor import cylinder_check
from fermion5d.wave import GammaChoice, build_plane_wave, hestenes_plane_wave_field, sector_fields

E012 = e(CL32, 0, 1, 2)


def sample_points(rng, count=5, scale=0.5):
    return rng.uniform(-scale, scale, size=(count, 5))


def nan_except_at(field, point):
    """``field`` with NaN values and partials everywhere but at ``point``.

    The first sample stays finite, so a reduction that drops NaN (Python's
    ``max(0.0, nan)`` is 0.0) would read the field as finite.
    """

    def poison(mv, pt):
        return mv if np.array_equal(pt, point) else mv * math.nan

    return AnalyticField(
        lambda pt: poison(field.value(pt), pt),
        lambda axis, pt: poison(field.partial(axis, pt), pt),
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradients_on_linear_fields():
    blade = e(CL32, 0, 1)

    def coordinate_field(axis):
        def value(pt):
            return float(pt[axis]) * blade

        def partial(a, pt):
            return blade if a == axis else Multivector.zero()

        return AnalyticField(value, partial)

    x = np.zeros((1, 5))
    # raised index flips the sign on the two time axes
    for gradients, axis, expected in (
        (spacetime_gradients, 0, -(e(CL32, 0) * blade)),
        (spacetime_gradients, 2, e(CL32, 2) * blade),
        (spacetime_gradients, 4, Multivector.zero()),
        (second_time_gradients, 4, -(e(CL32, 4) * blade)),
        (second_time_gradients, 0, Multivector.zero()),
    ):
        assert np.array_equal(gradients(coordinate_field(axis), x), [expected.coeffs])


GENERATORS = [e(CL32, a) for a in range(5)]


def oracle_gradient(start, partial, axes):
    """``start + sum_a g_aa (e_a * partial(a))``, added in the order of ``axes``."""
    total = start
    for a in axes:
        total = total + float(METRIC_SIGNS[a]) * (GENERATORS[a] * partial(a))
    return total


def oracle_spacetime_gradient(field, x):
    return oracle_gradient(Multivector.zero(CL32), lambda mu: field.partial(mu, x), range(4))


def oracle_second_time_gradient(field, x):
    return float(METRIC_SIGNS[4]) * (GENERATORS[4] * field.partial(4, x))


def oracle_fields(rng):
    wave = build_plane_wave((0.3, -0.2, 0.1), 0.4, 0.9, GammaChoice.e0E()).field()
    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.2, -0.15, 0.1))
    return [
        PhaseField(*random_minus_wave(rng)),
        *oscillating_source_pair(),
        demo.xi_plus,
        demo.derived_minus(),
        wave,
        *sector_fields(wave),
    ]


def test_gradients_and_pair_residual_are_the_multivector_sums_bitwise(rng):
    # the sums the shared gradient helper replaces, written out with products
    fields = oracle_fields(rng)
    pts = sample_points(rng, count=3)
    for field in fields:
        spacetime, second_time = spacetime_gradients(field, pts), second_time_gradients(field, pts)
        for n, x in enumerate(pts):
            assert spacetime[n].tobytes() == oracle_spacetime_gradient(field, x).coeffs.tobytes()
            expected = oracle_second_time_gradient(field, x).coeffs
            assert second_time[n].tobytes() == expected.tobytes()
    for lead in fields:
        for trail in fields:
            for mass in (0.0, 0.7):
                got = pair_residuals(lead, trail, mass, pts)
                for n, x in enumerate(pts):
                    expected = (
                        oracle_second_time_gradient(lead, x)
                        + oracle_spacetime_gradient(trail, x)
                        - mass * (trail.value(x) * E012)
                    )
                    assert got[n].tobytes() == expected.coeffs.tobytes()


@pytest.mark.parametrize("axes", [range(5), range(4), (4,), (1, 2, 3)])
@pytest.mark.parametrize("start", [0.0, -0.0])
def test_add_gradient_is_the_multivector_sum_on_signed_zeros(rng, axes, start):
    # every term and the running sum hit zeros of both signs; subtracting a
    # lowered axis's term must keep the bits of adding it times g_aa = -1
    partials = rng.choice([0.0, -0.0, 1.5, -0.75], size=(5, 16, CL32.n_blades))
    got = add_gradient(np.full((16, CL32.n_blades), start), partials, axes)
    for n, row in enumerate(got):
        begin = Multivector(np.full(CL32.n_blades, start))
        expected = oracle_gradient(begin, lambda a: Multivector(partials[a, n]), axes)
        assert row.tobytes() == expected.coeffs.tobytes()


@pytest.mark.parametrize("axes", [(0, 2), ()])
def test_add_gradient_on_axes_no_equation_uses_is_the_multivector_sum(rng, axes):
    partials = rng.choice([0.0, -0.0, 1.5, -0.75], size=(5, 16, CL32.n_blades))
    for start in (0.0, -0.0):
        got = add_gradient(np.full((16, CL32.n_blades), start), partials, axes)
        for n, row in enumerate(got):
            begin = Multivector(np.full(CL32.n_blades, start))
            expected = oracle_gradient(begin, lambda a: Multivector(partials[a, n]), axes)
            assert row.tobytes() == expected.coeffs.tobytes()


def test_the_gradient_gathers_are_built_once_and_read_only():
    # the two equation forms are the memoised tables with their mass operator
    assert _gradient_gather((0, 1, 2, 3, 4), wave._LEFT_PSEUDO) is wave._FIVE_D
    assert _gradient_gather((0, 1, 2, 3), wave._RIGHT_E012) is wave._FOUR_D
    for axes in [(0, 2), (), (4,), (0, 1, 2, 3)]:
        tables = _gradient_gather(axes)
        assert _gradient_gather(axes) is tables
        for table in tables[:3] + wave._FIVE_D[:3] + wave._FOUR_D[:3]:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


def assert_rows_are_the_point_calls(batch, point_fn, points):
    for n, x in enumerate(points):
        assert batch[n].tobytes() == point_fn(x).coeffs.tobytes()


def test_each_residual_is_its_batch_form_on_one_point(rng):
    pts = sample_points(rng, count=4)
    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.2, -0.15, 0.1))
    xi_plus, xi_minus = oscillating_source_pair()
    current = SourceCurrent(xi_minus)
    for form in (0, 1):
        assert_rows_are_the_point_calls(
            scalar_potential_residuals(demo, pts)[form],
            lambda x: scalar_potential_residual(demo, x)[form],
            pts,
        )
    assert_rows_are_the_point_calls(
        sourced_massless_residuals(xi_plus, current, pts),
        lambda x: sourced_massless_residual(xi_plus, current, x),
        pts,
    )
    assert_rows_are_the_point_calls(current.values(pts), current.value, pts)


def test_grade_structure_error_is_the_batch_error_on_one_point(rng):
    # d4 of this "minus" field lands on e12 for x0 < 0 and on e13 elsewhere
    def partial(axis, pt):
        if axis != 4:
            return Multivector.zero()
        return e(CL32, 1, 2) if pt[0] < 0 else e(CL32, 1, 3)

    bogus = SourceCurrent(AnalyticField(lambda pt: pt[4] * partial(4, pt), partial))
    pts = np.array([[-0.5, 0, 0, 0, 0], [0.5, 0, 0, 0, 0]], dtype=float)
    for x, blades in zip(pts, (("e124",), ("e134",))):
        for evaluate in (bogus.value, lambda x: bogus.values([x])):
            with pytest.raises(GradeStructureError) as err:
                evaluate(x)
            assert err.value.blades == blades
    with pytest.raises(GradeStructureError) as err:
        bogus.values(pts)
    assert err.value.blades == ("e124", "e134")  # every row's, ascending


# ---------------------------------------------------------------------------
# induced scalar potential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.01, 0.1, 1.0])
def test_scalar_demo_solves_both_reduced_forms(rng, s):
    demo = ScalarPotentialDemo(1.0, s, k_spatial=(0.2, -0.15, 0.1))
    pts = sample_points(rng)
    for x in pts:
        second_form, potential_form = scalar_potential_residual(demo, x)
        assert second_form.inf_norm() < 1e-9
        assert potential_form.inf_norm() < 1e-9
        assert (second_form - potential_form).inf_norm() < 1e-9
    assert np.all(demo.eigen_residuals(pts) < 1e-9)


def test_scalar_demo_supports_an_oscillatory_regime(rng):
    # negative potential strength turns the profile trigonometric
    demo = ScalarPotentialDemo(1.0, -0.25)
    for w in (-0.7, 0.0, 1.3):
        assert demo.profile(w, 2) == pytest.approx(-0.25 * demo.profile(w, 0), abs=1e-15)
    pts = sample_points(rng, count=3)
    assert np.all(demo.eigen_residuals(pts) < 1e-12)
    for x in pts:
        second_form, potential_form = scalar_potential_residual(demo, x)
        assert second_form.inf_norm() < 1e-12
        assert potential_form.inf_norm() < 1e-12


def test_scalar_demo_at_zero_strength_is_flat(rng):
    demo = ScalarPotentialDemo(1.0, 0.0)
    pts = sample_points(rng, count=4)
    assert cylinder_check(demo.xi_plus, pts, tolerance=1e-14)
    assert demo.profile(0.3, 0) == 1.0 and demo.profile(0.3, 1) == 0.0


def test_scalar_demo_requires_positive_mass():
    for mass in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="requires a positive mass"):
            ScalarPotentialDemo(mass, 0.1)
    # an infinite mass used to pass as a rate that "overflows", even at
    # potential 0 where the rate is sqrt(inf * 0) = NaN
    for potential in (0.0, 0.1):
        with pytest.raises(ValueError, match="the mass must be finite"):
            ScalarPotentialDemo(math.inf, potential)


def test_scalar_demo_requires_a_finite_potential():
    # a NaN strength used to pass as a rate that "overflows"
    for potential in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="potential strength must be finite"):
            ScalarPotentialDemo(1.0, potential)


def test_profile_derivative_order_validation():
    demo = ScalarPotentialDemo(1.0, 0.1)
    with pytest.raises(ValueError):
        demo.profile(0.0, -1)


def test_derived_minus_lives_on_the_second_time_blades(rng):
    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.1, 0.2, -0.3))
    ximinus = demo.derived_minus()
    for x in sample_points(rng, count=4):
        present = {int(m) for m in np.nonzero(ximinus.value(x).coeffs)[0]}
        assert present <= set(SECOND_TIME_EVEN_MASKS)


def test_derived_minus_reconstructs_the_second_time_gradient(rng):
    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.1, 0.2, -0.3))
    ximinus = demo.derived_minus()
    pts = sample_points(rng, count=4)
    right = [(ximinus.value(x) * E012).coeffs for x in pts]
    assert np.abs(second_time_gradients(demo.xi_plus, pts) - right).max() < 1e-12


def test_pair_equation_round_trip(rng):
    # substituting the derived minus half back gives exactly the reduced form
    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.1, 0.2, -0.3))
    ximinus = demo.derived_minus()
    pts = sample_points(rng, count=4)
    lower = pair_residuals(ximinus, demo.xi_plus, 1.0, pts)
    second_form, _ = scalar_potential_residuals(demo, pts)
    assert np.abs(lower - second_form).max() < 1e-12
    assert np.abs(lower).max() < 1e-9


def test_finite_difference_minus_matches_the_analytic_one(rng):
    demo = ScalarPotentialDemo(1.0, 0.1)
    analytic = demo.derived_minus()
    numeric = derived_minus_field(demo.xi_plus, 1.0, step=0.01)
    for x in sample_points(rng, count=3):
        assert (analytic.value(x) - numeric.value(x)).inf_norm() < 1e-14
        for axis in range(5):
            delta = analytic.partial(axis, x) - numeric.partial(axis, x)
            assert delta.inf_norm() < 1e-4  # central differences, O(step^2)


def test_finite_difference_partial_differences_only_its_axis(rng, monkeypatch):
    # one axis is two evaluations of the plus half's gradient, not ten
    from fermion5d import beyond

    demo = ScalarPotentialDemo(1.0, 0.1)
    numeric = derived_minus_field(demo.xi_plus, 1.0, step=0.01)
    x = sample_points(rng, count=1)[0]
    every_axis = numeric.partials([x])
    gradients, calls = beyond.second_time_gradients, []

    def counting(field, points):
        calls.append(len(points))
        return gradients(field, points)

    monkeypatch.setattr(beyond, "second_time_gradients", counting)
    for axis in range(5):
        calls.clear()
        assert numeric.partial(axis, x).coeffs.tobytes() == every_axis[axis, 0].tobytes()
        assert calls == [1, 1]
    with pytest.raises(ValueError, match="axis"):
        numeric.partial(5, x)


def test_scalar_demo_builds_when_the_squares_underflow():
    # k0 = sqrt(|k|^2 + m^2) computed directly is 0 here and has no amplitude
    demo = ScalarPotentialDemo(1e-300, 0.0, k_spatial=(1e-300, 0.0, 0.0))
    assert np.any(demo.carrier.values([np.zeros(5)]))


def test_finite_difference_minus_requires_mass():
    with pytest.raises(ValueError, match="non-zero mass"):
        derived_minus_field(ConstantField(e(CL32, 0, 1)), 0.0)


def test_minus_constancy_ratio_cases(rng):
    pts = sample_points(rng, count=4)
    assert minus_constancy_ratio(ConstantField(e(CL32, 0, 4)), pts) == 0.0
    flat_but_varying = hestenes_plane_wave_field((0.3, 0.0, 0.0), 1.0)
    assert minus_constancy_ratio(flat_but_varying, pts) == math.inf
    _, xi_minus = oscillating_source_pair()
    assert minus_constancy_ratio(xi_minus, pts) == 0.0
    random_minus = PhaseField(*random_minus_wave(rng))
    assert minus_constancy_ratio(random_minus, pts) > MINUS_CONSTANCY_BOUND
    # NaN partials past the first sample do not read as a constant minus half
    assert minus_constancy_ratio(nan_except_at(xi_minus, pts[0]), pts) == math.inf
    with pytest.raises(ValueError):
        minus_constancy_ratio(ConstantField(e(CL32, 0, 4)), [])


# ---------------------------------------------------------------------------
# massless consistency
# ---------------------------------------------------------------------------


def test_massless_consistency_detects_flatness(rng):
    # at zero mass a frozen minus half forces e4 d^4 xi_plus = 0; e4 d^4 is a
    # signed permutation of d4, so the flatness check on xi_plus decides it
    pts = sample_points(rng, count=4)
    flat = hestenes_plane_wave_field((0.2, 0.1, 0.0), 1.0)
    assert cylinder_check(flat, pts, 1e-10)
    xi_plus, _ = oscillating_source_pair()
    assert not cylinder_check(xi_plus, pts, 1e-10)
    # a NaN d4 past the first sample is not flat
    assert not cylinder_check(nan_except_at(flat, pts[0]), pts, 1e-10)
    for field in (flat, xi_plus):
        rows = second_time_gradients(field, pts)
        for x, row in zip(pts, rows):
            assert np.abs(row).max() == field.partial(4, x).inf_norm()
    with pytest.raises(ValueError):
        cylinder_check(xi_plus, [], 1e-10)


# ---------------------------------------------------------------------------
# source current
# ---------------------------------------------------------------------------


def test_current_masks_are_grades_one_and_three_without_the_second_time():
    for mask in CURRENT_MASKS:
        assert bin(mask).count("1") in (1, 3)
        assert not mask & 0b10000
    # four grade-1 blades (e0..e3) and four grade-3 blades (their complements)
    assert len(CURRENT_MASKS) == 8


def test_random_minus_fields_induce_structurally_clean_currents(rng):
    worst = 0.0
    forbidden = [m for m in range(32) if m not in CURRENT_MASKS]
    for _ in range(20):
        field = PhaseField(*random_minus_wave(rng))
        current = SourceCurrent(field)
        for x in sample_points(rng, count=2, scale=1.0):
            value = current.value(x)
            worst = max(worst, float(np.abs(value.coeffs[forbidden]).max()))
    assert worst == 0.0


def test_random_minus_field_stays_on_its_masks(rng):
    field = PhaseField(*random_minus_wave(rng))
    for x in sample_points(rng, count=3):
        present = {int(m) for m in np.nonzero(field.value(x).coeffs)[0]}
        assert present <= set(SECOND_TIME_EVEN_MASKS)
        for axis in range(5):
            d = field.partial(axis, x)
            present = {int(m) for m in np.nonzero(d.coeffs)[0]}
            assert present <= set(SECOND_TIME_EVEN_MASKS)


def test_grade_structure_error_names_the_offenders():
    # a field outside the minus support induces forbidden blades
    def value(pt):
        return math.cos(pt[4]) * e(CL32, 1, 2)

    def partial(axis, pt):
        if axis == 4:
            return -math.sin(pt[4]) * e(CL32, 1, 2)
        return Multivector.zero()

    bogus = SourceCurrent(AnalyticField(value, partial))
    with pytest.raises(GradeStructureError) as err:
        bogus.value(np.full(5, 0.3))
    assert "e124" in err.value.blades
    assert "e124" in str(err.value)


def test_oscillating_pair_satisfies_the_sourced_equation(rng):
    xi_plus, xi_minus = oscillating_source_pair()
    current = SourceCurrent(xi_minus)
    pts = sample_points(rng, count=6, scale=1.0)
    for x in pts:
        # the induced current is the hand value -(cos(x4)/4pi) e0, exactly
        expected = Multivector.blade(1, CL32, -math.cos(x[4]) / (4.0 * math.pi))
        assert current.value(x) == expected
        assert sourced_massless_residual(xi_plus, current, x).inf_norm() < 1e-14
    # and the pair solves the lower-sign equation at zero mass
    assert np.abs(pair_residuals(xi_minus, xi_plus, 0.0, pts)).max() < 1e-14


def test_vector_part_and_divergence_of_the_oscillating_pair(rng):
    _, xi_minus = oscillating_source_pair()
    current = SourceCurrent(xi_minus)
    pts = sample_points(rng, count=4, scale=1.0)
    vectors = current.values(pts)[:, [1 << a for a in range(4)]]
    for x, vec in zip(pts, vectors):
        assert vec[0] == -math.cos(x[4]) / (4.0 * math.pi)
        assert np.all(vec[1:] == 0.0)
    # spatially constant minus half: the divergence vanishes identically
    assert np.all(current.divergences(pts) == 0.0)
    with pytest.raises(ValueError):
        current.divergences(np.zeros((1, 5)), step=0.0)


def test_divergence_converges_at_second_order():
    # minus half x4*sin(x1) e1e4 induces J = -(sin(x1)/4pi) e1 with an exact
    # divergence -cos(x1)/4pi; central differences must approach it as h^2
    e14 = e(CL32, 1, 4)

    def value(pt):
        return (pt[4] * math.sin(pt[1])) * e14

    def partial(axis, pt):
        if axis == 1:
            return (pt[4] * math.cos(pt[1])) * e14
        if axis == 4:
            return math.sin(pt[1]) * e14
        return Multivector.zero()

    current = SourceCurrent(AnalyticField(value, partial))
    x = np.array([0.1, 0.4, -0.2, 0.3, 0.7])
    exact = -math.cos(x[1]) / (4.0 * math.pi)
    errors = [abs(current.divergences([x], step=h)[0] - exact) for h in (0.1, 0.05)]
    assert errors[1] < errors[0] / 3.0  # better than half of the h^2 factor 4
    assert errors[1] < 1e-4


def test_divergence_is_the_central_difference_loop_bitwise(rng):
    # the per-slot loop that the finite-difference field replaces
    def oracle(current, x, step):
        total = 0.0
        for mu in range(4):
            fwd, bwd = x.copy(), x.copy()
            fwd[mu] += step
            bwd[mu] -= step
            total += (
                current.value(fwd).coeffs[1 << mu] - current.value(bwd).coeffs[1 << mu]
            ) / (2.0 * step)
        return float(total)

    minus_halves = [PhaseField(*random_minus_wave(rng)), oscillating_source_pair()[1]]
    pts = sample_points(rng, count=3, scale=1.0)
    for xi_minus in minus_halves:
        current = SourceCurrent(xi_minus)
        for step in (DEMO_GRID_SPACING, 1e-3, 0.3):
            divergences = current.divergences(pts, step)
            for x, got in zip(pts, divergences):
                assert got.tobytes() == np.float64(oracle(current, x, step)).tobytes()
    for step in (0.0, -0.1):
        with pytest.raises(ValueError, match="finite-difference step must be positive"):
            SourceCurrent(minus_halves[0]).divergences(np.zeros((1, 5)), step=step)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1.0])
def test_finite_difference_steps_must_be_positive_and_finite(step):
    # a NaN or infinite step would difference NaN rows, not raise
    xi_plus, xi_minus = oscillating_source_pair()
    with pytest.raises(ValueError, match="finite-difference step must be positive and finite"):
        SourceCurrent(xi_minus).divergences(np.zeros((2, 5)), step=step)
    with pytest.raises(ValueError, match="finite-difference step must be positive and finite"):
        FiniteDifferenceField(xi_plus.value, step=step)
    with pytest.raises(ValueError, match="finite-difference step must be positive and finite"):
        derived_minus_field(xi_plus, 1.0, step=step)


def test_source_current_factory_verifies_pairs(rng):
    xi_plus, xi_minus = oscillating_source_pair()
    pts = sample_points(rng, count=4, scale=1.0)
    current = source_current(xi_minus, xi_plus, pts)
    assert isinstance(current, SourceCurrent)
    # a mismatched plus half is rejected
    with pytest.raises(ValueError, match="sourced zero-mass"):
        source_current(xi_minus, ConstantField(Multivector.zero()), pts)
    # so is one whose residual is NaN past the first sample
    with pytest.raises(ValueError, match="sourced zero-mass"):
        source_current(xi_minus, nan_except_at(xi_plus, pts[0]), pts)


def test_flat_minus_half_induces_no_current(rng):
    current = SourceCurrent(ConstantField(e(CL32, 0, 4)))
    for x in sample_points(rng, count=3):
        assert current.value(x) == Multivector.zero()


# ---------------------------------------------------------------------------
# demo grid
# ---------------------------------------------------------------------------


def test_demo_grid_shape_and_spacing():
    grid = demo_grid()
    assert grid.shape == (DEMO_GRID_POINTS**5, 5)
    axis_values = np.unique(grid[:, 0])
    assert len(axis_values) == DEMO_GRID_POINTS
    steps = np.diff(axis_values)
    assert np.allclose(steps, DEMO_GRID_SPACING, atol=1e-12, rtol=0.0)
    assert np.allclose(grid.mean(axis=0), 0.0, atol=1e-12)
