"""Tests for the batch field protocol: ``values``/``partials``/``samples`` on
point arrays.

Every field class that has the batch methods must give, at row ``n``, the
same bytes as its per-point call at ``points[n]`` (``tobytes()``, so the sign
of a zero counts too).
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from fermion5d.algebra import CL32, e, random_multivector
from fermion5d.beyond import (
    ScalarPotentialDemo,
    derived_minus_field,
    oscillating_source_pair,
    random_minus_wave,
    scalar_potential_residual,
)
from fermion5d.fields import (
    AnalyticField,
    ArrayField,
    ConstantField,
    FiniteDifferenceField,
    PhaseField,
    add_gradient,
    as_points,
)
from fermion5d.spinor import _idempotent_half
from fermion5d.wave import (
    GammaChoice,
    build_plane_wave,
    dirac5_residual,
    hestenes_dirac_residual,
    hestenes_plane_wave_field,
    sector_fields,
)


def assert_batch_matches_points(field, points):
    values = field.values(points)
    partials = field.partials(points)
    assert values.shape == (len(points), CL32.n_blades)
    assert partials.shape == (5, len(points), CL32.n_blades)
    sampled_values, sampled_partials = field.samples(points)
    assert sampled_values.tobytes() == values.tobytes()
    assert sampled_partials.tobytes() == partials.tobytes()
    for n, x in enumerate(points):
        assert values[n].tobytes() == field.value(x).coeffs.tobytes()
        for axis in range(5):
            assert partials[axis, n].tobytes() == field.partial(axis, x).coeffs.tobytes()


def plane_wave_fields():
    waves = [
        build_plane_wave((0.3, -0.7, 0.2), 0.0, 1.1, GammaChoice.e12()),
        build_plane_wave((-0.4, 0.1, 0.9), 0.35, 0.8, GammaChoice.e0E()),
        build_plane_wave((0.0, 0.0, 0.0), 0.0, 1.0, GammaChoice.e0E()),  # rest frame
    ]
    return [w.field() for w in waves]


def test_plane_wave_batch_matches_the_point_calls(rng):
    points = rng.uniform(-3.0, 3.0, size=(40, 5))
    for field in plane_wave_fields():
        assert isinstance(field, PhaseField)
        assert_batch_matches_points(field, points)


def package_fields(rng):
    """Every kind of field the package builds."""
    fields = [
        hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0),
        PhaseField(*random_minus_wave(rng)),
    ]
    for wave in plane_wave_fields():
        fields += [wave, *sector_fields(wave)]
    fields += oscillating_source_pair()
    for s in (0.1, -0.25, 0.0):
        demo = ScalarPotentialDemo(1.0, s, k_spatial=(0.2, -0.15, 0.1))
        fields += [demo.xi_plus, demo.derived_minus(), demo.curvature]
    fields.append(derived_minus_field(fields[-3], 1.0, step=0.01))
    return fields


def test_package_fields_batch_matches_the_point_calls(rng):
    points = rng.uniform(-1.0, 1.0, size=(7, 5))
    for field in package_fields(rng):
        assert_batch_matches_points(field, points)


def callable_fields(rng):
    """The fields that wrap user-supplied per-point callables."""
    amp = random_multivector(rng, CL32, even=True)
    freq = rng.uniform(-1, 1, size=5)

    def value(pt):
        return math.cos(float(freq @ pt)) * amp

    def partial(axis, pt):
        return float(-math.sin(float(freq @ pt)) * freq[axis]) * amp

    return [
        AnalyticField(value, partial),
        FiniteDifferenceField(value),
        ConstantField(e(CL32, 0, 1)),
    ]


def test_package_fields_never_loop_over_the_points(rng, monkeypatch):
    # with the per-point methods refusing, a batch call that goes through
    # them raises; the callable wrappers loop over their callables only
    fields = package_fields(rng) + callable_fields(rng)

    def refuse(*args):
        raise AssertionError("a batch call evaluated point by point")

    for cls in {type(field) for field in fields}:
        monkeypatch.setattr(cls, "value", refuse)
        monkeypatch.setattr(cls, "partial", refuse)
    points = rng.uniform(-1.0, 1.0, size=(3, 5))
    for field in fields:
        assert field.values(points).shape == (3, CL32.n_blades)
        assert field.partials(points).shape == (5, 3, CL32.n_blades)
        values, partials = field.samples(points)
        assert (values.shape, partials.shape) == ((3, CL32.n_blades), (5, 3, CL32.n_blades))


def test_sector_field_batch_matches_the_point_calls(rng):
    points = rng.uniform(-3.0, 3.0, size=(25, 5))
    for field in plane_wave_fields():
        for half in sector_fields(field):
            assert_batch_matches_points(half, points)


def test_fallback_fields_batch_matches_the_point_calls(rng):
    points = rng.uniform(-1.0, 1.0, size=(6, 5))
    for field in callable_fields(rng):
        assert_batch_matches_points(field, points)


def counted(fn, calls):
    def counting(*args):
        calls.append(args)
        return fn(*args)

    return counting


def test_point_calls_evaluate_the_callables_as_often_as_before(rng):
    amp = random_multivector(rng, CL32, even=True)
    x = rng.uniform(-1.0, 1.0, size=5)
    points = rng.uniform(-1.0, 1.0, size=(4, 5))

    def value(pt):
        return float(pt[0]) * amp

    def partial(axis, pt):
        return float(axis == 0) * amp

    values, partials = [], []
    analytic = AnalyticField(counted(value, values), counted(partial, partials))
    analytic.partial(3, x)
    assert (len(values), len(partials)) == (0, 1)
    analytic.values(points)
    assert (len(values), len(partials)) == (len(points), 1)

    values = []
    differenced = FiniteDifferenceField(counted(value, values))
    differenced.partial(2, x)
    assert len(values) == 2
    differenced.values(points)
    assert len(values) == 2 + len(points)

    # the minus half's values function evaluates the plus half's partials once
    partials = []
    plus = hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0)
    plus.partials = counted(plus.partials, partials)
    derived_minus_field(plus, 1.0, step=0.01).partial(1, x)
    assert len(partials) == 2


def test_empty_point_arrays_give_empty_batches():
    field = plane_wave_fields()[0]
    empty = np.zeros((0, 5))
    assert field.values(empty).shape == (0, CL32.n_blades)
    assert field.partials(empty).shape == (5, 0, CL32.n_blades)
    assert ConstantField(e(CL32, 1)).values(empty).shape == (0, CL32.n_blades)


def test_point_arrays_must_have_five_columns():
    with pytest.raises(ValueError, match=r"\(N, 5\)"):
        as_points(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        as_points(np.zeros(5))
    with pytest.raises(ValueError):
        plane_wave_fields()[0].values(np.zeros((2, 3)))


def test_phase_field_rejects_a_bad_axis(rng):
    wave = plane_wave_fields()[0]
    analytic, differenced, _ = callable_fields(rng)
    x = rng.uniform(-1, 1, size=5)
    for field in (wave, sector_fields(wave)[0], analytic, differenced):
        for axis in (5, -1, 2.0, True, False, np.bool_(True), np.float64(1.0), "1", None):
            with pytest.raises(ValueError, match=r"axis must be 0\.\.4"):
                field.partial(axis, x)
        # numpy integers are axes too, and give the bytes of the plain int
        for axis in (np.int64(2), np.int32(4), np.uint8(0)):
            expected = field.partial(int(axis), x).coeffs
            assert field.partial(axis, x).coeffs.tobytes() == expected.tobytes()


def test_point_residuals_evaluate_each_phase_once(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(PhaseField, "_cos_sin", counted(PhaseField._cos_sin, calls))

    def phase_evaluations(call) -> int:
        """How often ``call()`` evaluates the cos/sin of a :class:`PhaseField`."""
        calls.clear()
        call()
        return len(calls)

    profiles = []
    monkeypatch.setattr(
        ScalarPotentialDemo, "profile", counted(ScalarPotentialDemo.profile, profiles)
    )
    x = rng.uniform(-1.0, 1.0, size=5)
    moving = plane_wave_fields()[1]
    flat = hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0)
    demo = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.2, -0.15, 0.1))
    assert phase_evaluations(lambda: dirac5_residual(moving, 0.8, x)) == 1
    for half in sector_fields(flat):
        assert phase_evaluations(lambda: hestenes_dirac_residual(half, 1.0, x)) == 1
    # one carrier evaluation for the plus half, its partials and its curvature,
    # and the profile once at each order the residuals read: f and f''
    profiles.clear()
    assert phase_evaluations(lambda: scalar_potential_residual(demo, x)) == 1
    assert sorted(order for _, _, order in profiles) == [0, 2]


def test_a_sector_half_computes_only_its_own_half(rng, monkeypatch):
    halves = []
    monkeypatch.setattr("fermion5d.wave._idempotent_half", counted(_idempotent_half, halves))
    x = rng.uniform(-1.0, 1.0, size=5)
    for h, half in enumerate(sector_fields(hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0))):
        halves.clear()
        hestenes_dirac_residual(half, 1.0, x)
        # one call on the base field's jet (values and partials), of this half
        assert [(args[0].shape, args[1]) for args in halves] == [((6, 1, CL32.n_blades), h)]


class GatherCountingArray(np.ndarray):
    """An array that records every gather read from it or from its views:
    a ``take`` or an index with an integer array in it."""

    gathers: list = []

    def take(self, *args, **kwargs):
        self.gathers.append(args)
        return super().take(*args, **kwargs)

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, np.ndarray) for k in keys):
            self.gathers.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("axes", [range(5), range(4), (4,)])
def test_add_gradient_gathers_once_per_call(rng, axes):
    partials = rng.uniform(-1.0, 1.0, size=(5, 3, CL32.n_blades)).view(GatherCountingArray)
    GatherCountingArray.gathers = []
    got = add_gradient(np.zeros((3, CL32.n_blades)), partials, axes)
    assert len(GatherCountingArray.gathers) == 1
    expected = add_gradient(np.zeros((3, CL32.n_blades)), np.asarray(partials), axes)
    assert np.asarray(got).tobytes() == expected.tobytes()


class CountingJetField(ArrayField):
    """A field whose jet records the gathers read from it."""

    def __init__(self, base: ArrayField):
        self.base = base

    def values(self, points):
        return self.base.values(points)

    def partials(self, points):
        return self.base.partials(points)

    def _jet(self, points):
        return self.base._jet(points).view(GatherCountingArray)


@pytest.mark.parametrize("residual", [dirac5_residual, hestenes_dirac_residual])
def test_a_point_residual_gathers_once_for_the_equation_sum(rng, residual):
    field = CountingJetField(hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0))
    x = rng.uniform(-1.0, 1.0, size=5)
    GatherCountingArray.gathers = []
    got = residual(field, 1.0, x)
    assert len(GatherCountingArray.gathers) == 1
    assert got.coeffs.tobytes() == residual(field.base, 1.0, x).coeffs.tobytes()
