"""Tests for the second-time split and the idempotent pair transform."""
from __future__ import annotations

import numpy as np
import pytest

from fermion5d.algebra import CL32, Multivector, e, even_masks, random_multivector, tables
from fermion5d.fields import AnalyticField, ConstantField
from fermion5d.spinor import (
    SplitPair,
    cylinder_check,
    idempotent_split,
    idempotent_split_coeffs,
    pm_split,
    pm_split_coeffs,
)
from fermion5d.wave import (
    NO_E4_EVEN_MASKS,
    build_plane_wave,
    hestenes_plane_wave_field,
    sector_fields,
)
from fermion5d.wave import GammaChoice

E4_BIT = 1 << 4
SECOND_TIME_MASKS = tuple(m for m in range(32) if m & E4_BIT)


def masks_present(mv: Multivector) -> set[int]:
    return {int(m) for m in np.nonzero(mv.coeffs)[0]}


# ---------------------------------------------------------------------------
# the plus/minus sandwich split
# ---------------------------------------------------------------------------


def test_pm_split_partitions_coefficients_exactly(rng):
    for _ in range(20):
        x = random_multivector(rng, CL32)
        plus, minus = pm_split(x)
        assert plus + minus == x
        # each coefficient lands wholly in one part
        assert np.all((plus.coeffs == 0.0) | (minus.coeffs == 0.0))


def test_pm_split_on_even_input_sorts_by_second_time_content(rng):
    x = random_multivector(rng, CL32, even=True)
    plus, minus = pm_split(x)
    assert all(not m & E4_BIT for m in masks_present(plus))
    assert all(m & E4_BIT for m in masks_present(minus))


def test_pm_split_is_a_projection_pair(rng):
    x = random_multivector(rng, CL32)
    plus, minus = pm_split(x)
    again_plus = pm_split(plus)
    again_minus = pm_split(minus)
    assert again_plus.plus == plus and again_plus.minus == Multivector.zero()
    assert again_minus.minus == minus and again_minus.plus == Multivector.zero()


def test_pm_split_requires_cl32():
    from fermion5d.algebra import CL31

    with pytest.raises(ValueError):
        pm_split(Multivector.scalar(1.0, CL31))


def test_spacetime_generators_swap_the_parts_second_time_keeps_them(rng):
    x = random_multivector(rng, CL32, even=True)
    plus, minus = pm_split(x)
    for mu in range(4):
        shifted = pm_split(e(CL32, mu) * x)
        assert shifted.plus == e(CL32, mu) * minus
        assert shifted.minus == e(CL32, mu) * plus
    kept = pm_split(e(CL32, 4) * x)
    assert kept.plus == e(CL32, 4) * plus
    assert kept.minus == e(CL32, 4) * minus


# ---------------------------------------------------------------------------
# the idempotent transform
# ---------------------------------------------------------------------------


def test_idempotent_e34_is_idempotent():
    p = (Multivector.scalar(1.0) - e(CL32, 3, 4)) / 2
    assert p * p == p
    complement = Multivector.scalar(1.0) - p
    assert complement * complement == complement
    assert p * complement == Multivector.zero()


def test_idempotent_split_halves_lock_together(rng):
    e34 = e(CL32, 3, 4)
    for _ in range(20):
        x = random_multivector(rng, CL32, even=True)
        pair = idempotent_split(x)
        assert pair.minus == -(pair.plus * e34)
        assert pair.plus == -(pair.minus * e34)


def test_idempotent_split_reconstructs_the_projected_input(rng):
    e34 = e(CL32, 3, 4)
    x = random_multivector(rng, CL32, even=True)
    pair = idempotent_split(x)
    assert pair.plus + pair.minus == x * (Multivector.scalar(1.0) - e34)


def test_idempotent_split_halves_live_on_eight_blades_each(rng):
    x = random_multivector(rng, CL32, even=True)
    pair = idempotent_split(x)
    assert masks_present(pair.plus) <= set(NO_E4_EVEN_MASKS)
    assert masks_present(pair.minus) <= set(SECOND_TIME_MASKS)
    assert len(NO_E4_EVEN_MASKS) == 8


def test_idempotent_split_rejects_odd_content():
    with pytest.raises(ValueError, match="idempotent_split expects an even multivector"):
        idempotent_split(e(CL32, 0))


def sandwich_oracle(x):
    """The split as multivector products, ``(x ± e^4 x e4)/2``: the formula
    that the diagonal sign and the e3e4 gather replace."""
    e4 = e(CL32, 4)
    sandwich = -e4 * x * e4
    return (x + sandwich) / 2, (x - sandwich) / 2


def oracle_inputs(rng, even):
    rows = [random_multivector(rng, CL32, even=even) for _ in range(30)]
    for _ in range(10):  # small integers
        coeffs = rng.integers(-3, 4, size=CL32.n_blades).astype(np.float64)
        if even:
            coeffs = np.where(tables(CL32).grades % 2 == 0, coeffs, 0.0)
        rows.append(Multivector(coeffs))
    # -0.0 coefficients: the products turn each into +0.0
    rows += [Multivector(np.where(x.coeffs == 0.0, -0.0, x.coeffs)) for x in rows[-10:]]
    rows.append(Multivector.zero())
    return rows


@pytest.mark.parametrize("even", [True, False], ids=["even", "odd"])
def test_pm_split_equals_the_sandwich_formula_bitwise(even, rng):
    for x in oracle_inputs(rng, even):
        plus, minus = sandwich_oracle(x)
        got = pm_split(x)
        assert got.plus.coeffs.tobytes() == plus.coeffs.tobytes()
        assert got.minus.coeffs.tobytes() == minus.coeffs.tobytes()


def test_idempotent_split_equals_the_sandwich_formula_bitwise(rng):
    e34 = e(CL32, 3, 4)
    rows = oracle_inputs(rng, even=True)
    for x in rows:
        plus, minus = sandwich_oracle(x)
        got = idempotent_split(x)
        assert got.plus.coeffs.tobytes() == (plus - minus * e34).coeffs.tobytes()
        assert got.minus.coeffs.tobytes() == (minus - plus * e34).coeffs.tobytes()
    # the array forms split every row of a stacked array the same way
    stacked = np.stack([x.coeffs for x in rows])
    for got, pairs in ((pm_split_coeffs(stacked), [pm_split(x) for x in rows]),
                       (idempotent_split_coeffs(stacked), [idempotent_split(x) for x in rows])):
        for half in (0, 1):
            expected = np.stack([pair[half].coeffs for pair in pairs])
            assert got[half].tobytes() == expected.tobytes()


def test_idempotent_split_coeffs_rejects_odd_content(rng):
    rows = np.stack([random_multivector(rng, CL32, even=True).coeffs for _ in range(3)])
    rows[1, 1] = 0.5  # an e0 component in one row
    with pytest.raises(ValueError, match="even"):
        idempotent_split_coeffs(rows)


def test_sector_halves_are_the_split_of_the_base_arrays_bitwise(rng):
    # rows with -0.0 coefficients, so that the sign of every zero counts
    rows = [x.coeffs for x in oracle_inputs(rng, even=True)]

    def value(pt):
        return Multivector(rows[int(pt[0])])

    def partial(axis, pt):
        return Multivector(rows[(int(pt[0]) + axis + 1) % len(rows)])

    base = AnalyticField(value, partial)
    points = np.zeros((len(rows), 5))
    points[:, 0] = np.arange(len(rows))
    base_values, base_partials = base.samples(points)
    assert np.signbit(base_values[base_values == 0.0]).any()
    for h, half in enumerate(sector_fields(base)):
        values, partials = half.samples(points)
        assert values.tobytes() == idempotent_split_coeffs(base_values)[h].tobytes()
        assert partials.tobytes() == idempotent_split_coeffs(base_partials)[h].tobytes()
        assert half.values(points).tobytes() == values.tobytes()
        assert half.partials(points).tobytes() == partials.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_coefficient_never_gives_an_all_finite_half(bad, rng):
    base = random_multivector(rng, CL32, even=True).coeffs
    for mask in even_masks(CL32):
        x = base.copy()
        x[mask] = bad
        with np.errstate(invalid="ignore"):
            halves = idempotent_split_coeffs(x)
        for half in halves:
            assert not np.isfinite(half).all()


def test_pair_types_are_named_tuples(rng):
    x = random_multivector(rng, CL32, even=True)
    assert isinstance(pm_split(x), SplitPair)
    assert isinstance(idempotent_split(x), SplitPair)


# ---------------------------------------------------------------------------
# flatness check along the second time axis
# ---------------------------------------------------------------------------


def test_cylinder_check_accepts_flat_fields(rng):
    field = hestenes_plane_wave_field((0.2, -0.1, 0.3), mass=1.0)
    pts = rng.uniform(-1, 1, size=(5, 5))
    assert cylinder_check(field, pts, tolerance=1e-12)
    assert cylinder_check(ConstantField(e(CL32, 0, 1)), pts, tolerance=1e-12)


def test_cylinder_check_rejects_second_time_variation(rng):
    field = build_plane_wave((0.2, -0.1, 0.3), 0.5, 1.0, GammaChoice.e12()).field()
    pts = rng.uniform(-1, 1, size=(5, 5))
    assert not cylinder_check(field, pts, tolerance=1e-3)


def test_cylinder_check_requires_samples():
    field = ConstantField(Multivector.scalar(1.0))
    with pytest.raises(ValueError):
        cylinder_check(field, [], tolerance=1e-10)
