"""Algebra engine tests.

The blade product is checked exhaustively against an independent oracle that
computes the reordering sign by a different algorithm (bit-counting rather
than factor merging), and the sign tables, built from bit counts on whole
arrays, against the blade product, so a sign convention bug in any of the
three cannot hide.  Structural identities are exact integer arithmetic and are
asserted with zero tolerance; float-valued properties use integer coefficients
where exactness is claimed.
"""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermion5d import _kernels, algebra
from fermion5d.algebra import (
    CL31,
    CL32,
    CL41,
    MAX_GENERATORS,
    BladeOperator,
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_product,
    e,
    even_masks,
    gather_matrix,
    kernel_backend,
    linear_map_matrix,
    odd_masks,
    pseudoscalar,
    random_multivector,
    tables,
)

ALL_SIGNATURES = (CL32, CL31, CL41)


def oracle_blade_product(mask_a: int, mask_b: int, signs: tuple[int, ...]) -> tuple[int, int]:
    """Independent blade product: reordering sign via bit counting.

    For each generator of ``b``, the number of generators of ``a`` strictly
    above it counts the anticommutations needed to interleave; common
    generators then annihilate with their metric signs.
    """
    shifted = mask_a >> 1
    swaps = 0
    while shifted:
        swaps += bin(shifted & mask_b).count("1")
        shifted >>= 1
    sign = -1 if swaps % 2 else 1
    common = mask_a & mask_b
    for i in range(len(signs)):
        if common >> i & 1:
            sign *= signs[i]
    return sign, mask_a ^ mask_b


# ---------------------------------------------------------------------------
# blade-product table against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
def test_blade_product_matches_oracle_exhaustively(signature):
    n = signature.n_blades
    for a in range(n):
        for b in range(n):
            got = blade_product(a, b, signature)
            want = oracle_blade_product(a, b, signature.signs)
            assert got == want, f"blades {a:#07b} * {b:#07b}"


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
def test_multivector_product_agrees_with_blade_table(signature):
    n = signature.n_blades
    for a in range(n):
        for b in range(n):
            sign, mask = blade_product(a, b, signature)
            prod = Multivector.blade(a, signature) * Multivector.blade(b, signature)
            expected = np.zeros(n)
            expected[mask] = float(sign)
            assert np.array_equal(prod.coeffs, expected)


def test_sign_table_is_plus_minus_one_everywhere():
    # every pair of basis blades multiplies to exactly one signed blade
    for signature in ALL_SIGNATURES:
        sign = tables(signature).sign
        assert set(np.unique(sign)) == {-1, 1}


TABLE_SIGNATURES = ALL_SIGNATURES + (
    Signature((1,)),
    Signature((-1,)),
    Signature((1, -1, -1, 1, -1, 1)),
)


@pytest.mark.parametrize("signature", TABLE_SIGNATURES, ids=lambda s: str(s.signs))
def test_tables_equal_the_blade_product_entry_for_entry(signature):
    n = signature.n_blades
    t = tables(signature)
    grades = [bin(m).count("1") for m in range(n)]
    for i in range(n):
        for j in range(n):
            sign, mask = blade_product(i, j, signature)
            assert t.sign[i, j] == sign, (i, j)
            wedge = sign if grades[mask] == grades[i] + grades[j] else 0
            assert t.wedge_sign[i, j] == wedge, (i, j)
    assert t.grades.tolist() == grades
    assert t.reverse_sign.tolist() == [(-1.0) ** (g * (g - 1) // 2) for g in grades]
    dtypes = (np.int8, np.int8, np.int64, np.float64)
    assert tuple(table.dtype for table in t) == dtypes
    assert not any(table.flags.writeable for table in t)


def test_the_table_builder_calls_no_blade_product(monkeypatch):
    # build uncached: ``_kernels._GATHER`` keys its tables by the live sign table
    def refuse(*args):
        raise AssertionError("the tables are built without blade_product")

    monkeypatch.setattr(algebra, "blade_product", refuse)
    assert TABLE_SIGNATURES[-1].dim == MAX_GENERATORS
    for signature in TABLE_SIGNATURES:
        built = algebra._tables.__wrapped__(signature.signs)
        assert built.sign.tobytes() == tables(signature).sign.tobytes()


# ---------------------------------------------------------------------------
# generator relations and the pseudoscalar
# ---------------------------------------------------------------------------


def test_generator_squares_match_signature():
    for signature in ALL_SIGNATURES:
        for i, s in enumerate(signature.signs):
            ei = e(signature, i)
            assert ei * ei == Multivector.scalar(float(s), signature)


def test_distinct_generators_anticommute_exactly():
    for signature in ALL_SIGNATURES:
        for i in range(signature.dim):
            for j in range(i + 1, signature.dim):
                ei, ej = e(signature, i), e(signature, j)
                assert (ei * ej + ej * ei) == Multivector.zero(signature)


def test_pseudoscalar_square_is_plus_one_only_in_cl32():
    assert pseudoscalar(CL32) * pseudoscalar(CL32) == Multivector.scalar(1.0, CL32)
    assert pseudoscalar(CL41) * pseudoscalar(CL41) == Multivector.scalar(-1.0, CL41)
    assert pseudoscalar(CL31) * pseudoscalar(CL31) == Multivector.scalar(-1.0, CL31)


def test_pseudoscalar_central_in_odd_dimension_not_in_even():
    top = pseudoscalar(CL32)
    for mask in range(CL32.n_blades):
        blade = Multivector.blade(mask, CL32)
        assert top * blade == blade * top
    # dimension four: the top blade anticommutes with vectors instead
    top4 = pseudoscalar(CL31)
    v = e(CL31, 1)
    assert top4 * v == -(v * top4)


def test_three_vector_e012_squares_to_plus_one():
    e012 = e(CL32, 0, 1, 2)
    assert e012 * e012 == Multivector.scalar(1.0, CL32)


def test_pseudoscalar_pairs_e34_with_e012():
    # multiplying the e3e4 plane by the unit pseudoscalar lands on +-e0e1e2;
    # the exact sign comes from the blade table, not from convention
    product = pseudoscalar(CL32) * e(CL32, 3, 4)
    sign, mask = blade_product(0b11111, 0b11000, CL32)
    assert mask == 0b00111
    assert product == Multivector.blade(mask, CL32, float(sign))


def test_e_constructor_applies_canonical_reordering_sign():
    assert e(CL32, 1, 0) == -e(CL32, 0, 1)
    assert e(CL32, 2, 1, 0) == -e(CL32, 0, 1, 2)
    # repeated index contracts with the metric sign
    assert e(CL32, 0, 0) == Multivector.scalar(-1.0, CL32)
    assert e(CL32, 1, 1) == Multivector.scalar(1.0, CL32)


# ---------------------------------------------------------------------------
# ring axioms (exact on integer coefficients)
# ---------------------------------------------------------------------------

small_int_coeffs = st.lists(st.integers(-4, 4), min_size=32, max_size=32).map(
    lambda c: Multivector(np.array(c, dtype=np.float64), CL32)
)


@settings(max_examples=60, deadline=None)
@given(small_int_coeffs, small_int_coeffs, small_int_coeffs)
def test_product_is_associative_exactly_on_integers(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(small_int_coeffs, small_int_coeffs, small_int_coeffs)
def test_product_distributes_over_addition_exactly_on_integers(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@settings(max_examples=60, deadline=None)
@given(small_int_coeffs, small_int_coeffs)
def test_reverse_is_an_antiautomorphism(x, y):
    assert (x * y).reverse() == y.reverse() * x.reverse()


@settings(max_examples=60, deadline=None)
@given(small_int_coeffs)
def test_reverse_is_an_involution(x):
    assert x.reverse().reverse() == x


@settings(max_examples=60, deadline=None)
@given(small_int_coeffs, small_int_coeffs)
def test_wedge_is_the_grade_raising_part_of_the_product(x, y):
    total = Multivector.zero(CL32)
    for ga in range(6):
        xa = x.grade(ga)
        for gb in range(6 - ga):
            yb = y.grade(gb)
            total = total + (xa * yb).grade(ga + gb)
    assert x ^ y == total


def test_associativity_holds_to_roundoff_on_random_floats(rng):
    worst = 0.0
    for _ in range(200):
        x = random_multivector(rng, CL32)
        y = random_multivector(rng, CL32)
        z = random_multivector(rng, CL32)
        worst = max(worst, ((x * y) * z - x * (y * z)).inf_norm())
    assert worst < 1e-12


def test_scalar_multiplication_and_division(rng):
    x = random_multivector(rng, CL32)
    assert 2.0 * x == x * 2.0
    assert (x * 4.0) / 4.0 == x
    assert x + 0.0 == x
    assert 1.5 - Multivector.scalar(1.5) == Multivector.zero()


# ---------------------------------------------------------------------------
# grade bookkeeping and parity
# ---------------------------------------------------------------------------


def test_grade_projections_partition_the_coefficients(rng):
    x = random_multivector(rng, CL32)
    total = Multivector.zero(CL32)
    for k in range(6):
        total = total + x.grade(k)
    assert total == x
    assert x.grade(0) == Multivector.scalar(x.coeffs[0])
    with pytest.raises(ValueError):
        x.grade(6)


def test_grades_present_and_parity_flags():
    x = e(CL32, 0, 1) + e(CL32, 1, 2, 3, 4)
    assert x.grades_present == (2, 4)
    assert x.is_even
    y = x + e(CL32, 3)
    assert y.grades_present == (1, 2, 4)
    assert not y.is_even
    assert Multivector.zero().grades_present == ()
    assert Multivector.zero().is_even


def test_even_masks_split_the_blade_index():
    evens = even_masks(CL32)
    odds = odd_masks(CL32)
    assert len(evens) == 16 and len(odds) == 16
    assert sorted(evens + odds) == list(range(32))
    grades = tables(CL32).grades
    assert all(grades[m] % 2 == 0 for m in evens)


def test_even_subalgebra_is_closed_under_the_product(rng):
    for _ in range(50):
        x = random_multivector(rng, CL32, even=True)
        y = random_multivector(rng, CL32, even=True)
        assert (x * y).is_even


# ---------------------------------------------------------------------------
# container behaviour
# ---------------------------------------------------------------------------


def test_multivector_is_immutable(rng):
    x = random_multivector(rng, CL32)
    with pytest.raises(AttributeError):
        x.coeffs = np.zeros(32)
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatchError):
        Multivector.scalar(1.0, CL32) * Multivector.scalar(1.0, CL41)
    with pytest.raises(SignatureMismatchError):
        Multivector.scalar(1.0, CL32) + Multivector.scalar(1.0, CL31)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((2, 1))
    with pytest.raises(ValueError):
        Signature(tuple([1] * 7))
    assert str(CL32) == "Cl(3,2)"
    assert CL32.blade_name(0) == "1"
    assert CL32.blade_name(0b10011) == "e014"


def test_wrong_coefficient_count_raises():
    with pytest.raises(ValueError):
        Multivector(np.zeros(16), CL32)


def test_equality_and_hash_follow_value_semantics():
    a = e(CL32, 0, 1)
    b = Multivector.blade(0b00011, CL32)
    assert a == b and hash(a) == hash(b)
    assert a != b + 1
    assert (a == "not a multivector") is NotImplemented or (a != "not a multivector")


def test_hash_agrees_with_equality_on_signed_zeros():
    z = Multivector.zero()
    assert z == -z
    assert hash(z) == hash(-z)
    assert len({z, -z}) == 1
    x = e(CL32, 1) * 2.0
    signed = Multivector(np.where(x.coeffs == 0.0, -0.0, x.coeffs))
    assert signed == x and len({x, signed}) == 1
    assert {x: "hit"}[signed] == "hit"


def test_repr_names_blades():
    x = 2.0 * e(CL32, 0, 1) - e(CL32, 4) + Multivector.scalar(3.0)
    text = repr(x)
    assert "e01" in text and "e4" in text and "+3" in text
    assert repr(Multivector.zero()) == "0"


def test_blade_coefficient_constructor():
    x = Multivector.blade(0b00101, CL32, coeff=-2.5)
    assert x.coeffs[0b00101] == -2.5
    assert x.inf_norm() == 2.5


# ---------------------------------------------------------------------------
# linear-map helpers
# ---------------------------------------------------------------------------


def test_linear_map_matrix_reproduces_the_map(rng):
    g = e(CL32, 1, 2)
    fn = lambda mv: g * mv - mv * g
    mat = linear_map_matrix(fn, CL32)
    x = random_multivector(rng, CL32)
    assert np.allclose(mat @ x.coeffs, fn(x).coeffs, atol=1e-14, rtol=0.0)


def test_linear_map_matrix_restricted_input_basis(rng):
    evens = even_masks(CL32)
    fn = lambda mv: e(CL32, 0) * mv
    mat = linear_map_matrix(fn, CL32, evens)
    assert mat.shape == (32, 16)
    x = random_multivector(rng, CL32, even=True)
    assert np.allclose(mat @ x.coeffs[list(evens)], fn(x).coeffs, atol=1e-14, rtol=0.0)


# ---------------------------------------------------------------------------
# product kernel
# ---------------------------------------------------------------------------


def test_backend_name_is_reported():
    assert kernel_backend() == "numpy"


def _left_operand(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "dense":
        return rng.uniform(-1, 1, size=n)
    if kind == "sparse":
        return np.where(rng.random(n) < 0.3, rng.uniform(-1, 1, size=n), 0.0)
    if kind == "integer":
        return rng.integers(-3, 4, size=n).astype(np.float64)
    a = np.zeros(n)
    if kind == "single-blade":
        a[rng.integers(n)] = rng.uniform(-1, 1)
    return a


@pytest.mark.parametrize("table", ["sign", "wedge_sign"])
@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
@pytest.mark.parametrize("kind", ["dense", "sparse", "integer", "single-blade", "zero"])
def test_kernel_matches_the_reference_loop_bitwise(kind, signature, table, rng):
    sign = getattr(tables(signature), table)
    n = signature.n_blades
    for _ in range(40):
        a = _left_operand(kind, rng, n)
        b = rng.uniform(-1, 1, size=n)
        b[rng.random(n) < 0.25] = -0.0
        if kind == "integer":
            b = np.round(3 * b)
        expected = _kernels.gp_reference(sign, a, b)
        # tobytes: a -0.0 where the reference has +0.0 would count as a difference
        assert _kernels.gp(sign, a, b).tobytes() == expected.tobytes()


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
def test_kernel_zero_slots_are_positive_zero(signature):
    # Each left operand makes every term of some output slot -0.0; the
    # reference starts each slot at +0.0, so the slot must come out +0.0.
    sign = tables(signature).sign
    b = np.zeros(signature.n_blades)
    for a in (-np.diag(sign).astype(np.float64), -Multivector.scalar(1.0, signature).coeffs):
        assert _kernels.gp_reference(sign, a, b).tobytes() == b.tobytes()
        assert _kernels.gp(sign, a, b).tobytes() == b.tobytes()


def _loop_reference(sign: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one row of ``a`` at a time: the order of addition ``gp_reference`` keeps
    out = np.zeros_like(b)
    idx = np.arange(sign.shape[0])
    for i in np.nonzero(a)[0]:
        out[idx ^ i] += a[i] * (sign[i] * b)
    return out


@pytest.mark.parametrize("table", ["sign", "wedge_sign"])
@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
def test_reference_scatter_equals_the_loop_bitwise(signature, table, rng):
    # ``np.add.at`` must add each slot's terms in the loop's order (ascending
    # i from +0.0): a different order changes rounding, the sign of zeros
    # and which NaN survives
    sign = getattr(tables(signature), table)
    n = signature.n_blades
    with np.errstate(invalid="ignore"):
        for kind in ("dense", "sparse", "integer", "single-blade", "zero"):
            for special in (None, np.inf, -np.inf, np.nan):
                for _ in range(10):
                    a = _left_operand(kind, rng, n)
                    a[(a == 0.0) & (rng.random(n) < 0.5)] = -0.0
                    b = rng.uniform(-1, 1, size=n)
                    b[rng.random(n) < 0.25] = -0.0
                    if special is not None:
                        b[rng.integers(n, size=2)] = special
                    expected = _loop_reference(sign, a, b)
                    assert _kernels.gp_reference(sign, a, b).tobytes() == expected.tobytes()


def test_kernel_non_finite_results_stay_non_finite(rng):
    # The gather also multiplies the zero rows of the left operand, so an
    # infinity on the right can turn a slot the reference leaves finite into
    # NaN (0 * inf).  What may never happen is the reverse: a finite number
    # where the reference has inf or NaN.  In a batch, the other rows keep
    # the bits of their own reference products.  Under the wedge table the
    # zero signs meet the infinities too, and the batch must keep the bits
    # of the gather with a separate sign pass, ``(b[X] * S) * a``.
    others = np.arange(32) != 5
    for sign in (tables(CL32).sign, tables(CL32).wedge_sign):
        xor, signs, _ = _kernels._gather_tables(sign)
        for kind in ("dense", "sparse", "single-blade"):
            left = np.stack([_left_operand(kind, rng, 32) for _ in range(32)])
            for special in (np.inf, -np.inf, np.nan):
                b = rng.uniform(-1, 1, size=(32, 32))
                b[5, [3, 17]] = special
                with np.errstate(invalid="ignore"):
                    expected = np.stack(
                        [_kernels.gp_reference(sign, x, y) for x, y in zip(left, b)]
                    )
                    vector = _kernels.gp(sign, left[5], b[5])
                    batch = _kernels.gp(sign, left, b)
                    terms = b.T[xor] * signs[:, :, None] * left.T[:, None]
                    sign_pass = terms.sum(0, initial=0.0).T
                assert batch.tobytes() == sign_pass.tobytes()
                assert batch[others].tobytes() == expected[others].tobytes()
                for got in (vector, batch[5]):
                    assert np.all(~np.isfinite(got[~np.isfinite(expected[5])]))
                    finite = np.isfinite(got)
                    assert got[finite].tobytes() == expected[5][finite].tobytes()


@pytest.mark.parametrize("table", ["sign", "wedge_sign"])
@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
@pytest.mark.parametrize(
    "shape", [(12,), (3, 4), ("n",), (2, "n")], ids=["N", "NxM", "nxn", "2xnxn"]
)
def test_batched_kernel_equals_the_reference_row_by_row(shape, signature, table, rng):
    # leading batch axes: every row, single-blade and zero left operands
    # included, is the product of that row alone.  A batch axis of length
    # n_blades ("n") is where a transpose on the wrong axis still broadcasts.
    sign = getattr(tables(signature), table)
    n = signature.n_blades
    shape = tuple(n if size == "n" else size for size in shape)
    kinds = ("dense", "single-blade", "sparse", "integer", "zero", "single-blade")
    rows = int(np.prod(shape))
    a = np.stack([_left_operand(kinds[r % len(kinds)], rng, n) for r in range(rows)])
    b = rng.uniform(-1, 1, size=(rows, n))
    b[rng.random(b.shape) < 0.25] = -0.0
    got = _kernels.gp(sign, a.reshape(shape + (n,)), b.reshape(shape + (n,)))
    assert got.shape == shape + (n,)
    for row, x, y in zip(got.reshape(rows, n), a, b):
        assert row.tobytes() == _kernels.gp_reference(sign, x, y).tobytes()


@pytest.mark.parametrize("table", ["sign", "wedge_sign"])
@pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["0", "2x0"])
def test_batched_kernel_on_zero_rows(shape, table):
    # a batch with no rows is an empty product of the same shape, not an
    # ambiguous reshape of the empty signed stack
    sign = getattr(tables(CL32), table)
    empty = np.zeros(shape + (CL32.n_blades,))
    got = _kernels.gp(sign, empty, empty)
    assert got.shape == empty.shape and got.dtype == np.float64


@pytest.mark.parametrize("table", ["sign", "wedge_sign"])
def test_batched_kernel_on_strided_views_equals_the_reference(table, rng):
    # the associativity check passes ``np.moveaxis`` views of one
    # (n, 3, 32) draw: neither operand is contiguous
    sign = getattr(tables(CL32), table)
    x, y, z = np.moveaxis(rng.uniform(-1, 1, (40, 3, CL32.n_blades)), 1, 0)
    assert not (x.flags.c_contiguous or y.flags.c_contiguous)
    for left, right in ((x, y), (_kernels.gp(sign, x, y), z), (x, _kernels.gp(sign, y, z))):
        got = _kernels.gp(sign, left, right)
        assert got.flags.c_contiguous
        for row, a, b in zip(got, left, right):
            assert row.tobytes() == _kernels.gp_reference(sign, a, b).tobytes()


@pytest.mark.parametrize(
    "left_shape, right_shape",
    [((32,), (40, 32)), ((3, 32), (40, 32)), ((40, 32), (32,))],
    ids=["vector-x-40", "3-x-40", "40-x-vector"],
)
@pytest.mark.parametrize("kind", ["dense", "single-blade"])
def test_kernel_refuses_operands_of_different_shapes(kind, left_shape, right_shape, rng):
    # a vector against a batch used to return rows picked out of the batch
    sign = tables(CL32).sign
    a = np.stack([_left_operand(kind, rng, 32) for _ in range(int(np.prod(left_shape[:-1])))])
    b = rng.uniform(-1, 1, size=right_shape)
    with pytest.raises(ValueError, match="shapes differ"):
        _kernels.gp(sign, a.reshape(left_shape), b)


@pytest.mark.parametrize(
    "shape", [(16,), (64,), (40, 16), (3, 64)], ids=["16", "64", "40x16", "3x64"]
)
@pytest.mark.parametrize("kind", ["dense", "single-blade"])
def test_kernel_refuses_operands_the_table_does_not_fit(kind, shape, rng):
    # the signed gather indexes the stacked copies of b by the table's size,
    # so a row of any other length must not reach it
    sign = tables(CL32).sign
    rows = int(np.prod(shape[:-1]))
    a = np.stack([_left_operand(kind, rng, shape[-1]) for _ in range(rows)]).reshape(shape)
    b = rng.uniform(-1, 1, size=shape)
    message = re.escape(f"shape {shape} does not fit a table of 32 blades")
    with pytest.raises(ValueError, match=message):
        _kernels.gp(sign, a, b)


def test_gather_index_rows_are_permutations():
    xor = _kernels._gather_tables(tables(CL32).sign)[0]
    for i in range(32):
        assert sorted(xor[i]) == list(range(32))


# ---------------------------------------------------------------------------
# blade operators
# ---------------------------------------------------------------------------


def _gather_inputs(rng, signature):
    n = signature.n_blades
    dense = rng.uniform(-1, 1, size=n)
    signed_zeros = dense.copy()
    signed_zeros[rng.random(n) < 0.4] = -0.0
    single = np.full(n, -0.0)
    single[rng.integers(n)] = rng.uniform(-1, 1)
    integer = rng.integers(-2, 3, size=n).astype(np.float64)
    return [dense, signed_zeros, single, integer, np.zeros(n), np.full(n, -0.0)]


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
def test_blade_gathers_equal_the_product_for_every_blade(signature, rng):
    for mask in range(signature.n_blades):
        for coeff in (1.0, -1.0, 0.37):
            blade = Multivector.blade(mask, signature, coeff)
            left, right = BladeOperator.left(blade), BladeOperator.right(blade)
            rows = _gather_inputs(rng, signature)
            for x in rows:
                mv = Multivector(x, signature)
                assert left(x).tobytes() == (blade * mv).coeffs.tobytes()
                assert right(x).tobytes() == (mv * blade).coeffs.tobytes()
            # along the last axis of a stacked array, row by row
            stacked = np.stack(rows)
            assert left(stacked).tobytes() == np.stack([left(x) for x in rows]).tobytes()
            assert right(stacked).tobytes() == np.stack([right(x) for x in rows]).tobytes()


def test_blade_operator_needs_exactly_one_blade():
    with pytest.raises(ValueError, match="single blade"):
        BladeOperator.left(e(CL32, 1) + e(CL32, 2))
    with pytest.raises(ValueError, match="single blade"):
        BladeOperator.right(Multivector.zero())
    # -0.0 in the other slots does not count as a second blade
    assert np.array_equal(BladeOperator.left(-(-e(CL32, 0))).sign, BladeOperator.left(e(CL32, 0)).sign)


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=str)
def test_gather_matrix_equals_the_linear_map_matrix_bitwise(signature, rng):
    n = signature.n_blades
    for masks in (range(n), even_masks(signature), odd_masks(signature)[::-1]):
        for length in (1, 2, 3):
            coeffs = rng.choice([1.0, -1.0, 0.37], size=length)
            blades = [Multivector.blade(int(rng.integers(n)), signature, c) for c in coeffs]
            sides = rng.integers(2, size=length)
            ops = [
                BladeOperator.left(b) if s else BladeOperator.right(b) for b, s in zip(blades, sides)
            ]

            def chain(mv):
                for b, s in zip(blades, sides):
                    mv = b * mv if s else mv * b
                return mv

            got = gather_matrix(masks, *ops)
            want = linear_map_matrix(chain, signature, masks)
            assert got.shape == want.shape == (n, len(masks))
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable


def test_gather_matrix_takes_only_blade_operators():
    with pytest.raises(TypeError, match="BladeOperator"):
        gather_matrix(even_masks(CL32))
    with pytest.raises(TypeError, match="BladeOperator"):
        gather_matrix(even_masks(CL32), lambda rows: rows)
