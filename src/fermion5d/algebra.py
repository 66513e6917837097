"""Dense real Clifford algebra engine for low-dimensional signatures.

A blade is encoded as a bit mask over the generators: bit ``A`` set means the
generator ``eA`` is a factor, and factors are kept in canonical ascending
order.  A multivector is a dense float64 coefficient vector indexed by mask.
The product of two basis blades is the XOR of their masks times an exact
integer sign obtained by counting transpositions and applying the metric signs
of annihilated generator pairs, so all structural identities (anticommutation,
grade bookkeeping, centrality of the top blade in odd dimension) hold exactly.
The per-signature sign tables come from those counts done as bit arithmetic
on whole arrays of masks; :func:`blade_product` does them one pair at a time
and is the tables' reference.

The physics modules use ``CL32`` — three generators squaring to +1 (``e1, e2,
e3``) and two squaring to -1 (``e0`` the ordinary time axis and ``e4`` the
second, "extraordinary" time axis).  ``CL31`` and ``CL41`` exist for
cross-checks of metric-sensitive facts such as the square of the unit
pseudoscalar.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels

MAX_GENERATORS = 6


class SignatureMismatchError(ValueError):
    """Raised when operands from different algebras are combined."""


@dataclass(frozen=True)
class Signature:
    """Metric signature: ``signs[A]`` is the square of generator ``eA``."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.signs) <= MAX_GENERATORS:
            raise ValueError(
                f"supported generator counts are 1..{MAX_GENERATORS}, got {len(self.signs)}"
            )
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("generator squares must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.signs)

    @property
    def n_blades(self) -> int:
        return 1 << len(self.signs)

    @property
    def plus_count(self) -> int:
        return sum(1 for s in self.signs if s == 1)

    @property
    def minus_count(self) -> int:
        return sum(1 for s in self.signs if s == -1)

    def blade_name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "e" + "".join(str(a) for a in range(self.dim) if mask >> a & 1)

    def __str__(self) -> str:
        return f"Cl({self.plus_count},{self.minus_count})"


#: Cl(3,2): e0^2 = e4^2 = -1 (two time axes), e1^2 = e2^2 = e3^2 = +1.
CL32 = Signature((-1, 1, 1, 1, -1))
#: Cl(3,1): ordinary spacetime with e0^2 = -1.
CL31 = Signature((-1, 1, 1, 1))
#: Cl(4,1): contrast case whose unit pseudoscalar squares to -1.
CL41 = Signature((1, 1, 1, 1, -1))


def blade_product(mask_a: int, mask_b: int, signature: Signature) -> tuple[int, int]:
    """Product of two basis blades: ``(sign, result_mask)`` in exact integers.

    Factors of ``mask_b`` are merged one by one (ascending) into the sorted
    factor list of ``mask_a``; each merge counts the transpositions needed to
    reach canonical position and a repeated generator annihilates with its
    metric sign.
    """
    dim = signature.dim
    if not (0 <= mask_a < 1 << dim and 0 <= mask_b < 1 << dim):
        raise ValueError("blade mask out of range for signature")
    acc = [a for a in range(dim) if mask_a >> a & 1]
    sign = 1
    for b in range(dim):
        if not mask_b >> b & 1:
            continue
        swaps = sum(1 for a in acc if a > b)
        if swaps % 2:
            sign = -sign
        if b in acc:
            acc.remove(b)
            sign *= signature.signs[b]
        else:
            acc.append(b)
            acc.sort()
    mask = 0
    for a in acc:
        mask |= 1 << a
    return sign, mask


class _Tables(NamedTuple):
    """Precomputed per-signature structure tables."""

    sign: np.ndarray        # (D, D) int8: geometric-product signs
    wedge_sign: np.ndarray  # (D, D) int8: signs where grades add, else 0
    grades: np.ndarray      # (D,) int64 blade grades
    reverse_sign: np.ndarray  # (D,) float64: (-1)^(k(k-1)/2) per blade


@lru_cache(maxsize=None)
def _tables(signs: tuple[int, ...]) -> _Tables:
    """The tables of ``signs`` from bit counts, entry for entry those of
    :func:`blade_product`.

    Merging the factor ``b`` of blade ``j`` into blade ``i`` passes the
    factors of ``i`` above ``b``, and a generator both share annihilates with
    its square, so ``sign[i, j]`` is -1 to the power of the sum over the
    factors ``b`` of ``j`` of ``#{factors of i above b}``, plus the number of
    shared generators that square to -1.
    """
    idx = np.arange(1 << len(signs))
    bits = idx[:, None] >> np.arange(len(signs)) & 1  # bits[i, b]: is b a factor of i
    above = bits[:, ::-1].cumsum(1)[:, ::-1] - bits  # factors of i above b
    flips = (above + bits * (np.array(signs) < 0)) @ bits.T
    sign = (1 - 2 * (flips & 1)).astype(np.int8)
    grades = bits.sum(1)
    wedge_sign = np.where(grades[idx[:, None] ^ idx] == grades[:, None] + grades, sign, 0)
    rev = np.where(grades * (grades - 1) // 2 % 2, -1.0, 1.0)
    for table in (sign, wedge_sign, grades, rev):
        table.setflags(write=False)
    return _Tables(sign=sign, wedge_sign=wedge_sign, grades=grades, reverse_sign=rev)


def tables(signature: Signature) -> _Tables:
    return _tables(signature.signs)


class Multivector:
    """Immutable dense multivector over a fixed signature."""

    __slots__ = ("coeffs", "signature")

    def __init__(self, coeffs: Iterable[float], signature: Signature = CL32):
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (signature.n_blades,):
            raise ValueError(
                f"expected {signature.n_blades} coefficients for {signature}, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "signature", signature)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature = CL32) -> "Multivector":
        return cls(np.zeros(signature.n_blades), signature)

    @classmethod
    def scalar(cls, value: float, signature: Signature = CL32) -> "Multivector":
        coeffs = np.zeros(signature.n_blades)
        coeffs[0] = value
        return cls(coeffs, signature)

    @classmethod
    def blade(cls, mask: int, signature: Signature = CL32, coeff: float = 1.0) -> "Multivector":
        coeffs = np.zeros(signature.n_blades)
        coeffs[mask] = coeff
        return cls(coeffs, signature)

    # -- bookkeeping -------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"cannot combine {self.signature} and {other.signature} multivectors"
            )

    @property
    def grades_present(self) -> tuple[int, ...]:
        g = tables(self.signature).grades
        return tuple(sorted({int(k) for k in g[self.coeffs != 0.0]}))

    @property
    def is_even(self) -> bool:
        g = tables(self.signature).grades
        return not np.any(self.coeffs[g % 2 == 1])

    def inf_norm(self) -> float:
        return float(abs(self.coeffs).max()) if self.coeffs.size else 0.0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.coeffs + other.coeffs, self.signature)
        if isinstance(other, (int, float)):
            return self + Multivector.scalar(other, self.signature)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.coeffs - other.coeffs, self.signature)
        if isinstance(other, (int, float)):
            return self - Multivector.scalar(other, self.signature)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(-self.coeffs, self.signature)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            t = tables(self.signature)
            return Multivector(_kernels.gp(t.sign, self.coeffs, other.coeffs), self.signature)
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs * float(other), self.signature)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs * float(other), self.signature)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs / float(other), self.signature)
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            t = tables(self.signature)
            return Multivector(
                _kernels.gp(t.wedge_sign, self.coeffs, other.coeffs), self.signature
            )
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which ``__eq__`` treats as equal
        return hash((self.signature, (self.coeffs + 0.0).tobytes()))

    # -- grade operations ---------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.signature.dim:
            raise ValueError(f"grade must be in 0..{self.signature.dim}, got {k}")
        g = tables(self.signature).grades
        out = np.where(g == k, self.coeffs, 0.0)
        return Multivector(out, self.signature)

    def reverse(self) -> "Multivector":
        t = tables(self.signature)
        return Multivector(self.coeffs * t.reverse_sign, self.signature)

    def __invert__(self):
        return self.reverse()

    def __repr__(self) -> str:
        terms = []
        for mask in np.nonzero(self.coeffs)[0]:
            c = self.coeffs[mask]
            name = self.signature.blade_name(int(mask))
            terms.append(f"{c:+g}" if name == "1" else f"{c:+g}*{name}")
        return " ".join(terms) if terms else "0"


# -- convenience constructors and free functions ----------------------------


def e(signature: Signature, *indices: int) -> Multivector:
    """Basis blade from generator indices, e.g. ``e(CL32, 0, 1)`` for e01.

    Indices may appear in any order; the canonical sign is applied.
    """
    out = Multivector.scalar(1.0, signature)
    for a in indices:
        if not 0 <= a < signature.dim:
            raise ValueError(f"generator index {a} out of range for {signature}")
        out = out * Multivector.blade(1 << a, signature)
    return out


def pseudoscalar(signature: Signature) -> Multivector:
    return Multivector.blade(signature.n_blades - 1, signature)


# -- even subalgebra helpers -------------------------------------------------


@lru_cache(maxsize=None)
def even_masks(signature: Signature) -> tuple[int, ...]:
    """Masks of even-grade blades in ascending order (16 of them for dim 5)."""
    g = tables(signature).grades
    return tuple(int(m) for m in np.nonzero(g % 2 == 0)[0])


@lru_cache(maxsize=None)
def odd_masks(signature: Signature) -> tuple[int, ...]:
    g = tables(signature).grades
    return tuple(int(m) for m in np.nonzero(g % 2 == 1)[0])


class BladeOperator:
    """Product by a fixed multivector with one non-zero coefficient, on arrays.

    Multiplying by ``c * e_mask`` permutes the coefficients and flips some of
    their signs, so ``op(x)[..., k] = sign[k] * x[..., index[k]]`` along the
    last axis of a ``(..., n_blades)`` array.  The trailing ``+ 0.0`` turns
    -0.0 into 0.0 as the product kernel does, so ``BladeOperator.left(b)(x)``
    equals ``(b * x).coeffs`` and ``BladeOperator.right(b)(x)`` equals
    ``(x * b).coeffs`` bit for bit on finite input.
    """

    __slots__ = ("index", "sign")

    def __init__(self, index: np.ndarray, sign: np.ndarray):
        self.index = index
        self.sign = sign

    @classmethod
    def left(cls, blade: Multivector) -> "BladeOperator":
        """``x -> blade * x``."""
        return cls._of(blade, left=True)

    @classmethod
    def right(cls, blade: Multivector) -> "BladeOperator":
        """``x -> x * blade``."""
        return cls._of(blade, left=False)

    @classmethod
    def _of(cls, blade: Multivector, left: bool) -> "BladeOperator":
        nonzero = np.nonzero(blade.coeffs)[0]
        if nonzero.size != 1:
            raise ValueError(f"expected a single blade, got {blade!r}")
        mask = int(nonzero[0])
        index, sign = _kernels.blade_gather(tables(blade.signature).sign, mask, left)
        sign = sign * blade.coeffs[mask]
        sign.setflags(write=False)
        return cls(index, sign)

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        out = coeffs.take(self.index, axis=-1)
        out *= self.sign
        out += 0.0
        return out


def gather_matrix(masks: Sequence[int], *ops: BladeOperator) -> np.ndarray:
    """Matrix (``n_blades`` x ``len(masks)``) of the chain of signed gathers
    ``ops``, applied in order, on the blades ``masks``: the gathers of the
    identity rows of those blades, transposed to columns, C-contiguous and
    read-only.  Bit for bit the matrix of the chain's products."""
    if not ops or not all(isinstance(op, BladeOperator) for op in ops):
        raise TypeError("expected one or more BladeOperators")
    rows = np.eye(ops[0].index.size)[list(masks)]
    for op in ops:
        rows = op(rows)
    matrix = np.ascontiguousarray(rows.T)
    matrix.setflags(write=False)
    return matrix


def linear_map_matrix(
    fn: Callable[[Multivector], Multivector],
    signature: Signature = CL32,
    input_masks: Sequence[int] | None = None,
) -> np.ndarray:
    """Matrix of a general linear map in full-blade coordinates, one product
    per column.  No module of the package calls it: it is the tests'
    reference for :func:`gather_matrix`, which builds the constant operators.

    Columns are ``fn`` applied to the basis blades listed in ``input_masks``
    (default: all blades); rows run over all blades of the signature.
    """
    if input_masks is None:
        input_masks = range(signature.n_blades)
    cols = []
    for mask in input_masks:
        out = fn(Multivector.blade(int(mask), signature))
        cols.append(out.coeffs)
    return np.column_stack(cols)


def random_multivector(
    rng: np.random.Generator, signature: Signature = CL32, even: bool = False
) -> Multivector:
    """Random multivector with coefficients uniform in [-1, 1]."""
    coeffs = rng.uniform(-1.0, 1.0, size=signature.n_blades)
    if even:
        g = tables(signature).grades
        coeffs = np.where(g % 2 == 0, coeffs, 0.0)
    return Multivector(coeffs, signature)


def kernel_backend() -> str:
    """Name of the product kernel's backend (always "numpy")."""
    return _kernels.BACKEND
