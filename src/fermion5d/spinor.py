"""Splitting multivectors by second-time content and the idempotent transform.

``pm_split`` decomposes a multivector with the sandwich ``(x ± e^4 x e4)/2``
(raised index: ``e^4 = -e4``).  On even multivectors the plus part collects
exactly the blades free of ``e4`` and the minus part the blades containing it;
left-multiplying by one of ``e0..e3`` swaps the two parts.

``idempotent_split`` right-multiplies an even multivector by ``(1 - e3e4)``
(twice the idempotent ``(1 - e3e4)/2``) and returns the resulting plus/minus
halves.  Each half carries eight real components and, for fields that are
independent of the second time coordinate, obeys the four-dimensional Dirac
equation in Hestenes form.

Both are products by single blades, so they run as array operations: the
sandwich by ``e4`` is a diagonal sign, and each idempotent half is one signed
gather ``Y`` of the input ``c``: ``(c + 0.0) - Y`` for the plus half and
``c - Y`` for the minus half, so a caller that keeps one half computes only
that one.  :func:`pm_split_coeffs` and :func:`idempotent_split_coeffs` apply
them along the last axis of coefficient arrays of any shape, bit for bit equal
to the multivector products they replace; on a field's ``(6, N, 32)`` jet one
call splits the values and the partials, with one odd-blade check and one
gather.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .algebra import CL32, BladeOperator, Multivector, e, even_masks, gather_matrix, odd_masks


class SplitPair(NamedTuple):
    """The plus and minus parts returned by :func:`pm_split` and
    :func:`idempotent_split`."""

    plus: Multivector
    minus: Multivector


_E4 = e(CL32, 4)
_E4_RAISED = -_E4  # index raised with the metric: e^4 = g^44 e4 = -e4
_E34 = e(CL32, 3, 4)
_RIGHT_E34 = BladeOperator.right(_E34)
_ODD_MASKS = np.array(odd_masks(CL32))

#: ``Y`` of each idempotent half (see :func:`_idempotent_half`): ``x e3e4``
#: on the even blades free of e4 (plus half) or with e4 (minus half), ``x``
#: itself on every other blade.
_HALF_GATHERS = tuple(
    BladeOperator(
        np.where(swap, _RIGHT_E34.index, np.arange(CL32.n_blades)),
        np.where(swap, _RIGHT_E34.sign, 1.0),
    )
    for swap in (
        [m in even_masks(CL32) and m < 0b10000 for m in range(CL32.n_blades)],
        [m in even_masks(CL32) and m >= 0b10000 for m in range(CL32.n_blades)],
    )
)

#: ``e^4 x e4 = x * _SANDWICH_SIGN``: each blade commutes or anticommutes with e4.
_SANDWICH_SIGN = gather_matrix(
    range(CL32.n_blades), BladeOperator.left(_E4_RAISED), BladeOperator.right(_E4)
).diagonal().copy()
_SANDWICH_SIGN.setflags(write=False)


def pm_split_coeffs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pm_split` on Cl(3,2) coefficient arrays ``(..., 32)``."""
    sandwich = coeffs * _SANDWICH_SIGN
    sandwich += 0.0
    return (coeffs + sandwich) / 2, (coeffs - sandwich) / 2


def pm_split(x: Multivector) -> SplitPair:
    """Sandwich split of any multivector: ``(x ± e^4 x e4)/2``.

    The halving and recombination are exact in binary floating point, so the
    two parts partition the coefficients without roundoff.
    """
    if x.signature != CL32:
        raise ValueError("pm_split is defined on the Cl(3,2) algebra")
    plus, minus = pm_split_coeffs(x.coeffs)
    return SplitPair(plus=Multivector(plus), minus=Multivector(minus))


def idempotent_split(phi: Multivector) -> SplitPair:
    """Right-multiply by ``(1 - e3e4)`` and split by second-time content.

    Both halves are computed directly from the projection parts:
    ``plus = phi_plus - phi_minus*e3e4`` and ``minus = phi_minus -
    phi_plus*e3e4``.  They satisfy ``minus == -plus*e3e4`` identically, i.e.
    the pair derived from a single wave function carries eight independent
    real components, not sixteen.
    """
    if phi.signature != CL32:
        raise ValueError("idempotent_split is defined on the Cl(3,2) algebra")
    plus, minus = idempotent_split_coeffs(phi.coeffs)
    return SplitPair(plus=Multivector(plus), minus=Multivector(minus))


def idempotent_split_coeffs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`idempotent_split` on Cl(3,2) coefficient arrays ``(..., 32)``."""
    return _idempotent_half(coeffs, 0), _idempotent_half(coeffs, 1)


def _idempotent_half(coeffs: np.ndarray, half: int) -> np.ndarray:
    """The plus (``half`` 0) or minus (1) half of :func:`idempotent_split_coeffs`.

    ``plus = phi_plus - phi_minus*e3e4`` reduces to ``(c + 0.0) - Y`` and
    ``minus = phi_minus - phi_plus*e3e4`` to ``c - Y``, with ``Y`` the signed
    gather ``_HALF_GATHERS[half]`` of ``c`` (adding -0.0 changes no value).
    Each blade is the subtraction of the two-step form on the same two
    values, so the halves are bit for bit the same on finite input, signed
    zeros included, except that a coefficient above half the largest double
    no longer overflows in ``phi_plus``/``phi_minus``.  The odd blades must
    be zero, so their ``Y`` is +0.0 and the plus half's is too.
    """
    odd = coeffs.take(_ODD_MASKS, axis=-1)
    if (odd != 0.0).any():
        if not np.isfinite(odd).all():
            raise ValueError("idempotent_split: the samples are not finite")
        raise ValueError("idempotent_split expects an even multivector")
    out = coeffs + (-0.0 if half else 0.0)
    out -= _HALF_GATHERS[half](coeffs)
    return out


def cylinder_check(field, points: Iterable, tolerance: float) -> bool:
    """True iff the field is flat along the second time axis on the samples.

    ``field`` must provide ``partials(points)``; the check is
    ``sup_x ||d(phi)/dx4(x)||_inf < tolerance`` over the supplied points, and
    a NaN at any of them fails it.
    """
    pts = list(points)
    if not pts:
        raise ValueError("at least one sample point is required")
    return float(np.max(np.abs(field.partials(np.asarray(pts))[4]))) < tolerance
