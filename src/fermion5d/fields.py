"""Multivector-valued fields over the five coordinates (t, x, y, z, w).

A field exposes ``value(x)`` and ``partial(axis, x)`` where ``partial`` is the
plain coordinate derivative (lower index); :func:`add_gradient` raises the
index and sums the gradient ``e_A d^A`` for every consumer.  Analytic fields
carry exact derivatives; sampled fields fall back to second-order central
differences with a configurable step.

The batch forms ``values(points) -> (N, 32)`` and ``partials(points) -> (5,
N, 32)`` evaluate a whole ``(N, 5)`` point array at once, row ``n`` equal bit
for bit to the per-point call at ``points[n]``.  One evaluation of both is
the field's *jet*, one ``(6, N, 32)`` array: slot 0 holds the values and
slot ``1 + a`` the partial ``d_a``.  ``samples(points)`` returns the two as
views of one jet, and the residuals of :mod:`fermion5d.wave` read the jet
itself, with one signed gather per equation (:func:`add_gradient`'s tables,
the mass operator in the leading slot).  Every field is an
:class:`ArrayField`, the type every function of the package that takes a
field is annotated with: its per-point methods are the batch on one point,
and no batch method goes through a per-point method.  User-supplied
per-point callables are wrapped by :class:`AnalyticField` (value and
derivative) or :class:`FiniteDifferenceField` (value only), whose batch
methods loop over the callables, not over the field's own per-point methods.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import CL32, BladeOperator, Multivector, e

#: Diagonal metric signs g_AA for coordinates (t, x, y, z, w).
METRIC_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0, -1.0])
METRIC_SIGNS.setflags(write=False)

#: ``x -> e_a x`` for a = 0..4: ``(e_a x)[k] = sign[k] * x[index[k]]``.
_LEFT_E = tuple(BladeOperator.left(e(CL32, a)) for a in range(5))
_ACCUMULATE = tuple(np.subtract if g < 0 else np.add for g in METRIC_SIGNS)


@lru_cache(maxsize=None)
def _gradient_gather(axes: tuple[int, ...], lead: BladeOperator | None = None):
    """The terms ``e_a d_a`` over ``axes`` as one signed gather, built once
    per ``(axes, lead)`` and read-only: ``(source, index, sign, accumulate)``.

    Without ``lead`` it reads partials ``(5, N, 32)``: term ``i`` is
    ``sign[i] * partials[source[i], :, index[i]]``, the slot axis first.
    With ``lead`` (a :class:`BladeOperator`) it reads a jet ``(6, N, 32)``:
    term 0 is ``lead`` applied to the values (jet slot 0) and term ``1 + i``
    is ``e_a d_a`` (jet slot ``1 + a``).  ``accumulate[i]`` is ``np.add``,
    or ``np.subtract`` on the lowered axes t and w, for the ``i``-th axis.
    """
    ops, source = [_LEFT_E[a] for a in axes], list(axes)
    if lead is not None:
        ops, source = [lead, *ops], [0, *(a + 1 for a in axes)]
    index = np.array([op.index for op in ops], dtype=np.intp).reshape(-1, CL32.n_blades)
    sign = np.array([op.sign for op in ops], dtype=np.float64).reshape(-1, CL32.n_blades, 1)
    source = np.array(source, dtype=np.intp).reshape(-1, 1)
    for table in (source, index, sign):
        table.setflags(write=False)
    return source, index, sign, tuple(_ACCUMULATE[a] for a in axes)


def add_gradient(res: np.ndarray, partials, axes) -> np.ndarray:
    """``res + sum_a e_a d^a field`` over ``axes``, added in place in that order.

    ``partials[a]`` holds the lower-index ``d_a field`` as rows ``(..., 32)``
    (``res``'s shape).  One signed gather (:func:`_gradient_gather`) reads
    every term ``e_a d_a`` of ``axes`` and no other axis, with +0.0 zeros,
    bit for bit the product.  Raising the index subtracts the term on the
    lowered axes (t and w): ``res - t`` is bit for bit ``res + (-1) t``,
    signed zeros included.
    """
    source, index, sign, accumulate = _gradient_gather(tuple(axes))
    # advanced indices around a slice put their axes first: (axes, 32, rows)
    rows = partials.reshape(len(partials), -1, CL32.n_blades)
    terms = rows[source, :, index]
    terms *= sign
    terms += 0.0
    for add, term in zip(accumulate, terms):
        add(res, term.T.reshape(res.shape), out=res)
    return res


DEFAULT_FD_STEP = 1e-4


def as_point(x: Sequence[float]) -> np.ndarray:
    pt = np.asarray(x, dtype=np.float64)
    if pt.shape != (5,):
        raise ValueError(f"a point has five coordinates, got shape {pt.shape}")
    return pt


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 5:
        raise ValueError(f"points must have shape (N, 5), got {pts.shape}")
    return pts


def _finite_rows(points):
    """The rows of ``as_points(points)``, each checked on its Python floats as
    it is reached: a coordinate that is not finite raises one line."""
    for n, x in enumerate(as_points(points)):
        row = x.tolist()
        if not all(map(math.isfinite, row)):
            raise ValueError(f"a coordinate at point row {n} {row} is not finite")
        yield x


def minkowski_dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Inner product with signature (-,+,+,+,-) on (t, x, y, z, w)."""
    return float(np.dot(METRIC_SIGNS * as_point(a), as_point(b)))


def _rows(mvs: list[Multivector]) -> np.ndarray:
    if not mvs:
        return np.zeros((0, CL32.n_blades))
    return np.array([mv.coeffs for mv in mvs])


class ArrayField:
    """Per-point evaluation as the batch on one point.

    A subclass defines ``values`` and one of ``partials`` or
    ``_axis_partials(axis, points)``, the ``(N, 32)`` rows of ``d_axis``;
    each of the two defaults to the other.  ``_jet(points)`` is both in one
    ``(6, N, 32)`` array, values in slot 0 and ``d_a`` in slot ``1 + a``;
    ``samples`` returns them as views of it, and the residuals of
    :mod:`fermion5d.wave` read it whole.  A subclass whose values and
    partials share one evaluation overrides ``_jet``.
    """

    def _jet(self, points) -> np.ndarray:
        pts = as_points(points)
        jet = np.empty((6, len(pts), CL32.n_blades))
        jet[0], jet[1:] = self.values(pts), self.partials(pts)
        return jet

    def samples(self, points) -> tuple[np.ndarray, np.ndarray]:
        jet = self._jet(points)
        return jet[0], jet[1:]

    def partials(self, points) -> np.ndarray:
        pts = as_points(points)
        return np.stack([self._axis_partials(axis, pts) for axis in range(5)])

    def _axis_partials(self, axis: int, points) -> np.ndarray:
        return self.partials(points)[axis]

    def value(self, x):
        return Multivector(self.values([as_point(x)])[0])

    def partial(self, axis, x):
        if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or not 0 <= axis <= 4:
            raise ValueError(f"axis must be 0..4, got {axis!r}")
        return Multivector(self._axis_partials(axis, [as_point(x)])[0])


class AnalyticField(ArrayField):
    """Field defined by explicit per-point value and derivative callables,
    which never see a point that is not finite: such a point raises."""

    def __init__(
        self,
        value_fn: Callable[[np.ndarray], Multivector],
        partial_fn: Callable[[int, np.ndarray], Multivector],
    ):
        self._value = value_fn
        self._partial = partial_fn

    def values(self, points) -> np.ndarray:
        return _rows([self._value(x) for x in _finite_rows(points)])

    def _axis_partials(self, axis, points) -> np.ndarray:
        return _rows([self._partial(axis, x) for x in _finite_rows(points)])


class _CentralDifferenceField(ArrayField):
    """Values from an array function ``(N, 5) -> (N, 32)``; partials by
    central differences (error ``O(step^2)``), two calls of the function per
    axis."""

    def __init__(self, values_fn: Callable[[np.ndarray], np.ndarray], step: float):
        if not 0 < step < math.inf:
            raise ValueError(f"finite-difference step must be positive and finite, got {step!r}")
        self._values_fn, self.step = values_fn, step

    def values(self, points) -> np.ndarray:
        return self._values_fn(as_points(points))

    def _axis_partials(self, axis, points) -> np.ndarray:
        """``(f(x + step e_axis) - f(x - step e_axis)) / (2 step)`` per row."""
        pts = as_points(points)
        fwd, bwd = pts.copy(), pts.copy()
        fwd[:, axis] += self.step
        bwd[:, axis] -= self.step
        return (self._values_fn(fwd) - self._values_fn(bwd)) / (2 * self.step)


class FiniteDifferenceField(_CentralDifferenceField):
    """Central-difference derivatives (O(step^2)) around a per-point value
    callable, which never sees a point that is not finite: such a point
    raises, named as the callable would have received it."""

    def __init__(self, value_fn: Callable[[np.ndarray], Multivector], step: float = DEFAULT_FD_STEP):
        super().__init__(lambda pts: _rows([value_fn(x) for x in _finite_rows(pts)]), step)


class ConstantField(ArrayField):
    """One multivector at every point; a point that is not finite raises."""

    def __init__(self, mv: Multivector):
        self._mv = mv

    def values(self, points) -> np.ndarray:
        return _rows([self._mv for _ in _finite_rows(points)])

    def partials(self, points) -> np.ndarray:
        return np.zeros((5, *self.values(points).shape))


class PhaseField(ArrayField):
    """``A cos(k.x) + B sin(k.x)`` with constant ``A``, ``B`` and lower-index ``k``.

    ``A``, ``B`` and ``k`` are one row each, or ``N`` rows ``(N, 32)`` and
    ``(N, 5)`` paired with the rows of an ``(N, 5)`` point array, so that
    ``N`` waves at one point each are one field.  Each phase is the dot
    product of a ``k`` with one point (``np.vdot``, the kernel of ``np.dot``
    on 1-D rows) and goes through ``math.cos`` and ``math.sin``, so every
    point's value is independent of the batch it is evaluated in (a
    matrix-vector product can round the phases differently).  A phase that
    is not finite (a NaN or infinite coordinate) raises.
    """

    def __init__(self, cos_amp, sin_amp, k_low):
        # the amplitudes are multivectors or their coefficient rows
        self._cos_amp = np.asarray(getattr(cos_amp, "coeffs", cos_amp), dtype=np.float64)
        self._sin_amp = np.asarray(getattr(sin_amp, "coeffs", sin_amp), dtype=np.float64)
        self._k_low = np.array(k_low, dtype=np.float64)
        if self._k_low.shape[-1:] != (5,) or self._k_low.ndim > 2:
            raise ValueError(f"k must have shape (5,) or (N, 5), got {self._k_low.shape}")
        self._k_low.setflags(write=False)
        # k as the column that scales the partials: (5, 1, 1) for one k,
        # (5, N, 1) for one k per point
        self._k_column = self._k_low.T.reshape(5, -1, 1)
        # U = [A, B] and V = [B, -A], each (2, 1 or N, 32): U cos + V sin
        # holds the values A cos + B sin and the slope B cos - A sin
        a, b, shape = self._cos_amp, self._sin_amp, (2, -1, self._cos_amp.shape[-1])
        self._cos_terms = np.stack(np.broadcast_arrays(a, b)).reshape(shape)
        self._sin_terms = np.stack(np.broadcast_arrays(b, -a)).reshape(shape)

    def _cos_sin(self, points) -> tuple[np.ndarray, np.ndarray]:
        pts = as_points(points)
        ks = self._k_low
        if ks.ndim == 1:
            ks = [ks] * len(pts)
        elif len(ks) != len(pts):
            raise ValueError(f"{len(ks)} rows of k cannot pair with {len(pts)} points")
        # np.vdot runs np.dot's kernel on 1-D rows (the same bits) but checks
        # no floating-point flags, so a phase that is not finite raises below
        # with no RuntimeWarning printed first
        phases = [float(np.vdot(k, x)) for k, x in zip(ks, pts)]
        for n, th in enumerate(phases):
            if not math.isfinite(th):
                row = pts[n].tolist()
                raise ValueError(f"the phase k.x = {th} at point row {n} {row} is not finite")
        cos = np.fromiter(map(math.cos, phases), np.float64, len(phases))
        sin = np.fromiter(map(math.sin, phases), np.float64, len(phases))
        return cos[:, None], sin[:, None]

    def values(self, points) -> np.ndarray:
        cos, sin = self._cos_sin(points)
        return self._cos_amp * cos + self._sin_amp * sin

    def partials(self, points) -> np.ndarray:
        cos, sin = self._cos_sin(points)
        return self._k_column * (self._cos_terms[1] * cos + self._sin_terms[1] * sin)

    def _jet(self, points) -> np.ndarray:
        cos, sin = self._cos_sin(points)
        value_slope = self._cos_terms * cos
        value_slope += self._sin_terms * sin
        jet = np.empty((6, *value_slope.shape[1:]))
        jet[0] = value_slope[0]
        np.multiply(self._k_column, value_slope[1], out=jet[1:])
        return jet


def random_points(rng: np.random.Generator, count: int, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(-scale, scale, size=(count, 5))
