"""Demonstrations of what the five-dimensional wave equation predicts once the
field is allowed to vary along the second time axis.

Three effects are implemented, all driven by the pair form of the wave
equation on the idempotent halves ``xi_plus`` / ``xi_minus``.  Its two signs
differ only in which half leads: :func:`pair_residuals` ``(lead, trail, ...)``
evaluates ``e4 d^4 lead + e_mu d^mu trail - m trail e0e1e2``, the upper sign
on ``(xi_plus, xi_minus)`` and the lower sign on ``(xi_minus, xi_plus)``.

* **Induced scalar potential** — when the minus half is (nearly) constant over
  a spacetime region and the mass is non-zero, the minus half can be expressed
  through the second-time derivative of the plus half.  Substituting it back
  turns the pair equation into a four-dimensional Dirac equation whose extra
  term acts as a scalar potential of strength ``s``, with the plus half
  satisfying the eigenvalue relation ``d4 d4 xi_plus = m s xi_plus``.
  :class:`ScalarPotentialDemo` builds an exact such field from a separable
  profile times a plane-wave carrier of shifted mass ``m + s``.

* **Massless consistency** — at zero mass the same constraint forces the plus
  half to be flat along the second time axis; :func:`fermion5d.spinor.
  cylinder_check` on the plus half verifies the implication on concrete
  fields (``e4 d^4`` is a signed permutation, so ``|e4 d^4 xi_plus|`` and
  ``|d4 xi_plus|`` have the same sup-norm).

* **Source current** — at zero mass the remaining pair equation reads like the
  sourced Maxwell equation ``e_mu d^mu psi = -4 pi J`` with
  ``J = (1/4pi) e4 d^4 xi_minus``.  The current is structurally confined to
  grade-1 and grade-3 blades free of the second time generator, and the
  near-constancy constraint on the minus half makes its vector part conserved
  in four dimensions.  :func:`source_current` builds ``J``, enforces the grade
  structure exactly, and checks the sourced equation on paired fields.

Every field built here evaluates whole ``(N, 5)`` point arrays with array
operations, and each computation has one batch function (``pair_residuals``,
``scalar_potential_residuals``, ...) with one row per point.  A per-point
form is that batch on one point and exists only where ``perfbench`` calls it.

Index convention: raising the second-time index flips the sign of the
derivative (``d^4 = -d_4``), exactly as in :mod:`fermion5d.wave`.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .algebra import CL32, BladeOperator, Multivector, e
from .fields import ArrayField, PhaseField, add_gradient, as_point, as_points
from .fields import _CentralDifferenceField
from .wave import hestenes_plane_wave_field

__all__ = [
    "DEMO_GRID_POINTS",
    "DEMO_GRID_SPACING",
    "CURRENT_MASKS",
    "FORBIDDEN_CURRENT_MASKS",
    "SECOND_TIME_EVEN_MASKS",
    "GradeStructureError",
    "MINUS_CONSTANCY_BOUND",
    "ScalarPotentialDemo",
    "minus_constancy_ratio",
    "SourceCurrent",
    "demo_grid",
    "derived_minus_field",
    "oscillating_source_pair",
    "pair_residuals",
    "random_minus_wave",
    "scalar_potential_residual",
    "scalar_potential_residuals",
    "second_time_gradients",
    "source_current",
    "sourced_massless_residual",
    "sourced_massless_residuals",
    "spacetime_gradients",
]

_E01 = e(CL32, 0, 1)
_E04 = e(CL32, 0, 4)
_LEFT_E4 = BladeOperator.left(e(CL32, 4))  # x -> e4 x
_RIGHT_E012 = BladeOperator.right(e(CL32, 0, 1, 2))  # x -> x e012
FOUR_PI = 4.0 * math.pi

#: Default sampling lattice for the numerical demos: 9 points per axis,
#: spacing 0.05 in natural units, centred on the origin.
DEMO_GRID_POINTS = 9
DEMO_GRID_SPACING = 0.05

#: Even blades that contain the second time generator: the support of a
#: minus-half field (a grade-4 part plus bivectors, every blade with e4).
SECOND_TIME_EVEN_MASKS = tuple(
    m for m in range(32) if bin(m).count("1") % 2 == 0 and (m >> 4) & 1
)

#: Blades a source current may occupy: grades 1 and 3, free of e4.
CURRENT_MASKS = frozenset(
    m for m in range(32) if bin(m).count("1") in (1, 3) and not (m >> 4) & 1
)
#: The other blades, ascending: a source current must leave them empty.
FORBIDDEN_CURRENT_MASKS = np.array([m for m in range(32) if m not in CURRENT_MASKS])
FORBIDDEN_CURRENT_MASKS.setflags(write=False)


def _column(values) -> np.ndarray:
    """Per-point scalars as an ``(N, 1)`` column that scales coefficient rows."""
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def spacetime_gradients(field: ArrayField, points) -> np.ndarray:
    """``sum_mu e_mu d^mu field`` over the four spacetime axes (0..3), one row
    per point of an ``(N, 5)`` array."""
    partials = field.partials(as_points(points))
    return add_gradient(np.zeros(partials.shape[1:]), partials, range(4))


def second_time_gradients(field: ArrayField, points) -> np.ndarray:
    """``e4 d^4 field`` at every row of ``points`` (raised index: ``d^4 = -d_4``)."""
    partials = field.partials(as_points(points))
    # -0.0 + t == t for every t, signed zeros included: the sum is the term
    return add_gradient(np.full(partials.shape[1:], -0.0), partials, (4,))


def pair_residuals(lead: ArrayField, trail: ArrayField, mass: float, points) -> np.ndarray:
    """Residual ``e4 d^4 lead + e_mu d^mu trail - m trail e0e1e2`` of the pair
    equation on the idempotent halves, one row per point of an ``(N, 5)``
    array.

    The upper sign is ``(lead, trail) = (xi_plus, xi_minus)`` and the lower
    sign ``(xi_minus, xi_plus)``.  A zero row means that equation holds there.
    """
    pts = as_points(points)
    values, partials = trail.samples(pts)
    spacetime = add_gradient(np.zeros_like(values), partials, range(4))
    return second_time_gradients(lead, pts) + spacetime - mass * _RIGHT_E012(values)


# ---------------------------------------------------------------------------
# induced scalar potential
# ---------------------------------------------------------------------------


class _ProfileField(ArrayField):
    """``f^(n)(x4) psi(x)``, or with a mass ``m`` its image ``e4 (-f^(n) psi)
    e012 / m``: a derivative of a second-time profile ``f`` times a carrier
    field ``psi``.

    ``f`` is evaluated point by point (``math.exp``, ``math.cos``), so a
    point's value does not depend on its batch.  ``d/dx4`` raises the order;
    the spacetime partials are the carrier's.  ``values`` evaluates
    ``f^(n)`` and the jet ``f^(n)`` and ``f^(n+1)``, each once per point, on
    one evaluation of the carrier's jet, which ``f^(n)`` scales whole.
    """

    def __init__(
        self, profile: Callable[[float, int], float], carrier: ArrayField, order: int, mass=None
    ):
        self._profile, self._carrier, self._order, self._mass = profile, carrier, order, mass

    def _scaled(self, order: int, pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``rows`` (``(..., N, 32)``, such as a jet) times ``f^(order)`` at
        the points, mapped as above when there is a mass."""
        prof = _column([self._profile(w, order) for w in pts[:, 4]])
        if self._mass is None:
            return prof * rows
        return _RIGHT_E012(_LEFT_E4(-prof * rows)) / self._mass

    def values(self, points) -> np.ndarray:
        pts = as_points(points)
        return self._scaled(self._order, pts, self._carrier.values(pts))

    def _jet(self, points) -> np.ndarray:
        pts = as_points(points)
        carrier = self._carrier._jet(pts)
        jet = self._scaled(self._order, pts, carrier)
        jet[5] = self._scaled(self._order + 1, pts, carrier[0])
        return jet

    def partials(self, points) -> np.ndarray:
        return self._jet(points)[1:]


class ScalarPotentialDemo:
    """Separable field whose second-time profile acts as a scalar potential.

    The plus half is built as ``xi_plus(x) = f(x4) * psi(x0..x3)`` where the
    profile satisfies ``f'' = (m s) f`` and the carrier ``psi`` is a plane wave
    of the four-dimensional Dirac equation at the shifted mass ``m + s``.  By
    construction the field then satisfies, pointwise and exactly:

    * the second-derivative eigenvalue relation ``d4 d4 xi_plus
      = m s xi_plus``;
    * the four-dimensional Dirac equation with a scalar potential of
      strength ``s``.

    For ``s >= 0`` the profile is the growing exponential
    ``exp(sqrt(m s) x4)``; for ``s < 0`` the relation makes the profile
    oscillatory (``cos(sqrt(-m s) x4)``), a regime the construction supports
    but that the demos leave unexplored.  ``s = 0`` freezes the profile and
    restores a field flat along the second time axis.
    """

    def __init__(
        self, mass: float, potential: float, k_spatial: Sequence[float] = (0.0, 0.0, 0.0)
    ):
        if not mass > 0:
            raise ValueError(
                "the induced scalar potential requires a positive mass; the "
                "massless case forces the field flat along the second time axis"
            )
        if mass == math.inf:
            raise ValueError("the mass must be finite")
        if not math.isfinite(potential):
            raise ValueError("the scalar potential strength must be finite")
        self.mass = float(mass)
        self.potential = float(potential)
        self._rate = math.sqrt(abs(self.mass * self.potential))
        if not math.isfinite(self._rate):
            raise ValueError("the profile rate sqrt(|mass * potential|) overflows")
        self.carrier = hestenes_plane_wave_field(k_spatial, self.mass + self.potential)
        #: The plus half ``f(x4) psi``, with exact analytic partials.
        self.xi_plus = _ProfileField(self.profile, self.carrier, 0)
        #: ``d4 d4 xi_plus = f''(x4) psi`` from the profile (not via the
        #: eigenvalue), as a field.
        self.curvature = _ProfileField(self.profile, self.carrier, 2)

    def profile(self, w: float, order: int = 0) -> float:
        """The second-time profile ``f`` or one of its derivatives at ``w``."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if self.potential >= 0:
            return self._rate**order * math.exp(self._rate * w)
        phase = math.cos if order % 2 == 0 else math.sin
        sign = -1.0 if order % 4 in (1, 2) else 1.0
        return sign * self._rate**order * phase(self._rate * w)

    def eigen_residuals(self, points) -> np.ndarray:
        """Sup-norm of ``d4 d4 xi_plus - m s xi_plus`` at every row of an
        ``(N, 5)`` point array (should vanish)."""
        pts = as_points(points)
        delta = self.curvature.values(pts) - self.mass * self.potential * self.xi_plus.values(pts)
        return np.abs(delta).max(axis=1)

    def derived_minus(self) -> ArrayField:
        """Minus half reconstructed from the plus half at non-zero mass.

        Implements ``xi_minus = (1/m) e4 d^4 xi_plus e0 e1 e2`` with exact
        analytic partials (the second-time derivative uses the profile's
        second derivative).
        """
        return _ProfileField(self.profile, self.carrier, 1, self.mass)


def scalar_potential_residuals(demo: ScalarPotentialDemo, points) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scalar_potential_residual` at every row of an ``(N, 5)`` point array."""
    pts = as_points(points)
    # one carrier evaluation gives xi_plus = f psi, its spacetime partials
    # f d_mu psi and the curvature f'' psi; f' psi (the d4 partial) is not read
    carrier = demo.carrier._jet(pts)
    jet = demo.xi_plus._scaled(0, pts, carrier[:5])
    curvature = demo.xi_plus._scaled(2, pts, carrier[0])
    values = jet[0]
    right = _RIGHT_E012(values)
    common = add_gradient(np.zeros_like(values), jet[1:], range(4)) - demo.mass * right
    second_form = common - _RIGHT_E012(curvature) / demo.mass
    potential_form = common - demo.potential * right
    return second_form, potential_form


def scalar_potential_residual(
    demo: ScalarPotentialDemo, x: Sequence[float]
) -> tuple[Multivector, Multivector]:
    """Residuals of the two equivalent forms of the reduced equation.

    Returns ``(second_derivative_form, potential_form)``:

    * the second-derivative form couples the plus half to its own second-time
      curvature: ``-(1/m) d4 d4 xi_plus e0e1e2 + e_mu d^mu xi_plus
      - m xi_plus e0e1e2``;
    * the potential form is the four-dimensional Dirac equation with scalar
      potential ``s``: ``-s xi_plus e0e1e2 + e_mu d^mu xi_plus
      - m xi_plus e0e1e2``.

    Both vanish on the demo field; their difference vanishing is exactly the
    eigenvalue relation between the second-time curvature and ``m s``.
    """
    second_form, potential_form = scalar_potential_residuals(demo, [as_point(x)])
    return Multivector(second_form[0]), Multivector(potential_form[0])


def derived_minus_field(
    xi_plus: ArrayField, mass: float, step: float = DEMO_GRID_SPACING
) -> ArrayField:
    """Minus half ``(1/m) e4 d^4 xi_plus e0 e1 e2`` for a generic plus half.

    Only first derivatives of ``xi_plus`` are available through the field
    protocol, so the returned field differentiates the reconstructed values by
    central differences (error ``O(step^2)``).  Prefer
    :meth:`ScalarPotentialDemo.derived_minus` when the profile is analytic.
    """
    if mass == 0:
        raise ValueError(
            "the minus half can only be reconstructed at non-zero mass; at "
            "zero mass the constraint forces the plus half flat along the "
            "second time axis instead"
        )
    return _CentralDifferenceField(
        lambda pts: _RIGHT_E012(second_time_gradients(xi_plus, pts)) / mass, step
    )


#: Operational reading of "the minus half is nearly constant": its spacetime
#: variation must be below this fraction of its second-time variation.  The
#: bound matters only for user-supplied fields; the bundled demos either use
#: an exactly constant minus half or realize the reduced equations as exact
#: identities by construction.
MINUS_CONSTANCY_BOUND = 1e-6


def minus_constancy_ratio(xi_minus: ArrayField, points) -> float:
    """``sup ||d^mu xi_minus|| / sup ||d^4 xi_minus||`` over the samples.

    Gauges how well the near-constancy constraint holds for a user-supplied
    minus half; compare against :data:`MINUS_CONSTANCY_BOUND`.  Returns
    ``inf`` when the field does not vary along the second time axis at all
    but does vary in spacetime, and ``0.0`` for a fully constant field.  A
    NaN partial also gives ``inf``, so that no bound passes it.
    """
    if len(points) == 0:
        raise ValueError("at least one sample point is required")
    partials = np.abs(xi_minus.partials(as_points(points)))
    spacetime, second_time = float(np.max(partials[:4])), float(np.max(partials[4]))
    if spacetime == 0.0 and second_time == 0.0:
        return 0.0
    ratio = spacetime / second_time if second_time != 0.0 else math.inf
    return math.inf if math.isnan(ratio) else ratio


# ---------------------------------------------------------------------------
# source current
# ---------------------------------------------------------------------------


class GradeStructureError(ValueError):
    """A source current carried coefficients on forbidden blades."""

    def __init__(self, blades: Sequence[str]):
        self.blades = tuple(blades)
        super().__init__(
            "source current has non-zero coefficients on forbidden blades: "
            + ", ".join(self.blades)
            + "; only grade-1 and grade-3 blades free of the second time "
            "generator are allowed"
        )


def _forbidden_blades(rows: np.ndarray) -> list[str]:
    """Names of the forbidden blades that are non-zero in some row, ascending."""
    hit = np.any(rows[:, FORBIDDEN_CURRENT_MASKS] != 0.0, axis=0)
    return [CL32.blade_name(int(mask)) for mask in FORBIDDEN_CURRENT_MASKS[hit]]


class SourceCurrent:
    """The current ``J = (1/4pi) e4 d^4 xi_minus`` induced by the minus half.

    Values are structurally confined to grade-1 and grade-3 blades free of the
    second time generator; every evaluation enforces this exactly and raises
    :class:`GradeStructureError` on violation (which would indicate either an
    algebra bug or a field that is not a genuine minus half).
    """

    def __init__(self, xi_minus: ArrayField):
        self._xi_minus = xi_minus

    def values(self, points) -> np.ndarray:
        """The current at every row of ``points``; the error names every
        forbidden blade that is non-zero at some row."""
        current = second_time_gradients(self._xi_minus, points) / FOUR_PI
        offending = _forbidden_blades(current)
        if offending:
            raise GradeStructureError(offending)
        return current

    def value(self, x: Sequence[float]) -> Multivector:
        return Multivector(self.values([as_point(x)])[0])

    def divergences(self, points, step: float = DEMO_GRID_SPACING) -> np.ndarray:
        """Four-dimensional divergence of the grade-1 part, ``sum_mu d_mu J^mu``,
        at every row of an ``(N, 5)`` point array.

        Central differences along the four spacetime axes (error
        ``O(step^2)``); near-constancy of the minus half over the region makes
        this vanish.
        """
        sampled = _CentralDifferenceField(self.values, step)
        pts = as_points(points)
        return sum(sampled._axis_partials(mu, pts)[:, 1 << mu] for mu in range(4))


def sourced_massless_residuals(xi_plus: ArrayField, current: SourceCurrent, points) -> np.ndarray:
    """:func:`sourced_massless_residual` at every row of an ``(N, 5)`` point array."""
    pts = as_points(points)
    return spacetime_gradients(xi_plus, pts) + FOUR_PI * current.values(pts)


def sourced_massless_residual(
    xi_plus: ArrayField, current: SourceCurrent, x: Sequence[float]
) -> Multivector:
    """Residual of the sourced zero-mass equation ``e_mu d^mu psi = -4 pi J``.

    With the plus half written as the wave function ``psi``, this is the
    lower-sign pair equation at zero mass rearranged around the induced
    current.
    """
    return Multivector(sourced_massless_residuals(xi_plus, current, [as_point(x)])[0])


def source_current(
    xi_minus: ArrayField, xi_plus: ArrayField, points, tolerance: float = 1e-9
) -> SourceCurrent:
    """Build the induced current and verify the sourced equation on a pair.

    The pair is checked against the sourced zero-mass equation at every row
    of ``points`` (sup-norm residual below ``tolerance``; a NaN residual
    fails), and the current's grade structure is enforced there.  Returns
    the :class:`SourceCurrent`.  Raises ``ValueError`` on zero points.
    """
    if not len(points):
        raise ValueError("at least one sample point is required")
    current = SourceCurrent(xi_minus)
    worst = float(np.max(np.abs(sourced_massless_residuals(xi_plus, current, points))))
    if not worst < tolerance:
        raise ValueError(
            f"paired fields do not satisfy the sourced zero-mass "
            f"equation: residual {worst:.3e} >= {tolerance:.1e}"
        )
    return current


class _SourcePlusHalf(ArrayField):
    """``-x1 cos(x4) e0e1``, the plus half of :func:`oscillating_source_pair`."""

    def values(self, points) -> np.ndarray:
        pts = as_points(points)
        return _column([-x1 * math.cos(w) for x1, w in pts[:, [1, 4]]]) * _E01.coeffs

    def partials(self, points) -> np.ndarray:
        pts = as_points(points)
        out = np.zeros((5, len(pts), CL32.n_blades))
        out[1] = _column([-math.cos(w) for w in pts[:, 4]]) * _E01.coeffs
        out[4] = _column([x1 * math.sin(w) for x1, w in pts[:, [1, 4]]]) * _E01.coeffs
        return out


def oscillating_source_pair() -> tuple[ArrayField, PhaseField]:
    """An exact zero-mass solution pair with a non-trivial induced current.

    ``xi_plus = -x1 cos(x4) e0e1`` and ``xi_minus = sin(x4) e0e4`` satisfy the
    lower-sign pair equation at zero mass identically; the minus half is
    spatially constant, and the induced current is the pure spacetime vector
    ``J = -(cos(x4) / 4pi) e0``.
    """
    xi_minus = PhaseField(Multivector.zero(CL32), _E04, (0.0, 0.0, 0.0, 0.0, 1.0))
    return _SourcePlusHalf(), xi_minus


def random_minus_wave(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, B, w)`` of a random minus field, drawn in that order.

    ``A`` and ``B`` are even amplitudes confined to blades containing the
    second time generator, ``w`` is uniform in ``[-1, 1]^5``.
    ``PhaseField(*random_minus_wave(rng))`` is the field ``A cos(w . x)
    + B sin(w . x)``; it and all its partials stay on those blades.
    """
    masks = list(SECOND_TIME_EVEN_MASKS)
    amps = np.zeros((2, CL32.n_blades))
    for amp in amps:
        amp[masks] = rng.standard_normal(len(masks))
    return amps[0], amps[1], rng.uniform(-1.0, 1.0, size=5)


def demo_grid() -> np.ndarray:
    """The default demo lattice, ``(DEMO_GRID_POINTS**5, 5)``: ``DEMO_GRID_POINTS``
    per axis at ``DEMO_GRID_SPACING`` spacing, centred on the origin."""
    half = DEMO_GRID_SPACING * (DEMO_GRID_POINTS - 1) / 2.0
    axis = np.linspace(-half, half, DEMO_GRID_POINTS)
    return np.stack([g.ravel() for g in np.meshgrid(*([axis] * 5), indexing="ij")], axis=1)
