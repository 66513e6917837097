"""Demonstrations of what the five-dimensional wave equation predicts once the
field is allowed to vary along the second time axis.

Three effects are implemented, all driven by the pair form of the wave
equation on the idempotent halves ``xi_plus`` / ``xi_minus``:

* **Induced scalar potential** — when the minus half is (nearly) constant over
  a spacetime region and the mass is non-zero, the minus half can be expressed
  through the second-time derivative of the plus half.  Substituting it back
  turns the pair equation into a four-dimensional Dirac equation whose extra
  term acts as a scalar potential of strength ``s``, with the plus half
  satisfying the eigenvalue relation ``d4 d4 xi_plus = m s xi_plus``.
  :class:`ScalarPotentialDemo` builds an exact such field from a separable
  profile times a plane-wave carrier of shifted mass ``m + s``.

* **Massless consistency** — at zero mass the same constraint forces the plus
  half to be flat along the second time axis; :func:`massless_consistency`
  verifies the implication on concrete fields.

* **Source current** — at zero mass the remaining pair equation reads like the
  sourced Maxwell equation ``e_mu d^mu psi = -4 pi J`` with
  ``J = (1/4pi) e4 d^4 xi_minus``.  The current is structurally confined to
  grade-1 and grade-3 blades free of the second time generator, and the
  near-constancy constraint on the minus half makes its vector part conserved
  in four dimensions.  :func:`source_current` builds ``J``, enforces the grade
  structure exactly, and checks the sourced equation on paired fields.

Index convention: raising the second-time index flips the sign of the
derivative (``d^4 = -d_4``), exactly as in :mod:`fermion5d.wave`.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import CL32, Multivector, e
from .fields import (
    METRIC_SIGNS,
    AnalyticField,
    Field5,
    FiniteDifferenceField,
    as_point,
    sample_grid,
)
from .wave import hestenes_plane_wave_field

__all__ = [
    "DEMO_GRID_POINTS",
    "DEMO_GRID_SPACING",
    "CURRENT_MASKS",
    "SECOND_TIME_EVEN_MASKS",
    "GradeStructureError",
    "MINUS_CONSTANCY_BOUND",
    "ScalarPotentialDemo",
    "minus_constancy_ratio",
    "SourceCurrent",
    "demo_grid",
    "derived_minus_field",
    "grade_structure_violations",
    "massless_consistency",
    "oscillating_source_pair",
    "pair_residual",
    "random_minus_field",
    "scalar_potential_residual",
    "source_current",
    "sourced_massless_residual",
    "spacetime_gradient",
]

_E4 = e(CL32, 4)
_E012 = e(CL32, 0, 1, 2)
_E_BLADES = tuple(e(CL32, a) for a in range(5))
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


def spacetime_gradient(field: Field5, x: Sequence[float]) -> Multivector:
    """``sum_mu e_mu d^mu field`` over the four spacetime axes (0..3)."""
    pt = as_point(x)
    total = Multivector.zero(CL32)
    for mu in range(4):
        total = total + float(METRIC_SIGNS[mu]) * (_E_BLADES[mu] * field.partial(mu, pt))
    return total


def second_time_gradient(field: Field5, x: Sequence[float]) -> Multivector:
    """``e4 d^4 field`` at a point (raised index: ``d^4 = -d_4``)."""
    pt = as_point(x)
    return float(METRIC_SIGNS[4]) * (_E4 * field.partial(4, pt))


def pair_residual(
    xi_plus: Field5,
    xi_minus: Field5,
    mass: float,
    x: Sequence[float],
    sign: str,
) -> Multivector:
    """Residual of one sign of the pair equation on the idempotent halves.

    ``sign='upper'`` evaluates ``e4 d^4 xi_plus + e_mu d^mu xi_minus
    - m xi_minus e0e1e2`` and ``sign='lower'`` the same with the halves
    swapped.  A zero residual means the corresponding equation holds.
    """
    if sign == "upper":
        lead, trail = xi_plus, xi_minus
    elif sign == "lower":
        lead, trail = xi_minus, xi_plus
    else:
        raise ValueError("sign must be 'upper' or 'lower'")
    return (
        second_time_gradient(lead, x)
        + spacetime_gradient(trail, x)
        - mass * (trail.value(as_point(x)) * _E012)
    )


# ---------------------------------------------------------------------------
# induced scalar potential
# ---------------------------------------------------------------------------


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
        self,
        mass: float,
        potential: float,
        k_spatial: Sequence[float] = (0.0, 0.0, 0.0),
        amplitude: Multivector | None = None,
    ):
        if mass <= 0:
            raise ValueError(
                "the induced scalar potential requires a positive mass; the "
                "massless case forces the field flat along the second time axis"
            )
        self.mass = float(mass)
        self.potential = float(potential)
        rate = math.sqrt(abs(self.mass * self.potential))
        if not math.isfinite(rate):
            raise ValueError("the profile rate sqrt(|mass * potential|) overflows")
        self.carrier = hestenes_plane_wave_field(
            k_spatial, self.mass + self.potential, amplitude
        )
        if self.potential >= 0:

            def profile(w: float, order: int) -> float:
                return rate**order * math.exp(rate * w)

        else:

            def profile(w: float, order: int) -> float:
                phase = math.cos if order % 2 == 0 else math.sin
                sign = -1.0 if order % 4 in (1, 2) else 1.0
                return sign * rate**order * phase(rate * w)

        self._profile = profile

        def value(pt: np.ndarray) -> Multivector:
            return profile(pt[4], 0) * self.carrier.value(pt)

        def partial(axis: int, pt: np.ndarray) -> Multivector:
            if axis == 4:
                return profile(pt[4], 1) * self.carrier.value(pt)
            return profile(pt[4], 0) * self.carrier.partial(axis, pt)

        #: The plus half ``f(x4) psi``, with exact analytic partials.
        self.xi_plus = AnalyticField(value, partial)

    def profile(self, w: float, order: int = 0) -> float:
        """The second-time profile ``f`` or one of its derivatives at ``w``."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return self._profile(w, order)

    def second_time_second_partial(self, x: Sequence[float]) -> Multivector:
        """``d4 d4 xi_plus`` from the analytic profile (not via the eigenvalue)."""
        pt = as_point(x)
        return self._profile(pt[4], 2) * self.carrier.value(pt)

    def eigen_residual(self, x: Sequence[float]) -> float:
        """Sup-norm of ``d4 d4 xi_plus - m s xi_plus`` (should vanish)."""
        pt = as_point(x)
        delta = self.second_time_second_partial(pt) - (
            self.mass * self.potential
        ) * self.xi_plus.value(pt)
        return delta.inf_norm()

    def derived_minus(self) -> AnalyticField:
        """Minus half reconstructed from the plus half at non-zero mass.

        Implements ``xi_minus = (1/m) e4 d^4 xi_plus e0 e1 e2`` with exact
        analytic partials (the second-time derivative uses the profile's
        second derivative).
        """
        mass = self.mass
        profile = self._profile
        carrier = self.carrier

        def value(pt: np.ndarray) -> Multivector:
            d4_raised = -profile(pt[4], 1) * carrier.value(pt)
            return (_E4 * d4_raised * _E012) / mass

        def partial(axis: int, pt: np.ndarray) -> Multivector:
            if axis == 4:
                core = -profile(pt[4], 2) * carrier.value(pt)
            else:
                core = -profile(pt[4], 1) * carrier.partial(axis, pt)
            return (_E4 * core * _E012) / mass

        return AnalyticField(value, partial)


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
    pt = as_point(x)
    xi = demo.xi_plus
    grad = spacetime_gradient(xi, pt)
    val = xi.value(pt)
    common = grad - demo.mass * (val * _E012)
    second_form = common - (demo.second_time_second_partial(pt) * _E012) / demo.mass
    potential_form = common - demo.potential * (val * _E012)
    return second_form, potential_form


def derived_minus_field(
    xi_plus: Field5, mass: float, step: float = DEMO_GRID_SPACING
) -> FiniteDifferenceField:
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

    def value(pt: np.ndarray) -> Multivector:
        return (second_time_gradient(xi_plus, pt) * _E012) / mass

    return FiniteDifferenceField(value, step)


#: Operational reading of "the minus half is nearly constant": its spacetime
#: variation must be below this fraction of its second-time variation.  The
#: bound matters only for user-supplied fields; the bundled demos either use
#: an exactly constant minus half or realize the reduced equations as exact
#: identities by construction.
MINUS_CONSTANCY_BOUND = 1e-6


def minus_constancy_ratio(
    xi_minus: Field5, points: Sequence[Sequence[float]]
) -> float:
    """``sup ||d^mu xi_minus|| / sup ||d^4 xi_minus||`` over the samples.

    Gauges how well the near-constancy constraint holds for a user-supplied
    minus half; compare against :data:`MINUS_CONSTANCY_BOUND`.  Returns
    ``inf`` when the field does not vary along the second time axis at all
    but does vary in spacetime, and ``0.0`` for a fully constant field.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("minus_constancy_ratio requires a non-empty sample set")
    spacetime = max(
        xi_minus.partial(mu, pt).inf_norm() for pt in pts for mu in range(4)
    )
    second_time = max(xi_minus.partial(4, pt).inf_norm() for pt in pts)
    if second_time == 0.0:
        return 0.0 if spacetime == 0.0 else math.inf
    return spacetime / second_time


# ---------------------------------------------------------------------------
# massless consistency
# ---------------------------------------------------------------------------


def massless_consistency(
    xi_plus: Field5, points: Sequence[Sequence[float]], tolerance: float = 1e-10
) -> bool:
    """At zero mass, a frozen minus half forces ``e4 d^4 xi_plus = 0``.

    Returns True iff the flatness actually holds on the sample set:
    ``sup_x ||e4 d^4 xi_plus(x)|| < tolerance``.  A False result means the
    supplied plus half genuinely varies along the second time axis, so the
    constancy constraint and the zero-mass equation cannot both hold.
    """
    pts = list(points)
    if not pts:
        raise ValueError("massless_consistency requires a non-empty sample set")
    sup = max(second_time_gradient(xi_plus, pt).inf_norm() for pt in pts)
    return sup < tolerance


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


def grade_structure_violations(mv: Multivector) -> list[str]:
    """Names of blades with non-zero coefficients outside the current's support."""
    if mv.signature != CL32:
        raise ValueError("grade structure is defined on the Cl(3,2) algebra")
    return [
        CL32.blade_name(mask)
        for mask in range(CL32.n_blades)
        if mask not in CURRENT_MASKS and mv.coeffs[mask] != 0.0
    ]


class SourceCurrent:
    """The current ``J = (1/4pi) e4 d^4 xi_minus`` induced by the minus half.

    Values are structurally confined to grade-1 and grade-3 blades free of the
    second time generator; every evaluation enforces this exactly and raises
    :class:`GradeStructureError` on violation (which would indicate either an
    algebra bug or a field that is not a genuine minus half).
    """

    def __init__(self, xi_minus: Field5):
        self._xi_minus = xi_minus

    def value(self, x: Sequence[float]) -> Multivector:
        current = second_time_gradient(self._xi_minus, x) / FOUR_PI
        offending = grade_structure_violations(current)
        if offending:
            raise GradeStructureError(offending)
        return current

    def vector_part(self, x: Sequence[float]) -> np.ndarray:
        """Components of the grade-1 part on ``e0..e3``."""
        val = self.value(x)
        return np.array([val.coeffs[1 << a] for a in range(4)])

    def divergence(self, x: Sequence[float], step: float = DEMO_GRID_SPACING) -> float:
        """Four-dimensional divergence of the grade-1 part, ``sum_mu d_mu J^mu``.

        Central differences along the four spacetime axes (error
        ``O(step^2)``); near-constancy of the minus half over the region makes
        this vanish.
        """
        if step <= 0:
            raise ValueError("finite-difference step must be positive")
        pt = as_point(x)
        total = 0.0
        for mu in range(4):
            fwd, bwd = pt.copy(), pt.copy()
            fwd[mu] += step
            bwd[mu] -= step
            total += (
                self.value(fwd).coeffs[1 << mu] - self.value(bwd).coeffs[1 << mu]
            ) / (2.0 * step)
        return float(total)


def sourced_massless_residual(
    xi_plus: Field5, current: SourceCurrent, x: Sequence[float]
) -> Multivector:
    """Residual of the sourced zero-mass equation ``e_mu d^mu psi = -4 pi J``.

    With the plus half written as the wave function ``psi``, this is the
    lower-sign pair equation at zero mass rearranged around the induced
    current.
    """
    return spacetime_gradient(xi_plus, x) + FOUR_PI * current.value(x)


def source_current(
    xi_minus: Field5,
    xi_plus: Field5 | None = None,
    points: Sequence[Sequence[float]] | None = None,
    tolerance: float = 1e-9,
) -> SourceCurrent:
    """Build the induced current and optionally verify the sourced equation.

    When both ``xi_plus`` and sample ``points`` are given, the pair is checked
    against the sourced zero-mass equation (sup-norm residual below
    ``tolerance``) and the current's grade structure is enforced at every
    sample point.  Returns the :class:`SourceCurrent`.
    """
    current = SourceCurrent(xi_minus)
    if points is not None:
        pts = [as_point(p) for p in points]
        for pt in pts:
            current.value(pt)  # enforces the grade structure
        if xi_plus is not None:
            worst = max(
                sourced_massless_residual(xi_plus, current, pt).inf_norm()
                for pt in pts
            )
            if worst >= tolerance:
                raise ValueError(
                    f"paired fields do not satisfy the sourced zero-mass "
                    f"equation: residual {worst:.3e} >= {tolerance:.1e}"
                )
    elif xi_plus is not None:
        raise ValueError("verifying the sourced equation requires sample points")
    return current


def oscillating_source_pair() -> tuple[AnalyticField, AnalyticField]:
    """An exact zero-mass solution pair with a non-trivial induced current.

    ``xi_plus = -x1 cos(x4) e0e1`` and ``xi_minus = sin(x4) e0e4`` satisfy the
    lower-sign pair equation at zero mass identically; the minus half is
    spatially constant, and the induced current is the pure spacetime vector
    ``J = -(cos(x4) / 4pi) e0``.
    """
    e01 = e(CL32, 0, 1)
    e04 = e(CL32, 0, 4)
    zero = Multivector.zero(CL32)

    def plus_value(pt: np.ndarray) -> Multivector:
        return (-pt[1] * math.cos(pt[4])) * e01

    def plus_partial(axis: int, pt: np.ndarray) -> Multivector:
        if axis == 1:
            return (-math.cos(pt[4])) * e01
        if axis == 4:
            return (pt[1] * math.sin(pt[4])) * e01
        return zero

    def minus_value(pt: np.ndarray) -> Multivector:
        return math.sin(pt[4]) * e04

    def minus_partial(axis: int, pt: np.ndarray) -> Multivector:
        if axis == 4:
            return math.cos(pt[4]) * e04
        return zero

    return AnalyticField(plus_value, plus_partial), AnalyticField(minus_value, minus_partial)


def random_minus_field(rng: np.random.Generator, frequency_scale: float = 1.0) -> AnalyticField:
    """Random smooth field supported on the minus half's blades.

    The value is ``A cos(w . x) + B sin(w . x)`` with random even amplitudes
    confined to blades containing the second time generator, so both the field
    and all its partials stay in the minus half's support.  Used to exercise
    the structural grade claims of the induced current.
    """
    masks = list(SECOND_TIME_EVEN_MASKS)

    def random_amplitude() -> Multivector:
        coeffs = np.zeros(CL32.n_blades)
        coeffs[masks] = rng.standard_normal(len(masks))
        return Multivector(coeffs, CL32)

    amp_a = random_amplitude()
    amp_b = random_amplitude()
    freq = rng.uniform(-frequency_scale, frequency_scale, size=5)

    def value(pt: np.ndarray) -> Multivector:
        phase = float(freq @ pt)
        return math.cos(phase) * amp_a + math.sin(phase) * amp_b

    def partial(axis: int, pt: np.ndarray) -> Multivector:
        phase = float(freq @ pt)
        return float(freq[axis]) * (
            -math.sin(phase) * amp_a + math.cos(phase) * amp_b
        )

    return AnalyticField(value, partial)


def demo_grid(center: Sequence[float] = (0.0, 0.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """The default demo lattice: ``DEMO_GRID_POINTS`` per axis at
    ``DEMO_GRID_SPACING`` spacing, centred on ``center``."""
    half = DEMO_GRID_SPACING * (DEMO_GRID_POINTS - 1) / 2.0
    return sample_grid(center, half, DEMO_GRID_POINTS)
