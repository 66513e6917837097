"""The five-dimensional wave equation in Cl(3,2) and its plane-wave solutions.

The free equation is ``e_A d^A phi = -E m phi`` for an even multivector field
``phi`` over coordinates (t, x, y, z, w), with ``E`` the unit pseudoscalar.
Oscillating solutions use a bivector ``gamma`` with ``gamma^2 = -1`` in place
of the complex unit:  ``phi(x) = amp * (cos(k.x) + gamma sin(k.x))``, where the
amplitude must satisfy the momentum constraint ``K amp gamma = -m E amp`` with
``K = k^A e_A``.  ``E`` is central, ``E^2 = 1`` and ``K^2 = -m^2`` on shell,
so ``amp = m c - E K c gamma`` solves it in closed form for every even ``c``
(:func:`plane_wave_amplitudes`).  The admissible phase bivectors are ``e1e2``
and ``e0*E`` (:class:`GammaChoice`).  Their trigonometric mixtures
(:func:`phase_mixture`) square to -1 only at integer multiples of pi/2, where
they are one of the two; :func:`gamma_classify` tells which, or rejects the
candidate.

The equation is written once: one residual sum serves the free form, the
form coupled to a grade-1 potential field ``A`` (``- charge A phi gamma``)
and the 4D Dirac form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CL32,
    BladeOperator,
    Multivector,
    e,
    even_masks,
    pseudoscalar,
    tables,
)
from .fields import (
    METRIC_SIGNS,
    ArrayField,
    PhaseField,
    as_point,
    as_points,
    minkowski_dot,
)
from .fields import _gradient_gather
from .spinor import _idempotent_half, pm_split

_PSEUDO = pseudoscalar(CL32)
_E12 = e(CL32, 1, 2)
_E34 = e(CL32, 3, 4)
_E012 = e(CL32, 0, 1, 2)
_E0E = e(CL32, 0) * _PSEUDO  # equals -e1e2e3e4
_PHASE_BIVECTORS = {"e12": _E12, "e0E": _E0E}

# the constant products of the free equations, as signed gathers
_LEFT_PSEUDO = BladeOperator.left(_PSEUDO)  # E x
_RIGHT_E012 = BladeOperator.right(_E012)  # x e012
_TIMES_E12 = BladeOperator.right(_E12)  # x e12

#: Even blades free of the second time generator (the 4D Dirac sector).
NO_E4_EVEN_MASKS = tuple(m for m in even_masks(CL32) if not m & 0b10000)

#: Largest ``|d4 phi|`` at which a field counts as flat along the second time axis.
CYLINDER_TOLERANCE = 1e-10

#: Largest ``|gamma^2 + 1|`` and distance to a pure variant that a phase
#: bivector may have.
GAMMA_TOLERANCE = 1e-12


class GammaRejectionError(ValueError):
    """A candidate phase bivector failed the admissibility identities."""

    def __init__(self, message: str, diagnostics: list[str]):
        super().__init__(message + ": " + "; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class GammaChoice:
    """Phase bivector playing the role of the complex unit.

    Two variants: ``e12`` (spatial rotation plane) and ``e0E`` (time axis
    times the pseudoscalar).  Any other candidate, such as a mixture from
    :func:`phase_mixture`, is a multivector that :func:`gamma_classify`
    turns into one of the two or rejects.
    """

    variant: str

    E12_VARIANT = "e12"
    E0E_VARIANT = "e0E"

    def __post_init__(self):
        if self.variant not in _PHASE_BIVECTORS:
            raise ValueError(f"unknown variant {self.variant!r}; expected 'e12' or 'e0E'")

    @classmethod
    def e12(cls) -> "GammaChoice":
        return cls(cls.E12_VARIANT)

    @classmethod
    def e0E(cls) -> "GammaChoice":
        return cls(cls.E0E_VARIANT)

    @classmethod
    def from_name(cls, name: str) -> "GammaChoice":
        key = name.strip().lower()
        if key == "e12":
            return cls.e12()
        if key == "e0e":
            return cls.e0E()
        raise ValueError(f"unknown phase bivector {name!r}; expected 'e12' or 'e0e'")

    def as_multivector(self) -> Multivector:
        return _PHASE_BIVECTORS[self.variant]


def phase_mixture(theta: float) -> Multivector:
    """The candidate ``cos^2(theta) e1e2 - sin^2(theta) e1e2e3e4``.

    It squares to -1 only at integer multiples of pi/2, where it is ``e1e2``
    (even multiples) or ``e0*E`` (odd ones); :func:`gamma_classify` returns
    that choice, or rejects the candidate off the lattice.
    """
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return _E12 * c2 - (_E12 * _E34) * s2


def gamma_classify(candidate: Multivector) -> GammaChoice:
    """Classify a multivector as one of the admissible phase bivectors.

    Checks (1) even grade content, (2) square equal to -1, and (3) the
    projection identity ``plus - minus*e3e4 == e1e2``; rejects with
    diagnostics when any fails, otherwise returns the matching variant.
    """
    diagnostics: list[str] = []
    if candidate.signature != CL32:
        raise GammaRejectionError("phase bivector rejected", ["not a Cl(3,2) multivector"])
    if not candidate.is_even:
        diagnostics.append("has odd-grade content")
    square_err = (candidate * candidate + 1).inf_norm()
    if square_err > GAMMA_TOLERANCE:
        diagnostics.append(f"square differs from -1 by {square_err:.3e}")
    plus, minus = pm_split(candidate)
    ident_err = (plus - minus * _E34 - _E12).inf_norm()
    if ident_err > GAMMA_TOLERANCE:
        diagnostics.append(f"projection identity off by {ident_err:.3e}")
    if diagnostics:
        raise GammaRejectionError("phase bivector rejected", diagnostics)
    if (candidate - _E12).inf_norm() <= GAMMA_TOLERANCE:
        return GammaChoice.e12()
    if (candidate - _E0E).inf_norm() <= GAMMA_TOLERANCE:
        return GammaChoice.e0E()
    raise GammaRejectionError(
        "phase bivector rejected",
        ["passes the identities but matches neither e1e2 nor e0*pseudoscalar"],
    )


# ---------------------------------------------------------------------------
# plane waves
# ---------------------------------------------------------------------------


def _momentum_rows(k: np.ndarray) -> np.ndarray:
    """``k^A e_A`` as coefficient rows ``(..., 32)`` of momenta ``(..., 5)``."""
    coeffs = np.zeros((*k.shape[:-1], CL32.n_blades))
    coeffs[..., [1 << a for a in range(5)]] = k + 0.0  # -0.0 becomes 0.0
    return coeffs


@lru_cache(maxsize=None)
def _times_gamma(gamma: GammaChoice) -> BladeOperator:
    """``x -> x gamma`` on coefficient rows ``(..., 32)``: a signed gather,
    bit for bit the multivector product."""
    return BladeOperator.right(gamma.as_multivector())


def _seeded_momenta(k, mass, seeds):
    """``(K c, c, m)`` as rows: ``c`` is the first seed of :func:`_seed_pair`,
    or the second where the mass is negative, and ``m`` is the mass as a column.

    ``k`` is ``N`` momenta ``(N, 5)`` with one mass or ``N``.  ``c`` is a
    blade, so ``K c`` is the signed gather of ``K``'s rows by ``c`` (each
    coefficient one exact term ``+-k^a``), taken for each seed and selected
    per row.
    """
    k = np.asarray(k, dtype=np.float64)
    mass = np.broadcast_to(np.asarray(mass, dtype=np.float64), k.shape[:-1])
    if not (np.isfinite(k).all() and np.isfinite(mass).all()):
        raise ValueError("momentum and mass must be finite")
    (seed, other), (times_seed, times_other) = seeds
    momenta = _momentum_rows(k)
    negative = (mass < 0)[..., None]
    kc = np.where(negative, times_other(momenta), times_seed(momenta))
    return kc, np.where(negative, other, seed), mass[..., None]


def _seed_pair(*seeds: Multivector):
    """The seeds at ``m >= 0`` and ``m < 0`` as coefficient rows, and their
    right products ``x -> x c`` as signed gathers."""
    return tuple(c.coeffs for c in seeds), tuple(BladeOperator.right(c) for c in seeds)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows over their Euclidean norms, zeros as +0.0.  An all-zero row,
    which only ``k = 0`` at ``m = 0`` gives and where every even amplitude
    solves, becomes the scalar 1."""
    rows[~rows.any(axis=-1), 0] = 1.0
    return rows / np.hypot.reduce(rows, axis=-1, keepdims=True) + 0.0


#: Seeds ``c`` of :func:`plane_wave_amplitudes` at ``m >= 0`` and ``m < 0``.
#: Under ``e0E`` the scalar seed gives ``m + k^0`` as the only mass term,
#: which is 0 at rest when ``m < 0``; ``e01`` gives ``m - k^0`` there.
_SEEDS = {
    "e12": _seed_pair(Multivector.scalar(1.0), Multivector.scalar(1.0)),
    "e0E": _seed_pair(Multivector.scalar(1.0), e(CL32, 0, 1)),
}


def plane_wave_amplitudes(k, mass, gamma: GammaChoice) -> np.ndarray:
    """A unit amplitude ``m c - E K c gamma`` for each momentum, as ``(N, 32)`` rows.

    ``k`` holds ``N`` momenta ``(N, 5)`` with one mass or ``N``.  ``E`` is
    central with ``E^2 = 1``, ``gamma^2 = -1`` and ``K^2 = -m^2`` on shell,
    so ``K amp gamma + m E amp = m K c gamma - m^2 E c + m^2 E c - m K c
    gamma = 0`` for every even seed ``c`` (:data:`_SEEDS`).  The five blades
    ``E e_a c gamma`` are distinct, so each coefficient is one of ``+-m``,
    ``+-k^a``, or under ``e0E`` ``m + k^0`` (seed 1) or ``m - k^0`` (seed
    e01), a sum of same-sign terms.  The norm is at least ``sqrt(2) |m|``
    and vanishes only at ``k = 0, m = 0``.
    """
    kc, c, m = _seeded_momenta(k, mass, _SEEDS[gamma.variant])
    return _unit_rows(m * c - _LEFT_PSEUDO(_times_gamma(gamma)(kc)))


def constraint_residuals(k, amplitudes, mass, gamma: GammaChoice) -> np.ndarray:
    """``|K amp gamma + m E amp|`` (largest coefficient) per row.

    ``k`` ``(N, 5)``, ``amplitudes`` ``(N, 32)`` and one mass or ``N`` (or
    one row of each); each value equals the multivector products of its row
    alone.
    """
    k = np.asarray(k, dtype=np.float64)
    lhs = _times_gamma(gamma)(_kernels.gp(tables(CL32).sign, _momentum_rows(k), amplitudes))
    lhs += np.asarray(mass, dtype=np.float64)[..., None] * _LEFT_PSEUDO(amplitudes)
    return np.abs(lhs).max(axis=-1)


def _require_constraint(k, amplitudes, mass, gamma: GammaChoice) -> None:
    err = float(np.max(constraint_residuals(k, amplitudes, mass, gamma)))
    if err > 1e-8:
        raise ValueError(f"amplitude violates the momentum constraint by {err:.3e}")


def solve_time_component(k_spatial: Sequence[float], k4: float, mass: float) -> float:
    """Positive-frequency k^0 from the mass shell ``k.k = -m^2``.

    With two minus signs in the metric, ``(k^0)^2 = |k|^2 + m^2 - (k^4)^2``;
    raises when the right side is negative.  When even the largest input's
    square would underflow, the inputs are scaled by a power of two (exact)
    first and ``k^0`` is scaled back; every other input takes the plain sum.
    """
    k_spatial = np.asarray(k_spatial, dtype=np.float64)
    if k_spatial.shape != (3,):
        raise ValueError("k_spatial must have three components")
    largest = max(float(np.abs(k_spatial).max()), abs(mass), abs(k4))
    # below sqrt(tiny) a square is subnormal or zero: it has lost bits
    shift = -math.frexp(largest)[1] if 0.0 < largest < math.sqrt(np.finfo(float).tiny) else 0
    k_spatial, k4, mass = np.ldexp(k_spatial, shift), math.ldexp(k4, shift), math.ldexp(mass, shift)
    with np.errstate(over="ignore"):  # an overflow is reported below
        disc = float(k_spatial @ k_spatial) + mass * mass - k4 * k4
    if disc < 0:
        raise ValueError(
            "no real frequency: |k|^2 + m^2 - (k^4)^2 = "
            f"{math.ldexp(disc, -2 * shift):.6g} is negative"
        )
    if not math.isfinite(disc):
        terms = "|k|^2 + m^2" + (" - (k^4)^2" if k4 else "")
        raise ValueError(f"the frequency overflows: {terms} is not finite")
    return math.ldexp(math.sqrt(disc), -shift)


@dataclass(frozen=True, eq=False)
class PlaneWave:
    """Oscillating solution ``amp (cos(k.x) + gamma sin(k.x))``."""

    amplitude: Multivector
    k: np.ndarray
    gamma: GammaChoice
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "k", as_point(self.k).copy())
        self.k.setflags(write=False)
        if not self.amplitude.is_even:
            raise ValueError("plane-wave amplitude must be even")
        _require_constraint(self.k, self.amplitude.coeffs, self.mass, self.gamma)

    def constraint_residual(self) -> float:
        return float(constraint_residuals(self.k, self.amplitude.coeffs, self.mass, self.gamma))

    def dispersion_residual(self) -> float:
        """|k.k + m^2| — zero on the mass shell."""
        return abs(minkowski_dot(self.k, self.k) + self.mass**2)

    def field(self) -> PhaseField:
        return plane_wave_field(self.k, self.amplitude.coeffs, self.gamma)


def plane_wave_field(k, amplitudes, gamma: GammaChoice) -> PhaseField:
    """``amp (cos(k.x) + gamma sin(k.x))`` as a field.

    One momentum ``(5,)`` and amplitude ``(32,)``, or ``N`` of each paired
    with the rows of an ``(N, 5)`` point array (see :class:`PhaseField`).
    """
    return PhaseField(amplitudes, _times_gamma(gamma)(amplitudes), METRIC_SIGNS * k)


def _on_shell(k_spatial, k4, mass) -> np.ndarray:
    """Momenta ``(N, 5)`` of spatial momenta ``(N, 3)`` (or ``(5,)`` of
    ``(3,)``) and one or ``N`` each of k4 and mass, k^0 solved row by row."""
    k_spatial = np.asarray(k_spatial, dtype=np.float64)
    rows = k_spatial.reshape(-1, k_spatial.shape[-1])
    k4, mass = ([v] * len(rows) if np.ndim(v) == 0 else v for v in (k4, mass))
    k0 = [solve_time_component(ks, q, m) for ks, q, m in zip(rows, k4, mass)]
    k = np.empty((len(rows), 5))
    k[:, 0], k[:, 1:4], k[:, 4] = k0, rows, k4
    return k.reshape(*k_spatial.shape[:-1], 5)


def build_plane_waves(k_spatial, k4, mass, gamma: GammaChoice) -> tuple[np.ndarray, np.ndarray]:
    """Momenta ``(N, 5)`` and amplitudes ``(N, 32)`` of ``N`` plane waves.

    ``k_spatial`` is ``(N, 3)`` with ``N`` (or one) ``k4`` and masses.
    Solves each k^0, takes every amplitude in closed form
    (:func:`plane_wave_amplitudes`: signed gathers, no matrix) and checks
    the momentum constraint on every row, as :class:`PlaneWave` does for
    one wave.
    """
    k = _on_shell(k_spatial, k4, mass)
    amps = plane_wave_amplitudes(k, mass, gamma)
    _require_constraint(k, amps, mass, gamma)
    return k, amps


def build_plane_wave(
    k_spatial: Sequence[float], k4: float, mass: float, gamma: GammaChoice
) -> PlaneWave:
    """Solve k^0 and take the closed-form amplitude.

    The batch of :func:`build_plane_waves` on one wave; :class:`PlaneWave`
    checks the constraint.
    """
    k = _on_shell(k_spatial, k4, mass)
    amplitude = Multivector(plane_wave_amplitudes(k[None], mass, gamma)[0], CL32)
    return PlaneWave(amplitude=amplitude, k=k, gamma=gamma, mass=mass)


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------


#: The two forms of the first-order equation as gathers over a jet (see
#: :func:`~fermion5d.fields._gradient_gather`): ``E phi`` and the five axes,
#: ``phi e012`` and the four spacetime axes.
_FIVE_D = _gradient_gather(tuple(range(5)), _LEFT_PSEUDO)
_FOUR_D = _gradient_gather(tuple(range(4)), _RIGHT_E012)


def _equation_sum(form, jet, mass, coupling=None) -> np.ndarray:
    """``lead(phi) mass [- coupling] + sum_a e_a d^a phi`` over the form's
    axes, in that order: the first-order equation, with ``E phi``, the mass
    and five axes (:data:`_FIVE_D`), or (4D, :data:`_FOUR_D`) with ``phi
    e012``, minus the mass and four axes.

    ``jet`` is a field's ``(6, N, 32)`` jet, ``mass`` one number or one per
    row, ``coupling`` ``(N, 32)`` rows.  One gather reads every term; the
    sum runs on the ``(32, N)`` term of the lead slot, and the rows come
    back as its transpose.
    """
    source, index, sign, accumulate = form
    terms = jet[source, :, index]  # (1 + axes, 32, N)
    terms *= sign
    terms += 0.0
    res = terms[0]
    res *= mass
    if coupling is not None:
        res -= coupling.T
    for add, term in zip(accumulate, terms[1:]):
        add(res, term, out=res)
    return res.T


def _coupling(charge, potential, values, points, times_gamma: BladeOperator, no_e4: bool):
    """``charge A phi gamma`` per row, ``A`` the potential field's rows at the
    points: grade-1, and free of e4 if ``no_e4``.  One batched product, each
    row bit for bit the multivector products.  ``None`` at charge 0, where
    the potential is not read."""
    if charge == 0.0:
        return None
    if not isinstance(potential, ArrayField):
        raise ValueError(f"charge given without a potential field, got {potential!r}")
    rows = potential.values(points)
    grades = {int(g) for g in tables(CL32).grades[(rows != 0.0).any(axis=0)]}
    if grades - {1}:
        raise ValueError(f"potential must be grade-1, found grades {tuple(sorted(grades))}")
    if no_e4 and rows[:, 1 << 4].any():
        raise ValueError("potential must have no second-time component")
    return times_gamma(_kernels.gp(tables(CL32).sign, rows, values)) * float(charge)


def dirac5_residuals(field: ArrayField, mass: float, points) -> np.ndarray:
    """:func:`dirac5_residual` at every row of an ``(N, 5)`` point array."""
    return _equation_sum(_FIVE_D, field._jet(as_points(points)), float(mass))


def dirac5_residual(field: ArrayField, mass: float, x: Sequence[float]) -> Multivector:
    """Left side minus right side of the free equation at a point."""
    return Multivector(dirac5_residuals(field, mass, as_point(x)[None])[0])


def dirac5_potential_residuals(
    field: ArrayField,
    mass: float,
    charge: float,
    potential: ArrayField,
    gamma: GammaChoice,
    points,
) -> np.ndarray:
    """Residual of the minimally-coupled equation at every row of an ``(N, 5)``
    point array: ``m E phi - charge A phi gamma + e_A d^A phi``.

    The potential is a field whose values must be grade-1; anything else is
    a modeling error and raises.  At charge 0 this is :func:`dirac5_residuals`,
    bit for bit, and the potential is not read.
    """
    pts = as_points(points)
    jet = field._jet(pts)
    coupling = _coupling(charge, potential, jet[0], pts, _times_gamma(gamma), no_e4=False)
    return _equation_sum(_FIVE_D, jet, float(mass), coupling)


def hestenes_dirac_residual(
    field: ArrayField, mass: float, x: Sequence[float], charge: float = 0.0, potential=None
) -> Multivector:
    """Residual of the 4D Dirac equation in Hestenes form at a point.

    The field must be flat along the second time axis at the point (checked
    against :data:`CYLINDER_TOLERANCE`); at nonzero charge the potential is
    a field whose values must be grade-1 with no second-time component.
    """
    pts = as_point(x)[None]
    jet = field._jet(pts)
    coupling = _coupling(charge, potential, jet[0], pts, _TIMES_E12, no_e4=True)
    return Multivector(_hestenes_residuals(jet, mass, coupling)[0])


def hestenes_sample_residuals(values, partials, mass, coupling=None) -> np.ndarray:
    """``-m phi e012 [- coupling] + sum_mu e_mu d^mu phi``, in that order.

    ``values`` ``(N, 32)`` and ``partials`` ``(5, N, 32)`` are a field's
    samples, such as one idempotent half of a field evaluated once
    (:func:`~fermion5d.spinor.idempotent_split_coeffs` on both arrays);
    ``mass`` is one mass or one per row.  Raises unless ``|d4 phi| <``
    :data:`CYLINDER_TOLERANCE` on every row; a NaN fails that test.
    """
    return _hestenes_residuals(np.concatenate(([values], partials)), mass, coupling)


def _hestenes_residuals(jet, mass, coupling=None) -> np.ndarray:
    """:func:`hestenes_sample_residuals` on a ``(6, N, 32)`` jet."""
    d4 = float(np.abs(jet[5]).max(initial=0.0))
    if not d4 < CYLINDER_TOLERANCE:
        raise ValueError(
            f"field varies along the second time axis (|d4| = {d4:.3e}); "
            "the 4D reduction does not apply"
        )
    return _equation_sum(_FOUR_D, jet, -np.asarray(mass, dtype=np.float64), coupling)


class _SectorHalf(ArrayField):
    """One idempotent-transform half of a base field, on its batch arrays;
    the other half is not computed."""

    def __init__(self, base: ArrayField, half: int):
        self._base = base
        self._half = half

    def values(self, points) -> np.ndarray:
        return _idempotent_half(self._base.values(points), self._half)

    def partials(self, points) -> np.ndarray:
        return _idempotent_half(self._base.partials(points), self._half)

    def _jet(self, points) -> np.ndarray:
        return _idempotent_half(self._base._jet(points), self._half)


def sector_fields(field: ArrayField) -> tuple[ArrayField, ArrayField]:
    """Plus/minus idempotent-transform halves of a field, as fields."""
    return _SectorHalf(field, 0), _SectorHalf(field, 1)


# ---------------------------------------------------------------------------
# 4D Dirac plane waves (no second-time dependence)
# ---------------------------------------------------------------------------


#: Seeds ``chi`` of :func:`solve_hestenes_amplitude` at ``m >= 0`` and ``m < 0``.
_HESTENES_SEEDS = _seed_pair(e(CL32, 0), e(CL32, 3))


def solve_hestenes_amplitude(k4: Sequence[float], mass: float) -> Multivector:
    """A unit amplitude ``K chi e12 + m chi e012`` of the 4D wave, which
    solves ``K psi e12 = m psi e012``.

    ``K^2 = -m^2`` on shell, ``e12^2 = -1``, ``e012^2 = 1`` and ``e012 e12
    = e12 e012 = -e0`` give ``K psi e12 - m psi e012 = m^2 chi - m K chi e0
    + m K chi e0 - m^2 chi = 0`` for every odd ``chi``.  ``chi = e0`` has
    the term ``-(m + k^0) e12``, which is 0 at rest when ``m < 0``, so
    ``chi = e3`` there (its ``e0123`` term is ``k^0 - m``).  The amplitude
    has no e4.
    """
    k4 = np.asarray(k4, dtype=np.float64)
    if k4.shape != (4,):
        raise ValueError("four-vectors expected")
    kc, chi, m = _seeded_momenta([[*k4, 0.0]], mass, _HESTENES_SEEDS)
    return Multivector(_unit_rows(_TIMES_E12(kc) + m * _RIGHT_E012(chi))[0], CL32)


def hestenes_plane_wave_field(k_spatial: Sequence[float], mass: float) -> PhaseField:
    """4D Dirac plane wave as a five-coordinate field flat along the last
    axis, with the amplitude of :func:`solve_hestenes_amplitude`."""
    k_spatial = np.asarray(k_spatial, dtype=np.float64)
    k0 = solve_time_component(k_spatial, 0.0, mass)
    amplitude = solve_hestenes_amplitude([k0, *k_spatial], mass)
    return PhaseField(amplitude, amplitude * _E12, (-k0, *k_spatial, 0.0))
