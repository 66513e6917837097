"""Bound states in a Coulomb potential: radial reduction and fine structure.

Separating the minimally-coupled wave equation with potential ``A = -(lambda/
q r) e0`` leads, for an angular sector labeled by a nonzero integer ``kappa``,
to a first-order system for the rescaled radial profile ``u(r) = r * phi(r)``
with values in the sixteen-dimensional even subalgebra, taking ``e3`` as the
radial unit (any unit spatial vector gives the same operator algebra)::

    du/dr = (1/r) S u  -  T u

``S`` couples the angular label and the Coulomb strength; ``T`` carries the
mass and the energy.  Both square to multiples of the identity (``S^2 =
(kappa^2 - lambda^2) I``, ``T^2 = (m^2 - eps^2) I``), which makes the series
solution terminate exactly when the energy sits on the Sommerfeld ladder

    eps = m / sqrt(1 + lambda^2 / (n_r + sqrt(kappa^2 - lambda^2))^2)

In ``rho = m r`` the problem depends only on lambda, kappa and n_r, so the
solver works in units of m (at mass 1) and scales its energy and decay by
m.  Its energy is the bisection root of the termination condition in the
decay constant, ``d (n_r + q) = lambda sqrt(1 - d^2)``, which is that
closed form solved for ``d``; the series adds the post-check that its last
coefficient meets the 1e-10 termination bound.  That post-check is the
series' check of the system: ``u = rho^q e^(beta rho) sum_p C_p rho^p``
solves it exactly when ``((p + q) I - S) C_p = -(beta I + T) C_(p-1)`` at
every power, which the recurrence imposes by construction, and ``(beta I +
T) C_(n_r) = 0`` at the top power, which is the termination identity.  The
step matrices ``((p + q) I - S)^-1`` are inverted numerically (not from the
closed form that ``S^2`` would allow, so the solver does not assume the
identity it cross-checks) and shared by the scan of the admissible
subspace, the threshold scale and the final coefficients.
:func:`solve_radials` solves many states at once: each of its four LAPACK
calls (the step inverse and three SVDs) is one stacked call per group of
states that share the phase bivector and n_r, whatever n_r is.

Operators that flip even and odd grades are represented on the even basis by
pairing with the unit pseudoscalar (which is central and squares to +1), so
compositions of two grade-flipping maps multiply as plain 16 x 16 matrices.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CL32,
    BladeOperator,
    Multivector,
    e,
    even_masks,
    linear_map_matrix,
    odd_masks,
    pseudoscalar,
    tables,
)
from .fields import Field5, add_gradient, as_points
from .wave import GammaChoice

_E0 = e(CL32, 0)
_E3 = e(CL32, 3)
_PSEUDO = pseudoscalar(CL32)
_LEFT_PSEUDO = BladeOperator.left(_PSEUDO)  # x -> E x
_LEFT_E0, _RIGHT_E0 = BladeOperator.left(_E0), BladeOperator.right(_E0)
_EVEN_MASKS, _ODD_MASKS = list(even_masks(CL32)), list(odd_masks(CL32))

#: Relative bound on the termination residual of a series, also the relative
#: singular-value gap that counts a direction as terminating.
SVD_GAP_THRESHOLD = 1e-10
#: Fixed generic vector whose projection onto the terminating subspace picks
#: the series direction: the square roots of the first sixteen primes, of
#: which no rational combination vanishes.
_DIRECTION_PROBE = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])

#: Orbital letters for l = 0, 1, 2, ...: "spdf", then alphabetical from g,
#: skipping j and the letters already used (p, s).
ANGULAR_LETTERS = "spdfghiklmnoqrtuvwxyz"


# ---------------------------------------------------------------------------
# operator matrices on the even subalgebra
# ---------------------------------------------------------------------------


def even_operator_matrix(fn: Callable[[Multivector], Multivector]) -> np.ndarray:
    """16 x 16 matrix of a linear operator on the even subalgebra.

    Grade-preserving operators are encoded directly.  Operators sending even
    input to odd output are paired with the unit pseudoscalar (matrix of
    ``x -> E fn(x)``); because the pseudoscalar is central and squares to +1,
    the product of two paired matrices is the plain matrix of the composition.
    Output that mixes parities, within a column or between columns, raises.
    """
    columns = linear_map_matrix(fn, CL32, _EVEN_MASKS)
    odd, even = (np.any(columns[masks] != 0.0, axis=0) for masks in (_ODD_MASKS, _EVEN_MASKS))
    if (odd & even).any():
        grades = Multivector(columns[:, np.argmax(odd & even)], CL32).grades_present
        raise ValueError(f"operator output mixes even and odd grades: {grades}")
    if odd.any() and even.any():
        raise ValueError("operator parity differs between basis blades")
    if odd.any():
        columns = _LEFT_PSEUDO(columns.T).T
    return np.ascontiguousarray(columns[_EVEN_MASKS])


def e0_sandwich_matrix() -> np.ndarray:
    """Matrix of ``x -> e0 x e0`` (involution with eigenvalues +-1)."""
    return even_operator_matrix(lambda mv: _E0 * mv * _E0)


def gamma_e0_right_matrix(gamma: GammaChoice) -> np.ndarray:
    """Paired matrix of right multiplication by ``gamma * e0`` (grade-flipping)."""
    ge0 = gamma.as_multivector() * _E0
    return even_operator_matrix(lambda mv: mv * ge0)


def radial_left_matrix() -> np.ndarray:
    """Paired matrix of left multiplication by the radial unit ``e3``."""
    return even_operator_matrix(lambda mv: _E3 * mv)


@functools.lru_cache(maxsize=8)
def _radial_blocks(gamma: GammaChoice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant blocks ``(Z, R H Z, R)`` of the radial system, read-only.

    They depend only on the phase bivector, so they are built once per phase
    bivector and shared by every ``S`` and ``T``.
    """
    z = e0_sandwich_matrix()
    h = gamma_e0_right_matrix(gamma)
    r = radial_left_matrix()
    rhz = r @ h @ z
    for mat in (z, rhz, r):
        mat.setflags(write=False)
    return z, rhz, r


def angular_coupling_matrix(kappa: int, coupling: float, gamma: GammaChoice) -> np.ndarray:
    """The matrix ``S`` of the 1/r term in the radial system.

    ``S = kappa Z + coupling R H Z`` with ``Z`` the e0 sandwich, ``H`` the
    gamma-e0 right multiplication and ``R`` the radial left multiplication
    (the last two in the pseudoscalar-paired encoding, so ``R H`` is the true
    matrix of their composition).  Satisfies ``S^2 = (kappa^2-coupling^2) I``.
    """
    z, rhz, _ = _radial_blocks(gamma)
    return kappa * z + coupling * rhz


def mass_energy_matrix(mass: float, energy: float, gamma: GammaChoice) -> np.ndarray:
    """The matrix ``T`` of the constant term in the radial system.

    ``T = mass R - energy R H Z`` in the notation of
    :func:`angular_coupling_matrix`; satisfies ``T^2 = (mass^2-energy^2) I``.
    """
    _, rhz, r = _radial_blocks(gamma)
    return mass * r - energy * rhz


# ---------------------------------------------------------------------------
# parameters, quantum numbers, closed-form spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoulombParams:
    """Inputs of one radial bound-state problem.

    ``coupling`` is the dimensionless Coulomb strength (Z alpha for a
    hydrogen-like ion), ``kappa`` the nonzero integer angular label and
    ``n_r`` the number of terms past the leading one in the radial series.
    """

    mass: float
    coupling: float
    kappa: int
    n_r: int
    gamma: GammaChoice = field(default_factory=GammaChoice.e12)

    def __post_init__(self):
        if not isinstance(self.gamma, GammaChoice):
            raise TypeError(f"gamma must be a GammaChoice, got {type(self.gamma).__name__}")
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        integers = (int, np.integer)  # and not bool, which is an int
        if type(self.kappa) is bool or not isinstance(self.kappa, integers) or self.kappa == 0:
            raise ValueError("kappa must be a nonzero integer")
        if type(self.n_r) is bool or not isinstance(self.n_r, integers) or self.n_r < 0:
            raise ValueError("n_r must be a nonnegative integer")
        if not (self.coupling > 0):
            raise ValueError("coupling must be positive for bound states")
        if self.coupling**2 >= self.kappa**2:
            raise ValueError(
                f"coupling {self.coupling} too strong for kappa={self.kappa}: "
                "need coupling^2 < kappa^2"
            )

    @property
    def series_exponent(self) -> float:
        """Leading power ``q = sqrt(kappa^2 - coupling^2)`` of the series."""
        return math.sqrt((self.kappa - self.coupling) * (self.kappa + self.coupling))


def quantum_numbers(kappa: int, n_r: int) -> tuple[int, float]:
    """Principal quantum number ``n`` and total angular momentum ``j``."""
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    if n_r < 0:
        raise ValueError("n_r must be nonnegative")
    return abs(kappa) + n_r, abs(kappa) - 0.5


def orbital_letter(kappa: int) -> str:
    """Spectroscopic letter for the orbital label ``l``."""
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    l = kappa if kappa > 0 else -kappa - 1
    if l >= len(ANGULAR_LETTERS):
        raise ValueError(f"no spectroscopic letter for l={l}")
    return ANGULAR_LETTERS[l]


def spectroscopic_label(kappa: int, n_r: int) -> str:
    """Standard label like ``2p3/2`` for the state (kappa, n_r)."""
    n, j = quantum_numbers(kappa, n_r)
    return f"{n}{orbital_letter(kappa)}{int(2 * j)}/2"


def sommerfeld_energy(params: CoulombParams) -> float:
    """Closed-form bound-state energy on the fine-structure ladder."""
    q = params.series_exponent
    return params.mass / math.sqrt(1.0 + (params.coupling / (params.n_r + q)) ** 2)


# ---------------------------------------------------------------------------
# radial series solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadialSeries:
    """Terminating series ``u(r) = rho^q exp(beta r) sum_p C_p rho^p``, ``rho = unit r``.

    ``coefficients`` has shape (n_r + 1, 16); each row holds even-subalgebra
    coordinates of one series term.  The solver's ``unit`` is the mass, so
    its coefficients are the mass-1 ones at every mass.
    """

    exponent: float
    decay: float
    coefficients: np.ndarray
    unit: float = 1.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[1] != 16:
            raise ValueError("coefficients must have shape (n_terms, 16)")
        object.__setattr__(self, "coefficients", coeffs)
        coeffs.setflags(write=False)

    def _prefactor(self, r: float) -> tuple[float, float]:
        """``rho`` and ``rho^q exp(beta r)`` (r must be positive and finite)."""
        if not 0 < r < math.inf:
            raise ValueError("radius must be positive and finite")
        rho = self.unit * r
        return rho, rho**self.exponent * math.exp(self.decay * r)

    def _polynomial(self, rho: float) -> np.ndarray:
        return rho ** np.arange(self.coefficients.shape[0]) @ self.coefficients

    def evaluate(self, r: float) -> np.ndarray:
        """Even-subalgebra coordinates of ``u(r)``."""
        rho, pref = self._prefactor(r)
        return pref * self._polynomial(rho)

    def derivative(self, r: float) -> np.ndarray:
        """Coordinates of ``du/dr`` from the analytic series."""
        rho, pref = self._prefactor(r)
        p = np.arange(1, self.coefficients.shape[0])
        dpoly = self.unit * ((p * rho ** (p - 1)) @ self.coefficients[1:])
        return pref * ((self.exponent / r + self.decay) * self._polynomial(rho) + dpoly)


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """Energy and terminating series for one (kappa, n_r) bound state."""

    params: CoulombParams
    energy: float
    series: RadialSeries
    diagnostics: dict

    @property
    def binding_energy(self) -> float:
        """Energy minus rest mass, ``-m d^2 / (1 + eps)`` in units of the mass
        (the solver's own binding), which does not cancel at weak coupling."""
        d, eps = -self.series.decay / self.params.mass, self.energy / self.params.mass
        return -self.params.mass * (d * d / (1.0 + eps))


def _termination_decays(params_seq: list[CoulombParams]) -> list[float]:
    """Decay constants ``d = |beta| / m`` at the roots of the termination
    gap ``d (n_r + q) - lambda sqrt(1 - d^2)``, strictly increasing on (0, 1).

    Rooting in the decay constant rather than the energy keeps the
    termination identity sharp even when the energy is within ulps of the
    rest mass (weak coupling), where d(decay)/d(energy) blows up.  The gap
    is ``-lambda < 0`` at 0 and ``n_r + q > 0`` at 1, so (0, 1) brackets
    every root; each state is bisected on its own row until its bracket is
    two adjacent floats, which ends because every step shrinks an active
    bracket (at most about 1100 steps, down to the smallest subnormal).
    """
    coupling, shift = np.array(
        [(p.coupling, p.n_r + p.series_exponent) for p in params_seq], dtype=np.float64
    ).reshape(-1, 2).T
    lo, hi = np.zeros(len(coupling)), np.ones(len(coupling))
    active = np.ones(len(coupling), dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            return (0.5 * (lo + hi)).tolist()
        below = mid * shift - coupling * np.sqrt((1.0 - mid) * (1.0 + mid)) < 0.0
        lo, hi = np.where(active & below, mid, lo), np.where(active & ~below, mid, hi)


def _norms(rows: np.ndarray) -> np.ndarray:
    """2-norms of the rows, each one dot product as for a single vector."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _column_scale(blocks: np.ndarray) -> np.ndarray:
    """Largest column 2-norm of each matrix of a ``(..., 16, 16)`` stack.

    ``max_j |B e_j|`` is a lower bound on the 2-norm ``|B|_2``, so a
    threshold built from it is never looser than one built from singular
    values.  The blocks are those of the mass-1 problem, whose entries are
    of order 1, so their squares are summed as they are.
    """
    return np.sqrt((blocks * blocks).sum(axis=-2)).max(axis=-1)


def _split_selected(mask: np.ndarray, vt: np.ndarray):
    """Split a batch by how many rows of each ``vt`` its ``mask`` row keeps:
    ``(count, batch indices, (n, count, k) kept rows)`` per count."""
    counts = mask.sum(axis=1)
    for count in set(counts.tolist()):  # np.unique would import numpy.ma, 0.6 MB
        batch = np.flatnonzero(counts == count)
        yield count, batch, vt[batch][mask[batch]].reshape(len(batch), count, vt.shape[-1])


def _solve_group(group: list[CoulombParams], decays: list[float]) -> list:
    """Solutions, or errors, of states that share the phase bivector and n_r,
    solved at mass 1 from their decays in units of the mass, then scaled."""
    n_r = group[0].n_r
    z, rhz, r = _radial_blocks(group[0].gamma)
    eye = np.eye(16)
    energies = [math.sqrt((1.0 - d) * (1.0 + d)) for d in decays]

    def col(values) -> np.ndarray:
        return np.array(values, dtype=np.float64)[:, None, None]

    def square_error(mat: np.ndarray, square: list) -> np.ndarray:
        return np.abs(mat @ mat - col(square) * eye).max(axis=(1, 2))

    q = col([p.series_exponent for p in group])
    s_mat = col([p.kappa for p in group]) * z + col([p.coupling for p in group]) * rhz
    s_square_err = square_error(s_mat, [p.kappa**2 - p.coupling**2 for p in group])
    t_mat = r - col(energies) * rhz
    t_square_err = square_error(t_mat, [1.0 - b**2 for b in energies])

    # (beta I + T) in split form: T = (R - RHZ) + b RHZ with the binding
    # b = 1 - eps = d^2 / (1 + eps).  Its eigenvalues are +-d up to the
    # rounding of b alone, whereas T = R - eps RHZ built from the rounded
    # eps moves them by ~ulp(eps) / d, which at weak coupling is a relative
    # termination residual above the bound.  R - RHZ holds at most two +-1 or
    # +-2 entries per row, so its product with c rounds once per component.
    r_minus_rhz = r - rhz
    binding = col([d * d / (1.0 + b) for d, b in zip(decays, energies)])
    beta = col([-d for d in decays])

    def terminate(c: np.ndarray, batch=slice(None)) -> np.ndarray:
        return r_minus_rhz @ c + binding[batch] * (rhz @ c) + beta[batch] * c

    # the recurrence steps ((p+q) I - S)^-1 for p = 1..n_r, inverted in one
    # batched call and shared by every propagation and the threshold scale
    shifts = (np.arange(1, n_r + 1) + q[:, :, 0])[..., None, None]
    steps = np.linalg.inv(shifts * eye - s_mat[:, None])

    def propagate(block: np.ndarray, batch=slice(None)) -> list[np.ndarray]:
        """``C_0 .. C_{n_r}`` from ``C_p = ((p+q) I - S)^-1 (-(beta I + T) C_{p-1})``."""
        chain = [block]
        for p in range(n_r):
            chain.append(steps[batch, p] @ -terminate(chain[-1], batch))
        return chain

    # C_0 must satisfy (S - q I) C_0 = 0 and, after propagating through the
    # recurrence, the termination identity (beta I + T) C_{n_r} = 0.  At the
    # root energy the termination map restricted to the indicial kernel is
    # rank-deficient; depending on the cell it either selects part of the
    # kernel (n_r = 0) or vanishes identically on it (n_r >= 1, where the
    # quantization kills the whole chain).  Both cases are handled uniformly
    # by thresholding the restricted map against the generic magnitude a
    # non-quantized chain would have: the product of the scales of the
    # termination map and of each step applied to it.  Each scale is a
    # largest column norm, a lower bound on the 2-norm, so the threshold is
    # at most the one that singular values would give.
    termination = terminate(eye)
    blocks = np.concatenate([termination[:, None], steps @ -termination[:, None]], axis=1)
    norms = _column_scale(blocks)
    termination_norm = generic_scale = norms[:, 0]
    for p in range(n_r, 0, -1):
        generic_scale = generic_scale * norms[:, p]
    threshold = SVD_GAP_THRESHOLD * generic_scale

    # S^2 = q^2 I and tr S = 0 make the indicial kernel (S's +q eigenspace)
    # 8-dimensional: the right singular vectors of the 8 smallest singular values
    results: list = [None] * len(group)
    _, _, vt_k = np.linalg.svd(s_mat - q * eye)
    kernel = np.ascontiguousarray(np.swapaxes(vt_k[:, 8:], 1, 2))
    _, sing_w, vt_w = np.linalg.svd(terminate(propagate(kernel)[-1]))
    for admissible, batch, kept in _split_selected(sing_w <= threshold[:, None], vt_w):
        if admissible == 0:
            for i, smallest in zip(batch, sing_w[batch, -1]):
                results[i] = RuntimeError(
                    "no terminating series at the root energy: smallest termination "
                    f"residual {smallest:.3e} exceeds {threshold[i]:.3e} "
                    f"(kappa={group[i].kappa}, n_r={n_r})"
                )
            continue
        # propagate the whole admissible subspace and keep the directions
        # whose final coefficient is largest; this avoids near-degenerate
        # directions (close couplings make neighboring levels almost
        # align) that would make the last coefficient vanish by
        # cancellation.  That singular value is often degenerate, and
        # which vector of its subspace an SVD returns is up to roundoff,
        # so the series starts from the projection of a fixed generic
        # vector onto the whole subspace, which roundoff only nudges
        basis = kernel[batch] @ np.swapaxes(kept, 1, 2)
        _, sing_b, vt_b = np.linalg.svd(propagate(basis, batch)[-1], full_matrices=False)
        start = np.empty((len(batch), 16))
        for _, same, top in _split_selected(sing_b >= (1.0 - 1e-8) * sing_b[:, :1], vt_b):
            top = basis[same] @ np.swapaxes(top, 1, 2)
            start[same] = (top @ (np.swapaxes(top, 1, 2) @ _DIRECTION_PROBE[:, None]))[..., 0]
        start /= _norms(start)[:, None]
        coefficients = np.stack(propagate(start[..., None], batch), axis=1)[..., 0]

        # honest post-check: the last coefficient must be annihilated
        # relative to the scale of the termination map (a genuinely
        # non-terminating direction scores O(1) in this measure).  Both
        # norms are taken of last / max|last|, which leaves the ratio as
        # it is, but keeps the squares of a last coefficient that decayed
        # far below 1 from underflowing to 0 / 0
        last, c0 = coefficients[:, -1], coefficients[:, 0, :, None]
        peak = np.abs(last).max(axis=1)
        unit = last / np.where(peak > 0.0, peak, 1.0)[:, None]
        scale = termination_norm[batch] * np.where(peak > 0.0, _norms(unit), 1.0)
        termination_relative = _norms(terminate(unit[..., None], batch)[..., 0]) / scale
        indicial = np.abs(s_mat[batch] @ c0 - q[batch] * c0).max(axis=(1, 2))
        for j, i in enumerate(batch.tolist()):
            if peak[j] == 0.0:
                results[i] = RuntimeError(
                    "series underflows: every component of its last coefficient is 0 "
                    f"(kappa={group[i].kappa}, n_r={n_r}, coupling={group[i].coupling:.3e})"
                )
                continue
            if not termination_relative[j] <= SVD_GAP_THRESHOLD:
                results[i] = RuntimeError(
                    f"series does not terminate: relative termination residual "
                    f"{termination_relative[j]:.3e} exceeds {SVD_GAP_THRESHOLD:.1e}"
                )
                continue
            params = group[i]
            mass, energy = params.mass, params.mass * energies[i]
            series = RadialSeries(params.series_exponent, -mass * decays[i], coefficients[j], mass)
            diagnostics = {
                "termination_relative": float(termination_relative[j]),
                "termination_kernel_dim": admissible,
                "termination_vacuity": float(sing_w[i, 0] / generic_scale[i]),
                "closed_form_delta": abs(energy - sommerfeld_energy(params)),
                "indicial_residual": float(indicial[j]),
                "s_square_error": float(s_square_err[i]),
                "t_square_error": float(t_square_err[i]),
            }
            results[i] = RadialSolution(params, energy, series, diagnostics)
    return results


def solve_radials(params_seq: Sequence[CoulombParams]) -> list[RadialSolution | RuntimeError]:
    """:func:`solve_radial` for many states: per state its solution, or the
    ``RuntimeError`` it raises, whatever else the batch holds.  A state of
    mass m is that of mass 1 scaled: m times the energy and the decay, and
    the same series coefficients in ``rho = m r``.  One bisection on (0, 1)
    roots every state, and each of the four LAPACK calls (step inverse,
    indicial-kernel, admissible and final SVD) is one stacked call per
    group, the last split where the admissible dimension differs.
    """
    decays = _termination_decays(params_seq)
    results, groups = {}, {}
    for i, (params, decay) in enumerate(zip(params_seq, decays)):
        if decay == 0.0:  # the root lies below the smallest subnormal
            results[i] = RuntimeError(f"decay constant rounds to 0 (kappa={params.kappa}, "
                                      f"n_r={params.n_r}, coupling={params.coupling:.3e})")
        else:
            groups.setdefault((params.gamma, params.n_r), []).append(i)
    for members in groups.values():
        group = [params_seq[i] for i in members]
        results.update(zip(members, _solve_group(group, [decays[i] for i in members])))
    return [results[i] for i in range(len(params_seq))]


def solve_radial(params: CoulombParams) -> RadialSolution:
    """Root-find the termination energy and build the terminating series.

    ``diagnostics`` are those of the mass-1 solve (:func:`solve_radials`),
    save the energy's ``closed_form_delta``, and hold the relative residual of
    the termination identity on the last coefficient, the series' whole
    check of the system (see the module docstring).  Its
    ``termination_vacuity`` is the 2-norm of the termination map restricted
    to the indicial kernel over the threshold scale, a product of largest
    column norms that is a lower bound on the product of 2-norms, so it can
    exceed 1.  Raises when no series direction terminates (for example
    n_r = 0 with kappa > 0 when the phase bivector is e0 times the
    pseudoscalar, mirroring the standard Dirac-Coulomb selection rule),
    when its last coefficient underflows to zero, or when the decay
    constant rounds to 0 (coupling 5e-324).  This is :func:`solve_radials`
    on a batch of one: four LAPACK calls whatever ``n_r`` is.
    """
    (result,) = solve_radials([params])
    if isinstance(result, RuntimeError):
        raise result
    return result


# ---------------------------------------------------------------------------
# angular identity check
# ---------------------------------------------------------------------------


def angular_reduction_check(
    kappa: int, field: Field5, points: Sequence[Sequence[float]]
) -> float:
    """Sup norm of ``r grad(phi) - (r.grad + 1 - kappa zeta) phi`` over points.

    ``r`` is the spatial position vector, ``grad`` the spatial vector
    derivative ``e_i d_i`` and ``zeta x = e0 x e0``.  Vanishes on the angular
    eigenfields labeled by ``kappa``; a spherically symmetric field
    ``f(|r|) c`` passes for kappa = +-1 when ``e0 c e0 = c / kappa``.  The
    field is evaluated once on the whole point array; a NaN anywhere gives
    NaN.
    """
    if not len(points):
        raise ValueError("at least one sample point is required")
    pts = as_points(points)
    values, partials = field.values(pts), field.partials(pts)
    spatial = (1, 2, 3)
    rvec = np.zeros_like(values)
    rvec[:, [1 << i for i in spatial]] = pts[:, spatial]
    grad = add_gradient(np.zeros_like(values), partials, spatial)
    lhs = _kernels.gp(tables(CL32).sign, rvec, grad)
    rdot = np.zeros_like(values)
    for i in spatial:
        rdot += pts[:, i, None] * partials[i]
    rhs = rdot + values - kappa * _RIGHT_E0(_LEFT_E0(values))
    return float(np.max(np.abs(lhs - rhs)))
