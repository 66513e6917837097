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

The solver's energy is the bisection root of the termination condition in
the decay constant, ``d (n_r + q) = lambda sqrt(m^2 - d^2)``, which is that
closed form solved for ``d``; the series adds the post-check that its last
coefficient meets the 1e-10 termination bound.  That post-check is the
series' check of the system: ``u = r^q e^(beta r) sum_p C_p r^p`` solves it
exactly when ``((p + q) I - S) C_p = -(beta I + T) C_(p-1)`` at every power,
which the recurrence imposes by construction, and ``(beta I + T) C_(n_r) =
0`` at the top power, which is the termination identity.  The step matrices
``((p + q) I - S)^-1`` are inverted numerically (not from the closed form
that ``S^2`` would allow, so the solver does not assume the identity it
cross-checks), once per solve in one batched call, and shared by the scan of
the admissible subspace, the threshold scale and the final coefficients.

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
    from_even_coeffs,
    linear_map_matrix,
    nullspace,
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
_EVEN_MASKS = list(even_masks(CL32))

#: Points of the coarse scan that brackets the termination root.
SCAN_POINTS = 10_000
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
    Mixed-parity output raises.
    """
    columns = linear_map_matrix(fn, CL32, _EVEN_MASKS)
    parity = None
    for column in columns.T:
        grades = Multivector(column, CL32).grades_present
        parities = {g % 2 for g in grades}
        if len(parities) > 1:
            raise ValueError(f"operator output mixes even and odd grades: {grades}")
        if parities:
            if parity is None:
                parity = parities
            elif parity != parities:
                raise ValueError("operator parity differs between basis blades")
    if parity == {1}:
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
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa == 0:
            raise ValueError("kappa must be a nonzero integer")
        if not isinstance(self.n_r, (int, np.integer)) or self.n_r < 0:
            raise ValueError("n_r must be a nonnegative integer")
        if not (self.coupling > 0):
            raise ValueError("coupling must be positive for bound states")
        if self.coupling**2 >= self.kappa**2:
            raise ValueError(
                f"coupling {self.coupling} too strong for kappa={self.kappa}: "
                "need coupling^2 < kappa^2"
            )
        self.gamma.require_admissible()

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
    """Terminating series ``u(r) = r^q exp(beta r) sum_p C_p r^p``.

    ``coefficients`` has shape (n_r + 1, 16); each row holds even-subalgebra
    coordinates of one series term.
    """

    exponent: float
    decay: float
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[1] != 16:
            raise ValueError("coefficients must have shape (n_terms, 16)")
        object.__setattr__(self, "coefficients", coeffs)
        coeffs.setflags(write=False)

    def _polynomial(self, r: float) -> np.ndarray:
        powers = r ** np.arange(self.coefficients.shape[0])
        return powers @ self.coefficients

    def evaluate(self, r: float) -> np.ndarray:
        """Even-subalgebra coordinates of ``u(r)`` (r must be positive)."""
        if not r > 0:
            raise ValueError("radius must be positive")
        return r**self.exponent * math.exp(self.decay * r) * self._polynomial(r)

    def derivative(self, r: float) -> np.ndarray:
        """Coordinates of ``du/dr`` from the analytic series."""
        if not r > 0:
            raise ValueError("radius must be positive")
        p = np.arange(self.coefficients.shape[0])
        poly = (r**p) @ self.coefficients
        dpoly = (p[1:] * r ** (p[1:] - 1)) @ self.coefficients[1:] if len(p) > 1 else 0.0
        pref = r**self.exponent * math.exp(self.decay * r)
        return pref * ((self.exponent / r + self.decay) * poly + dpoly)

    def multivector(self, r: float) -> Multivector:
        return from_even_coeffs(self.evaluate(r))


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """Energy and terminating series for one (kappa, n_r) bound state."""

    params: CoulombParams
    energy: float
    series: RadialSeries
    diagnostics: dict

    @property
    def binding_energy(self) -> float:
        """Energy minus rest mass (negative for a bound state)."""
        return self.energy - self.params.mass


def _quantization_gap(
    decay: float | np.ndarray, params: CoulombParams, shift: float
) -> float | np.ndarray:
    """Termination condition as a function of the decay constant ``|beta|``.

    ``shift`` is ``n_r + series_exponent``, computed once by the caller.
    Strictly increasing on (0, m); its unique root fixes the bound state.
    Rooting in the decay constant rather than the energy keeps the
    termination identity sharp even when the energy is within ulps of the
    rest mass (weak coupling), where d(decay)/d(energy) blows up.
    """
    m = params.mass
    return decay * shift - params.coupling * np.sqrt((m - decay) * (m + decay))


def solve_radial(params: CoulombParams) -> RadialSolution:
    """Root-find the termination energy and build the terminating series.

    The energy is the bisection root of the termination condition in the
    decay constant, which is the closed form solved for it; ``diagnostics``
    holds the closed-form gap and what the series adds, the relative residual
    of the termination identity on the last coefficient.  The recurrence
    satisfies every other power of the radial system by construction, so
    that residual is the series' whole check of the system, whose radial
    unit is ``e3``.  Raises when no
    series direction terminates (for example n_r = 0 with kappa > 0 when the
    phase bivector is e0 times the pseudoscalar, mirroring the standard
    Dirac-Coulomb selection rule).

    The ``n_r`` step matrices ``((p+q) I - S)^-1`` are built once, by one
    batched inverse, and shared by the scan of the admissible subspace, the
    threshold scale and the final coefficients; the 2-norms that set the
    threshold scale come from one batched SVD.  A solve makes five LAPACK
    calls whatever ``n_r`` is.
    """
    m = params.mass
    q = params.series_exponent
    n_r = params.n_r
    shift = n_r + q

    # bracket the unique root of the termination condition in the decay
    # constant with a coarse scan, then bisect to the floating-point limit
    grid = np.linspace(0.0, m, SCAN_POINTS)
    vals = _quantization_gap(grid, params, shift)
    above = np.nonzero(vals >= 0.0)[0]
    if len(above) == 0:
        raise RuntimeError("termination condition has no sign change on (0, m)")
    hi = float(grid[above[0]])
    lo = float(grid[above[0] - 1]) if above[0] > 0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _quantization_gap(mid, params, shift) < 0.0:
            lo = mid
        else:
            hi = mid
    decay = 0.5 * (lo + hi)
    energy = math.sqrt((m - decay) * (m + decay))
    beta = -decay

    s_mat = angular_coupling_matrix(params.kappa, params.coupling, params.gamma)
    t_mat = mass_energy_matrix(m, energy, params.gamma)
    eye = np.eye(16)

    s_square_err = float(np.abs(s_mat @ s_mat - (params.kappa**2 - params.coupling**2) * eye).max())
    t_square_err = float(np.abs(t_mat @ t_mat - (m**2 - energy**2) * eye).max())

    # (beta I + T) in split form: T = m (R - RHZ) + b RHZ with the binding
    # b = m - eps = d^2 / (m + eps).  Its eigenvalues are +-d up to the
    # rounding of b alone, whereas T = m R - eps RHZ built from the rounded
    # eps moves them by ~ulp(eps) m / d, which at weak coupling is a relative
    # termination residual above the bound.  R - RHZ holds at most two +-1 or
    # +-2 entries per row, so its product with c rounds once per component.
    _, rhz, r = _radial_blocks(params.gamma)
    r_minus_rhz = r - rhz
    binding = decay * decay / (m + energy)

    def terminate(c: np.ndarray) -> np.ndarray:
        return m * (r_minus_rhz @ c) + binding * (rhz @ c) + beta * c

    # the recurrence steps ((p+q) I - S)^-1 for p = 1..n_r, inverted in one
    # batched call and shared by every propagation and the threshold scale
    steps = np.linalg.inv((np.arange(1, n_r + 1) + q)[:, None, None] * eye - s_mat)

    def propagate(block: np.ndarray) -> list[np.ndarray]:
        """``C_0 .. C_{n_r}`` from ``C_p = ((p+q) I - S)^-1 (-(beta I + T) C_{p-1})``."""
        chain = [block]
        for step in steps:
            chain.append(step @ -terminate(chain[-1]))
        return chain

    # C_0 must satisfy (S - q I) C_0 = 0 and, after propagating through the
    # recurrence, the termination identity (beta I + T) C_{n_r} = 0.  At the
    # root energy the termination map restricted to the indicial kernel is
    # rank-deficient; depending on the cell it either selects part of the
    # kernel (n_r = 0) or vanishes identically on it (n_r >= 1, where the
    # quantization kills the whole chain).  Both cases are handled uniformly
    # by thresholding the restricted map against the generic magnitude a
    # non-quantized chain would have.  The 2-norms of the termination map
    # and of each step applied to it come from one batched SVD.
    termination = terminate(eye)
    norms = np.linalg.svd(
        np.concatenate([termination[None], steps @ -termination]), compute_uv=False
    )[:, 0]
    termination_norm = float(norms[0])
    generic_scale = math.prod(norms[:0:-1], start=termination_norm)

    kernel_basis = nullspace(s_mat - q * eye)
    if kernel_basis.shape[1] == 0:
        raise RuntimeError("indicial equation has no solution (S has no +q eigenvector)")

    restricted = terminate(propagate(kernel_basis)[-1])
    _, sing_w, vt_w = np.linalg.svd(restricted)
    threshold = SVD_GAP_THRESHOLD * generic_scale
    admissible = int(np.count_nonzero(sing_w <= threshold))
    if admissible == 0:
        raise RuntimeError(
            "no terminating series at the root energy: smallest termination "
            f"residual {sing_w[-1]:.3e} exceeds {threshold:.3e} "
            f"(kappa={params.kappa}, n_r={n_r})"
        )
    admissible_basis = kernel_basis @ vt_w[sing_w <= threshold].T

    # propagate the whole admissible subspace and keep the directions whose
    # final coefficient is largest; this avoids near-degenerate directions
    # (close couplings make neighboring levels almost align) that would make
    # the last coefficient vanish by cancellation.  That singular value is
    # often degenerate, and which vector of its subspace an SVD returns is
    # up to roundoff, so the series starts from the projection of a fixed
    # generic vector onto the whole subspace, which roundoff only nudges
    _, sing_b, vt_b = np.linalg.svd(propagate(admissible_basis)[-1], full_matrices=False)
    top = admissible_basis @ vt_b[sing_b >= (1.0 - 1e-8) * sing_b[0]].T
    start = top @ (top.T @ _DIRECTION_PROBE)
    coefficients = np.array(propagate(start / np.linalg.norm(start)))
    c0 = coefficients[0]

    # honest post-check: the last coefficient must be annihilated relative to
    # the operator norm of the termination map (a genuinely non-terminating
    # direction scores O(1) in this measure)
    last = coefficients[-1]
    termination_relative = float(
        np.linalg.norm(terminate(last)) / (termination_norm * np.linalg.norm(last))
    )
    if termination_relative > SVD_GAP_THRESHOLD:
        raise RuntimeError(
            f"series does not terminate: relative termination residual "
            f"{termination_relative:.3e} exceeds {SVD_GAP_THRESHOLD:.1e}"
        )
    closed_form_delta = abs(energy - sommerfeld_energy(params))

    series = RadialSeries(exponent=q, decay=beta, coefficients=coefficients)
    diagnostics = {
        "termination_relative": termination_relative,
        "termination_kernel_dim": admissible,
        "termination_vacuity": float(sing_w[0] / generic_scale),
        "closed_form_delta": closed_form_delta,
        "indicial_residual": float(np.abs(s_mat @ c0 - q * c0).max()),
        "s_square_error": s_square_err,
        "t_square_error": t_square_err,
    }
    return RadialSolution(params=params, energy=energy, series=series, diagnostics=diagnostics)


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
