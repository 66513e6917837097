"""Bound states in a Coulomb potential: radial reduction and fine structure.

Separating the minimally-coupled wave equation with potential ``A = -(lambda/
q r) e0`` leads, for an angular sector labeled by a nonzero integer ``kappa``,
to a first-order system for the rescaled radial profile ``u(r) = r * phi(r)``
with values in the sixteen-dimensional even subalgebra::

    du/dr = (1/r) S u  -  T u

``S`` couples the angular label and the Coulomb strength; ``T`` carries the
mass and the energy.  Both square to multiples of the identity (``S^2 =
(kappa^2 - lambda^2) I``, ``T^2 = (m^2 - eps^2) I``), which makes the series
solution terminate exactly when the energy sits on the Sommerfeld ladder

    eps = m / sqrt(1 + lambda^2 / (n_r + sqrt(kappa^2 - lambda^2))^2)

The solver here root-finds the termination condition independently of that
closed form and cross-checks the two routes.

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

from .algebra import (
    CL32,
    Multivector,
    e,
    even_coeffs,
    even_masks,
    from_even_coeffs,
    pseudoscalar,
)
from .fields import Field5, as_point
from .wave import GammaChoice

_E0 = e(CL32, 0)
_E3 = e(CL32, 3)
_PSEUDO = pseudoscalar(CL32)

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
    masks = even_masks(CL32)
    outputs = []
    parity = None
    for mask in masks:
        coeffs = np.zeros(CL32.n_blades)
        coeffs[mask] = 1.0
        out = fn(Multivector(coeffs, CL32))
        parities = {g % 2 for g in out.grades_present}
        if len(parities) > 1:
            raise ValueError(
                f"operator output mixes even and odd grades: {out.grades_present}"
            )
        if parities:
            this = "odd" if parities == {1} else "even"
            if parity is None:
                parity = this
            elif parity != this:
                raise ValueError("operator parity differs between basis blades")
        outputs.append(out)
    matrix = np.zeros((len(masks), len(masks)))
    for j, out in enumerate(outputs):
        if parity == "odd":
            out = _PSEUDO * out
        matrix[:, j] = even_coeffs(out)
    return matrix


def e0_sandwich_matrix() -> np.ndarray:
    """Matrix of ``x -> e0 x e0`` (involution with eigenvalues +-1)."""
    return even_operator_matrix(lambda mv: _E0 * mv * _E0)


def gamma_e0_right_matrix(gamma: GammaChoice) -> np.ndarray:
    """Paired matrix of right multiplication by ``gamma * e0`` (grade-flipping)."""
    ge0 = gamma.as_multivector() * _E0
    return even_operator_matrix(lambda mv: mv * ge0)


def radial_left_matrix(radial_unit: Multivector | None = None) -> np.ndarray:
    """Paired matrix of left multiplication by a unit spatial vector."""
    er = _radial_unit(radial_unit)
    return even_operator_matrix(lambda mv: er * mv)


def _radial_unit(radial_unit: Multivector | None) -> Multivector:
    if radial_unit is None:
        return _E3
    if radial_unit.grades_present != (1,):
        raise ValueError("radial unit must be a grade-1 vector")
    if radial_unit.coeffs[1 << 0] != 0.0 or radial_unit.coeffs[1 << 4] != 0.0:
        raise ValueError("radial unit must be purely spatial")
    sq = radial_unit * radial_unit
    if (sq - 1).inf_norm() > 1e-12:
        raise ValueError("radial unit must square to +1")
    return radial_unit


@functools.lru_cache(maxsize=8)
def _radial_blocks(
    gamma: GammaChoice, radial_unit: Multivector | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant blocks ``(Z, R H Z, R)`` of the radial system, read-only.

    They depend only on the phase bivector and the radial unit, so they are
    built once per pair and shared by every ``S`` and ``T``.  An invalid
    radial unit raises on every call (exceptions are not cached).
    """
    z = e0_sandwich_matrix()
    h = gamma_e0_right_matrix(gamma)
    r = radial_left_matrix(radial_unit)
    rhz = r @ h @ z
    for mat in (z, rhz, r):
        mat.setflags(write=False)
    return z, rhz, r


def angular_coupling_matrix(
    kappa: int,
    coupling: float,
    gamma: GammaChoice,
    radial_unit: Multivector | None = None,
) -> np.ndarray:
    """The matrix ``S`` of the 1/r term in the radial system.

    ``S = kappa Z + coupling R H Z`` with ``Z`` the e0 sandwich, ``H`` the
    gamma-e0 right multiplication and ``R`` the radial left multiplication
    (the last two in the pseudoscalar-paired encoding, so ``R H`` is the true
    matrix of their composition).  Satisfies ``S^2 = (kappa^2-coupling^2) I``.
    """
    z, rhz, _ = _radial_blocks(gamma, radial_unit)
    return kappa * z + coupling * rhz


def mass_energy_matrix(
    mass: float,
    energy: float,
    gamma: GammaChoice,
    radial_unit: Multivector | None = None,
) -> np.ndarray:
    """The matrix ``T`` of the constant term in the radial system.

    ``T = mass R - energy R H Z`` in the notation of
    :func:`angular_coupling_matrix`; satisfies ``T^2 = (mass^2-energy^2) I``.
    """
    _, rhz, r = _radial_blocks(gamma, radial_unit)
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
        if not (self.mass > 0):
            raise ValueError("mass must be positive")
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
        if r <= 0:
            raise ValueError("radius must be positive")
        return r**self.exponent * math.exp(self.decay * r) * self._polynomial(r)

    def derivative(self, r: float) -> np.ndarray:
        """Coordinates of ``du/dr`` from the analytic series."""
        if r <= 0:
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
    decay: float | np.ndarray, params: CoulombParams
) -> float | np.ndarray:
    """Termination condition as a function of the decay constant ``|beta|``.

    Strictly increasing on (0, m); its unique root fixes the bound state.
    Rooting in the decay constant rather than the energy keeps the
    termination identity sharp even when the energy is within ulps of the
    rest mass (weak coupling), where d(decay)/d(energy) blows up.
    """
    m = params.mass
    q = params.series_exponent
    return decay * (params.n_r + q) - params.coupling * np.sqrt((m - decay) * (m + decay))


def solve_radial(
    params: CoulombParams,
    radial_unit: Multivector | None = None,
    scan_points: int = 10_000,
    svd_gap_threshold: float = 1e-10,
) -> RadialSolution:
    """Root-find the termination energy and build the terminating series.

    The energy comes from bisecting the termination condition, not from the
    closed form; the closed form is cross-checked into ``diagnostics`` along
    with the relative residual of the termination identity on the last
    series coefficient.  Raises when no series direction terminates (for
    example n_r = 0 with kappa > 0 when the phase bivector is e0 times the
    pseudoscalar, mirroring the standard Dirac-Coulomb selection rule).
    """
    m = params.mass
    q = params.series_exponent
    n_r = params.n_r

    # bracket the unique root of the termination condition in the decay
    # constant with a coarse scan, then bisect to the floating-point limit
    grid = np.linspace(0.0, m, scan_points)
    vals = _quantization_gap(grid, params)
    above = np.nonzero(vals >= 0.0)[0]
    if len(above) == 0:
        raise RuntimeError("termination condition has no sign change on (0, m)")
    hi = float(grid[above[0]])
    lo = float(grid[above[0] - 1]) if above[0] > 0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _quantization_gap(mid, params) < 0.0:
            lo = mid
        else:
            hi = mid
    decay = 0.5 * (lo + hi)
    energy = math.sqrt((m - decay) * (m + decay))
    beta = -decay

    s_mat = angular_coupling_matrix(params.kappa, params.coupling, params.gamma, radial_unit)
    t_mat = mass_energy_matrix(m, energy, params.gamma, radial_unit)
    eye = np.eye(16)

    s_square_err = float(np.abs(s_mat @ s_mat - (params.kappa**2 - params.coupling**2) * eye).max())
    t_square_err = float(np.abs(t_mat @ t_mat - (m**2 - energy**2) * eye).max())

    # C_0 must satisfy (S - q I) C_0 = 0 and, after propagating through the
    # recurrence, the termination identity (beta I + T) C_{n_r} = 0.  At the
    # root energy the termination map restricted to the indicial kernel is
    # rank-deficient; depending on the cell it either selects part of the
    # kernel (n_r = 0) or vanishes identically on it (n_r >= 1, where the
    # quantization kills the whole chain).  Both cases are handled uniformly
    # by thresholding the restricted map against the generic magnitude a
    # non-quantized chain would have.
    termination = beta * eye + t_mat
    termination_norm = float(np.linalg.norm(termination, 2))
    chain = termination
    generic_scale = termination_norm
    for p in range(n_r, 0, -1):
        step = np.linalg.solve((p + q) * eye - s_mat, -termination)
        chain = chain @ step
        generic_scale *= np.linalg.norm(step, 2)

    _, sing_k, vt_k = np.linalg.svd(s_mat - q * eye)
    kernel_mask = sing_k <= 1e-10 * sing_k[0]
    kernel_basis = vt_k[kernel_mask].T
    if kernel_basis.shape[1] == 0:
        raise RuntimeError("indicial equation has no solution (S has no +q eigenvector)")

    restricted = chain @ kernel_basis
    _, sing_w, vt_w = np.linalg.svd(restricted)
    threshold = svd_gap_threshold * generic_scale
    admissible = int(np.count_nonzero(sing_w <= threshold))
    if admissible == 0:
        raise RuntimeError(
            "no terminating series at the root energy: smallest termination "
            f"residual {sing_w[-1]:.3e} exceeds {threshold:.3e} "
            f"(kappa={params.kappa}, n_r={n_r})"
        )
    admissible_basis = kernel_basis @ vt_w[sing_w <= threshold].T

    # propagate the whole admissible subspace and take the direction whose
    # final coefficient is largest; this avoids near-degenerate directions
    # (close couplings make neighboring levels almost align) that would make
    # the last coefficient vanish by cancellation
    blocks = [admissible_basis]
    for p in range(1, n_r + 1):
        prev = blocks[-1]
        blocks.append(
            np.linalg.solve((p + q) * eye - s_mat, -(beta * prev + t_mat @ prev))
        )
    _, _, vt_b = np.linalg.svd(blocks[-1], full_matrices=False)
    direction = vt_b[0]
    c0 = admissible_basis @ direction

    # re-propagate the chosen chain with extended-precision residuals: the
    # constant matrix is far from normal (singular values ~ 2 mass against
    # eigenvalues +-|beta|), so plain double arithmetic contaminates the
    # shrinking terminating direction by ~eps * mass/|beta| per step
    ext = np.longdouble
    s_ext = s_mat.astype(ext)
    t_ext = t_mat.astype(ext)
    beta_ext = ext(beta)
    q_ext = ext(q)
    kernel_pinv = np.linalg.pinv(s_mat - q * eye)
    c = c0.astype(ext)
    for _ in range(3):
        resid = s_ext @ c - q_ext * c
        c = c - (kernel_pinv @ resid.astype(np.float64)).astype(ext)
    c = c / ext(np.linalg.norm(c.astype(np.float64)))
    chain_ext = [c]
    for p in range(1, n_r + 1):
        rhs = -(beta_ext * chain_ext[-1] + t_ext @ chain_ext[-1])
        step_mat = (p + q) * eye - s_mat
        x = np.linalg.solve(step_mat, rhs.astype(np.float64)).astype(ext)
        for _ in range(2):
            resid = rhs - ((ext(p) + q_ext) * x - s_ext @ x)
            x = x + np.linalg.solve(step_mat, resid.astype(np.float64)).astype(ext)
        chain_ext.append(x)
    coefficients = np.array([v.astype(np.float64) for v in chain_ext])
    c0 = coefficients[0]

    # honest post-check: the last coefficient must be annihilated relative to
    # the operator norm of the termination map (a genuinely non-terminating
    # direction scores O(1) in this measure)
    last_ext = chain_ext[-1]
    last_norm = float(np.linalg.norm(last_ext.astype(np.float64)))
    termination_relative = float(
        np.linalg.norm((beta_ext * last_ext + t_ext @ last_ext).astype(np.float64))
        / (termination_norm * last_norm)
    )
    if termination_relative > svd_gap_threshold:
        raise RuntimeError(
            f"series does not terminate: relative termination residual "
            f"{termination_relative:.3e} exceeds {svd_gap_threshold:.1e}"
        )
    closed_form_delta = abs(energy - sommerfeld_energy(params))

    series = RadialSeries(exponent=q, decay=beta, coefficients=coefficients)
    diagnostics = {
        "termination_relative": termination_relative,
        "termination_kernel_dim": admissible,
        "termination_vacuity": float(np.linalg.norm(restricted, 2) / generic_scale),
        "closed_form_delta": closed_form_delta,
        "indicial_residual": float(np.abs(s_mat @ c0 - q * c0).max()),
        "s_square_error": s_square_err,
        "t_square_error": t_square_err,
    }
    return RadialSolution(params=params, energy=energy, series=series, diagnostics=diagnostics)


def radial_ode_residual(
    solution: RadialSolution,
    radii: Sequence[float] | None = None,
    radial_unit: Multivector | None = None,
) -> float:
    """Componentwise backward-error residual of ``du/dr = S u / r - T u``.

    The common factor ``r^q exp(beta r)`` is divided out analytically, and at
    each sample radius the residual of the polynomial part is compared,
    component by component, against the sum of absolute values of every
    elementary term that enters it.  A genuine solution scores at roundoff
    level at every radius; a non-solution scores a finite fraction of one.
    The maximum ratio over the radii is returned; default radii span the
    natural decay length of the solution.
    """
    params = solution.params
    series = solution.series
    if radii is None:
        scale = 1.0 / abs(series.decay)
        radii = np.geomspace(0.05 * scale, 3.0 * scale, 12)
    s_mat = angular_coupling_matrix(params.kappa, params.coupling, params.gamma, radial_unit)
    t_mat = mass_energy_matrix(params.mass, solution.energy, params.gamma, radial_unit)
    abs_s = np.abs(s_mat)
    abs_t = np.abs(t_mat)
    coeffs = series.coefficients
    abs_coeffs = np.abs(coeffs)
    powers = np.arange(coeffs.shape[0])
    worst = 0.0
    for r in radii:
        r = float(r)
        r_pow = r**powers
        poly = r_pow @ coeffs
        poly_env = r_pow @ abs_coeffs
        if coeffs.shape[0] > 1:
            d_pow = powers[1:] * r ** (powers[1:] - 1)
            dpoly = d_pow @ coeffs[1:]
            dpoly_env = d_pow @ abs_coeffs[1:]
        else:
            dpoly = np.zeros(coeffs.shape[1])
            dpoly_env = np.zeros(coeffs.shape[1])
        log_slope = series.exponent / r + series.decay
        residual = log_slope * poly + dpoly - s_mat @ poly / r + t_mat @ poly
        envelope = (
            (abs(series.exponent) / r + abs(series.decay)) * poly_env
            + dpoly_env
            + abs_s @ poly_env / r
            + abs_t @ poly_env
        )
        # rows far below the global envelope carry only roundoff residue of
        # the coefficients themselves and say nothing about the equation
        mask = envelope > 1e-15 * envelope.max()
        if not mask.any():
            continue
        worst = max(worst, float((np.abs(residual)[mask] / envelope[mask]).max()))
    return worst


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
    ``f(|r|) c`` passes for kappa = +-1 when ``e0 c e0 = c / kappa``.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("at least one sample point is required")
    worst = 0.0
    for x in pts:
        rvec = Multivector.zero(CL32)
        for i in (1, 2, 3):
            rvec = rvec + float(x[i]) * e(CL32, i)
        grad = Multivector.zero(CL32)
        rdot = Multivector.zero(CL32)
        for i in (1, 2, 3):
            d = field.partial(i, x)
            grad = grad + e(CL32, i) * d
            rdot = rdot + float(x[i]) * d
        val = field.value(x)
        lhs = rvec * grad
        rhs = rdot + val - kappa * (_E0 * val * _E0)
        worst = max(worst, (lhs - rhs).inf_norm())
    return worst
