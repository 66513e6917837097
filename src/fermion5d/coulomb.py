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
solver uses ``S^2 = q^2 I`` for the steps ``((p + q) I - S)^-1 = ((p + q) I
+ S) / (p (p + 2q))`` and the indicial kernel, 8 scaled columns of ``S + qI``,
and checks it for every state: one whose ``S^2`` misses ``q^2 I`` by more
than 1e-12 kappa^2 is an error, not a series.  :func:`solve_radials` solves
many states at once with no LAPACK call: per phase bivector, the states are
sorted so that those still stepping form a prefix, and each one's whole
indicial kernel is propagated once.

The kernel basis makes column norms do the work of singular values.  The
right product ``P: x -> x e3 e4`` is a signed permutation with ``P^2 = I``
that commutes bit for bit with ``Z``, ``R H Z`` and ``R``, so with ``S``,
``T``, every step and the termination map, and it pairs the 8 kernel blades
of each sign of kappa.  The basis columns are ``(S + qI) (e_b +- P e_b)``
over one blade ``b`` of each pair, scaled to unit norm: ``P``-eigenvectors
that span the kernel.  ``P`` is symmetric, so the images of columns of
opposite eigenvalue are orthogonal; columns of one eigenvalue lie in
different blocks of the block-diagonal radial operators, which the maps keep
apart.  So the images of the basis under the termination map and under the
map to the last coefficient have orthogonal columns: each column norm is a
singular value, and the subspace that terminates is spanned by whole
columns.  The kernel's raw columns would not do: under ``e12`` a ``4 x 4``
block holds two of them, ``c`` and ``P c``, which the termination map sends
to non-orthogonal images.

Each constant operator is a chain of signed blade gathers on the even basis.
A chain that flips even and odd grades ends with the gather of ``x -> E x``,
pairing it with the unit pseudoscalar (central, squaring to +1), so two
grade-flipping maps compose as plain 16 x 16 matrices.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .algebra import (
    CL32,
    BladeOperator,
    e,
    even_masks,
    gather_matrix,
    odd_masks,
    pseudoscalar,
    tables,
)
from .fields import ArrayField, add_gradient, as_points
from .wave import GammaChoice, _times_gamma

_LEFT_PSEUDO = BladeOperator.left(pseudoscalar(CL32))  # x -> E x
_LEFT_E0, _RIGHT_E0 = BladeOperator.left(e(CL32, 0)), BladeOperator.right(e(CL32, 0))
_LEFT_E3 = BladeOperator.left(e(CL32, 3))  # the radial unit
_RIGHT_E34 = BladeOperator.right(e(CL32, 3, 4))  # the kernel pairing P
_EVEN_MASKS, _ODD_MASKS = list(even_masks(CL32)), list(odd_masks(CL32))
_EYE = np.eye(16)
_EYE.setflags(write=False)

#: Bound on ``|S^2 - q^2 I|``, relative to kappa^2, past which a state is an error.
SQUARE_IDENTITY_BOUND = 1e-12
#: Relative bound on the termination residual of a series, also the bound,
#: relative to a generic chain's scale, on the termination column norm (a
#: singular value, see the module docstring) that counts a kernel column as
#: terminating.
SVD_GAP_THRESHOLD = 1e-10
#: Fixed generic vector whose projection onto the terminating subspace picks the
#: series direction: square roots of the first sixteen primes, rationally independent.
_DIRECTION_PROBE = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])

#: Orbital letters for l = 0, 1, 2, ...: "spdf", then alphabetical from g,
#: skipping j and the letters already used (p, s).
ANGULAR_LETTERS = "spdfghiklmnoqrtuvwxyz"


# ---------------------------------------------------------------------------
# operator matrices on the even subalgebra
# ---------------------------------------------------------------------------


def even_operator_matrix(*ops: BladeOperator) -> np.ndarray:
    """16 x 16 :func:`~fermion5d.algebra.gather_matrix` of the chain ``ops``
    on the even subalgebra.  A grade-flipping chain ends with ``x -> E x``
    (see the module docstring); output left on an odd blade raises, so a
    missing pairing cannot drop it."""
    columns = gather_matrix(_EVEN_MASKS, *ops)
    if columns[_ODD_MASKS].any():
        raise ValueError("operator output is odd: end the chain with the pseudoscalar pairing")
    return columns[_EVEN_MASKS]


def e0_sandwich_matrix() -> np.ndarray:
    """Matrix of ``x -> e0 x e0`` (involution with eigenvalues +-1)."""
    return even_operator_matrix(_LEFT_E0, _RIGHT_E0)


def gamma_e0_right_matrix(gamma: GammaChoice) -> np.ndarray:
    """Paired matrix of right multiplication by ``gamma * e0`` (grade-flipping)."""
    return even_operator_matrix(_times_gamma(gamma), _RIGHT_E0, _LEFT_PSEUDO)


def radial_left_matrix() -> np.ndarray:
    """Paired matrix of left multiplication by the radial unit ``e3``."""
    return even_operator_matrix(_LEFT_E3, _LEFT_PSEUDO)


@functools.lru_cache(maxsize=1)
def _kernel_pairing() -> tuple[np.ndarray, np.ndarray]:
    """The pairing ``P: x -> x e3 e4`` (module docstring) and, for kappa < 0 and
    > 0, the ``(16, 8)`` vectors ``(e_b +- P e_b) / sqrt 2`` over one blade ``b``
    of each pair it makes of the blades where ``Z = sign kappa``; read-only.

    It does not depend on the phase bivector, so it is built once, lazily;
    :func:`_radial_blocks` checks that ``P`` commutes with each bivector's
    blocks.  Raises unless ``P`` is a signed permutation with ``P^2 = I`` that
    commutes with ``Z`` and moves every blade.
    """
    p, z = even_operator_matrix(_RIGHT_E34), e0_sandwich_matrix()
    if not (np.array_equal(np.abs(p) @ np.abs(p).T, _EYE) and np.array_equal(p @ p, _EYE)
            and np.array_equal(p @ z, z @ p) and not np.diag(p).any()):
        raise RuntimeError("the kernel pairing P is not a signed permutation with P^2 = I "
                           "that commutes with Z and moves every blade")
    partner = np.abs(p).argmax(axis=0)  # P e_b = +-e_partner[b]
    starts = np.empty((2, 16, 8))
    for sign, vectors in zip((-1.0, 1.0), starts):
        firsts = [b for b in np.flatnonzero(np.diag(z) == sign) if b < partner[b]]
        vectors[:, 0::2] = (_EYE + p)[:, firsts] * math.sqrt(0.5)
        vectors[:, 1::2] = (_EYE - p)[:, firsts] * math.sqrt(0.5)
    for mat in (p, starts):
        mat.setflags(write=False)
    return p, starts


@functools.lru_cache(maxsize=8)
def _radial_blocks(gamma: GammaChoice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant blocks ``(Z, R H Z, R)`` of the radial system, read-only.

    They depend only on the phase bivector, so they are built once per phase
    bivector and shared by every ``S`` and ``T``.  Raises unless they have
    the structure that :func:`_indicial_kernel` relies on, and unless the
    pairing ``P`` of :func:`_kernel_pairing` commutes with each of them.
    """
    z, r = e0_sandwich_matrix(), radial_left_matrix()
    rhz = r @ gamma_e0_right_matrix(gamma) @ z
    perm = np.abs(rhz)  # nonnegative with perm perm^T = I: a permutation
    if not (np.array_equal(np.abs(z), _EYE) and np.array_equal(perm @ perm.T, _EYE)
            and not (z @ rhz + rhz @ z).any()):
        raise RuntimeError(f"radial blocks of {gamma.variant} are not Z = diag(+-1) and "
                           "a signed permutation RHZ that anticommutes with it")
    p = _kernel_pairing()[0]
    if not all(np.array_equal(p @ mat, mat @ p) for mat in (rhz, r)):
        raise RuntimeError(f"the kernel pairing P does not commute with the radial blocks "
                           f"of {gamma.variant}")
    for mat in (z, rhz, r):
        mat.setflags(write=False)
    return z, rhz, r


def angular_coupling_matrix(kappa: int, coupling: float, gamma: GammaChoice) -> np.ndarray:
    """The matrix ``S`` of the 1/r term in the radial system.

    ``S = kappa Z + coupling R H Z`` with ``Z`` the e0 sandwich, ``H`` the
    gamma-e0 right multiplication and ``R`` the radial left multiplication
    (the last two in the pseudoscalar-paired encoding, so ``R H`` is the true
    matrix of their composition).  Satisfies ``S^2 = (kappa^2-coupling^2) I``.
    ``(N, 1, 1)`` arrays of parameters give the stack of N matrices.
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
            raise ValueError(f"coupling {self.coupling} too strong for kappa={self.kappa}: "
                             "need coupling^2 < kappa^2")

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


def _below_root(decay, shift, coupling) -> np.ndarray:
    """Whether the termination gap ``d (n_r + q) - lambda sqrt(1 - d^2)`` is
    negative at ``decay``: the one sign test of the decay bisection."""
    return decay * shift - coupling * np.sqrt((1.0 - decay) * (1.0 + decay)) < 0.0


def _termination_decays(params_seq: list[CoulombParams]) -> list[float]:
    """Decay constants ``d = |beta| / m`` at the roots of the termination
    gap ``d (n_r + q) - lambda sqrt(1 - d^2)``, strictly increasing on (0, 1).

    Rooting in the decay rather than the energy keeps the termination
    identity sharp when the energy is within ulps of the rest mass (weak
    coupling), where d(decay)/d(energy) blows up.  The gap is ``-lambda`` at
    0 and ``n_r + q`` at 1, so (0, 1) brackets every root; each state's
    bracket is bisected until it is two adjacent floats, and the root is its
    midpoint.

    The bisection starts next to the root, with the bits of one from (0, 1).
    The closed-form root ``lambda / hypot(n_r + q, lambda)`` lies in a
    dyadic bracket ``[k w, (k+1) w]``, ``w = 2^(e - 45)`` for its binary
    exponent ``e``: about 256 ulps.  When the gap's sign at one end
    disagrees, the bracket moves by one width.  A bisection from (0, 1)
    halves exact dyadic brackets, so when its width reaches ``w`` it holds a
    bracket of that grid whose ends it tested.  The float gap's sign flips
    only within a few ulps of the root, so on the grid it changes once: both
    hold the same bracket and end on the same two floats, this one in about
    9 rounds instead of 56-63.  A state whose guess is 0 or subnormal, where
    ``w`` need not be a float, or whose moved bracket still disagrees,
    starts from (0, 1); only such a state takes up to about 1100 steps, down
    to the smallest subnormal, as every step shrinks its bracket."""
    coupling, shift = np.array([(p.coupling, p.n_r + p.series_exponent)
                                for p in params_seq], dtype=np.float64).reshape(-1, 2).T
    guess = coupling / np.hypot(shift, coupling)
    exponent = np.frexp(guess)[1] - 45
    cell = np.floor(np.ldexp(guess, -exponent))
    # (k-1) w .. (k+2) w, the last clipped to 1 where it would pass it
    ends = np.minimum(np.ldexp(cell + np.array([[-1.0], [0.0], [1.0], [2.0]]), exponent), 1.0)
    below = _below_root(ends, shift, coupling)
    # the guess's bracket, or the one a width below (above) it when the gap
    # is not negative at k w (is negative at (k+1) w); (0, 1) where the
    # bracket's ends still disagree
    columns, start = np.arange(len(coupling)), below[1:3].sum(axis=0)
    lo, hi = ends[start, columns], ends[start + 1, columns]
    fits = below[start, columns] & ~below[start + 1, columns] & (guess >= np.finfo(float).tiny)
    lo, hi = np.where(fits, lo, 0.0), np.where(fits, hi, 1.0)
    active = np.ones(len(coupling), dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        if not active.any():
            return (0.5 * (lo + hi)).tolist()
        below = _below_root(mid, shift, coupling)
        lo, hi = np.where(active & below, mid, lo), np.where(active & ~below, mid, hi)


def _norms(rows: np.ndarray) -> np.ndarray:
    """2-norms along the last axis, each one dot product as for a single vector."""
    return np.sqrt(rows[..., None, :] @ rows[..., :, None])[..., 0, 0]


def _column_scale(blocks: np.ndarray) -> np.ndarray:
    """Largest column 2-norm of each matrix of a ``(..., 16, 16)`` stack: ``max_j
    |B e_j| <= |B|_2``, so a threshold from it is never looser than one from singular
    values.  The mass-1 blocks' entries are of order 1, so squares are summed as they are."""
    return np.sqrt((blocks * blocks).sum(axis=-2)).max(axis=-1)


def _step_inverses(s_plus_q: np.ndarray, q: np.ndarray, p: int) -> np.ndarray:
    """``((p+q) I - S)^-1 = ((S + qI) + pI) / (p (p+2q))`` of a stack, as ``S^2 = q^2 I``."""
    return (s_plus_q + p * _EYE) / (p * (p + 2 * q))


def _indicial_kernel(s_plus_q, kappas, couplings, q) -> np.ndarray:
    """Orthonormal bases ``(N, 16, 8)`` of the indicial kernels ``null(S - qI)``,
    each column an eigenvector of the pairing ``P`` (:func:`_kernel_pairing`).

    ``S^2 = q^2 I`` puts the columns of ``S + qI`` in the kernel.  ``Z`` is
    diagonal +-1 and ``R H Z`` a signed permutation anticommuting with it, so
    the column at each of the 8 blades where ``Z = sign kappa`` holds
    ``|kappa| + q`` there and ``+-lambda`` at one blade where ``Z = -sign
    kappa``: disjoint supports, orthonormal once scaled by their norm.  The
    columns taken are those at ``(e_b +- P e_b) / sqrt 2``, which ``P`` maps
    onto ``+-`` themselves bit for bit: columns of opposite eigenvalue are
    exactly orthogonal, and those of one eigenvalue share no row."""
    starts = _kernel_pairing()[1][(kappas[:, 0, 0] > 0).astype(int)]
    return (s_plus_q @ starts) / np.hypot(np.abs(kappas) + q, couplings)


def _solve_group(group: list[CoulombParams], decays: list[float]) -> list:
    """Solutions, or errors, of states that share the phase bivector, sorted by n_r
    from the largest down, solved at mass 1 from their decays, then scaled."""
    n_r, gamma = np.array([p.n_r for p in group]), group[0].gamma
    _, rhz, r = _radial_blocks(gamma)
    energies = [math.sqrt((1.0 - d) * (1.0 + d)) for d in decays]

    def col(values) -> np.ndarray:
        return np.array(values, dtype=np.float64)[:, None, None]

    def square_error(mat: np.ndarray, square: list) -> np.ndarray:
        return np.abs(mat @ mat - col(square) * _EYE).max(axis=(1, 2))

    q = col([p.series_exponent for p in group])
    kappas, couplings = col([p.kappa for p in group]), col([p.coupling for p in group])
    s_mat = angular_coupling_matrix(kappas, couplings, gamma)
    s_plus_q = s_mat + q * _EYE
    s_square_err = square_error(s_mat, [p.kappa**2 - p.coupling**2 for p in group])
    t_mat = mass_energy_matrix(1.0, col(energies), gamma)
    t_square_err = square_error(t_mat, [1.0 - b**2 for b in energies])

    # (beta I + T) in split form, T = (R - RHZ) + b RHZ with the binding b =
    # 1 - eps = d^2 / (1 + eps): its eigenvalues are +-d up to the rounding of
    # b alone, whereas the rounded eps in T = R - eps RHZ moves them by
    # ~ulp(eps) / d, above the termination bound at weak coupling.  R - RHZ
    # has at most two +-1 or +-2 entries per row: one rounding per component.
    r_minus_rhz = r - rhz
    binding = col([d * d / (1.0 + b) for d, b in zip(decays, energies)])
    beta = col([-d for d in decays])

    def terminate(c: np.ndarray, k=None) -> np.ndarray:
        """``(beta I + T) c`` for the first ``k`` states (all by default)."""
        return r_minus_rhz @ c + binding[:k] * (rhz @ c) + beta[:k] * c

    # every state's steps for p = 1..n_r, power-major: the states stepping at
    # power p are a prefix, as they are sorted by n_r
    counts = [int((n_r >= p).sum()) for p in range(1, n_r[0] + 1)]
    offsets = np.cumsum([0] + counts)
    steps = np.empty((offsets[-1], 16, 16))
    for p, count in enumerate(counts):
        steps[offsets[p]:offsets[p + 1]] = _step_inverses(s_plus_q[:count], q[:count], p + 1)

    # C_0 must satisfy (S - q I) C_0 = 0 and, propagated by C_p = ((p+q) I - S)^-1
    # (-(beta I + T) C_{p-1}), (beta I + T) C_{n_r} = 0.  At the root the termination
    # map selects part of the indicial kernel (n_r = 0) or vanishes on all of it
    # (n_r >= 1): both are thresholded against the product of the scales of the
    # termination map and of each step on it, a generic chain's.
    termination = r_minus_rhz + binding * rhz + beta * _EYE
    termination_norm = _column_scale(termination)
    generic_scale = termination_norm.copy()
    for p, k in reversed(list(enumerate(counts))):  # powers n_r .. 1, as each state's product
        generic_scale[:k] *= _column_scale(steps[offsets[p]:offsets[p + 1]] @ -termination[:k])
    threshold = SVD_GAP_THRESHOLD * generic_scale

    # chain[p] holds C_p of every kernel column for the states stepping at power
    # p, and final each state's C_{n_r}.  The columns' images under the
    # termination map and under the map to C_{n_r} are orthogonal (module
    # docstring), so their norms are singular values and the admissible
    # subspace is spanned by the columns whose residual is below the threshold
    kernel = _indicial_kernel(s_plus_q, kappas, couplings, q)
    chain, final = [kernel], kernel.copy()
    for p, count in enumerate(counts):
        chain.append(steps[offsets[p]:offsets[p + 1]] @ -terminate(chain[-1][:count], count))
        final[:count] = chain[-1]
    residuals = _norms(terminate(final).swapaxes(1, 2))
    admissible = residuals <= threshold[:, None]
    kernel_dims = admissible.sum(axis=1).tolist()
    # keep the admissible columns whose final coefficient is largest, not those
    # it vanishes on by cancellation (close couplings make neighboring levels
    # almost align).  That norm is often degenerate, so the series starts from a
    # fixed vector projected onto the span of every column within the band
    reach = np.where(admissible, _norms(final.swapaxes(1, 2)), 0.0)
    top = admissible & (reach >= (1.0 - 1e-8) * reach.max(axis=1, keepdims=True))
    weights = np.where(top, _DIRECTION_PROBE @ kernel, 0.0)
    # a unit C_0: the kernel is orthonormal, so |kernel w| = |w|
    weights = (weights / np.where(kernel_dims, _norms(weights), 1.0)[:, None])[..., None]
    coefficients = np.zeros((len(group), len(chain), 16))
    for p, c in enumerate(chain):
        coefficients[:len(c), p] = (c @ weights[:len(c)])[..., 0]

    # post-check: the termination map annihilates the last coefficient
    # relative to its scale (a non-terminating direction scores O(1)); both
    # norms are of last / max|last|, so tiny squares do not underflow to 0 / 0
    last, c0 = (final @ weights)[..., 0], coefficients[:, :1].swapaxes(1, 2)
    peak = np.abs(last).max(axis=1)
    unit = last / np.where(peak > 0.0, peak, 1.0)[:, None]
    scale = termination_norm * np.where(peak > 0.0, _norms(unit), 1.0)
    termination_relative = _norms(terminate(unit[..., None])[..., 0]) / scale
    indicial = np.abs(s_mat @ c0 - q * c0).max(axis=(1, 2))
    s_err, t_err, peaks, relative, vacuity, indicial = (values.tolist() for values in (
        s_square_err, t_square_err, peak, termination_relative,
        residuals.max(axis=1) / generic_scale, indicial))
    results: list = []
    for i, params in enumerate(group):
        if not s_err[i] <= SQUARE_IDENTITY_BOUND * params.kappa**2:
            error = (f"S^2 = q^2 I fails: error {s_err[i]:.3e} exceeds "
                     f"{SQUARE_IDENTITY_BOUND:.0e} kappa^2 ({_state(params)})")
        elif decays[i] == 0.0:  # the root lies below the smallest subnormal
            error = (f"decay constant rounds to 0 ({_state(params)}, "
                     f"coupling={params.coupling:.3e})")
        elif kernel_dims[i] == 0:
            error = ("no terminating series at the root energy: smallest termination "
                     f"residual {residuals[i].min():.3e} exceeds {threshold[i]:.3e} "
                     f"({_state(params)})")
        elif peaks[i] == 0.0:
            error = ("series underflows: every component of its last coefficient is 0 "
                     f"({_state(params)}, coupling={params.coupling:.3e})")
        elif not relative[i] <= SVD_GAP_THRESHOLD:
            error = ("series does not terminate: relative termination residual "
                     f"{relative[i]:.3e} exceeds {SVD_GAP_THRESHOLD:.1e}")
        else:
            mass, energy = params.mass, params.mass * energies[i]
            series = RadialSeries(params.series_exponent, -mass * decays[i],
                                  coefficients[i, :params.n_r + 1], mass)
            diagnostics = {
                "termination_relative": relative[i],
                "termination_kernel_dim": kernel_dims[i],
                "termination_vacuity": vacuity[i],
                "closed_form_delta": abs(energy - sommerfeld_energy(params)),
                "indicial_residual": indicial[i],
                "s_square_error": s_err[i],
                "t_square_error": t_err[i],
            }
            results.append(RadialSolution(params, energy, series, diagnostics))
            continue
        results.append(RuntimeError(error))
    return results


def _state(params: CoulombParams) -> str:
    """The ``kappa=.., n_r=..`` label of a state in an error message."""
    return f"kappa={params.kappa}, n_r={params.n_r}"


def solve_radials(params_seq: Iterable[CoulombParams]) -> list[RadialSolution | RuntimeError]:
    """:func:`solve_radial` for any iterable of states: per state its solution,
    or the ``RuntimeError`` it raises, whatever else the batch holds; an
    element that is not a :class:`CoulombParams` raises ``TypeError``.  A
    state of mass m is that of mass 1 scaled: m times the energy and the
    decay, and the same coefficients in ``rho = m r``.  One bisection roots
    every state, each from a bracket of about 256 ulps around its
    closed-form decay, and ends on the bits that one from (0, 1) gives (see
    :func:`_termination_decays`); per phase bivector, one propagation of
    every state's indicial kernel gives, as column norms, the admissible
    columns and, among them, those that set the series direction (see the
    module docstring).
    """
    params_seq, groups, results = list(params_seq), {}, {}
    for i, params in enumerate(params_seq):
        if not isinstance(params, CoulombParams):
            raise TypeError(f"state {i} is a {type(params).__name__}, not a CoulombParams")
        groups.setdefault(params.gamma, []).append(i)
    decays = _termination_decays(params_seq)
    for members in groups.values():
        members.sort(key=lambda i: -params_seq[i].n_r)  # stable: ties keep input order
        group = [params_seq[i] for i in members]
        results.update(zip(members, _solve_group(group, [decays[i] for i in members])))
    return [results[i] for i in range(len(params_seq))]


def solve_radial(params: CoulombParams) -> RadialSolution:
    """Root-find the termination energy and build the terminating series.

    ``diagnostics`` are those of the mass-1 solve, save the energy's
    ``closed_form_delta``, and hold the relative residual of the termination
    identity on the last coefficient, the series' whole check of the system
    (see the module docstring).  Its ``termination_vacuity`` is the 2-norm of
    the termination map on the indicial kernel over the threshold scale, a
    lower bound on the product of 2-norms, so it can exceed 1.  Raises when
    ``S^2 = q^2 I`` fails, when no series direction terminates (n_r = 0 with
    kappa > 0 when the phase bivector is e0 times the pseudoscalar, the
    Dirac-Coulomb selection rule), when its last coefficient underflows to
    zero, or when the decay constant rounds to 0 (coupling 5e-324).  This is
    :func:`solve_radials` on a batch of one, with no LAPACK call whatever
    ``n_r`` is.
    """
    (result,) = solve_radials([params])
    if isinstance(result, RuntimeError):
        raise result
    return result


# ---------------------------------------------------------------------------
# angular identity check
# ---------------------------------------------------------------------------


def angular_reduction_check(
    kappa: int, field: ArrayField, points: Sequence[Sequence[float]]
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
    values, partials = field.samples(pts)
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
