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

The radial system is two Dirac radial pairs, each fourfold.  The right
product ``P: x -> x e3 e4`` is a signed permutation with ``P^2 = I`` that
pairs the even blades, and in the basis ``e_b +- P e_b`` of its
eigenvectors ``Z``, ``R H Z`` and ``R`` split, under either phase bivector,
into eight 2 x 2 blocks, ``Z = diag(1, -1) = D`` in each: every block of
``P = +1`` is block 0, and of ``P = -1`` block 4, or its ``D``-conjugate,
one sign for all three (checked exactly, once per phase bivector).  So the
solver works on the two pairs: each block holds one column of the indicial
kernel, of one norm, bit for bit, in a pair's four; the columns lie in
disjoint blocks, so do their images, and each column norm is a singular
value of the maps the solver thresholds.  The series is the ``P = -1`` pair,
which carries the kappa system under either phase bivector and which ``(1 -
e3 e4)`` keeps, where admissible, else ``P = +1`` (e12's kappa > 0, n_r = 0).

Each constant operator is a chain of signed blade gathers on the even basis.
A chain that flips even and odd grades ends with the gather of ``x -> E x``,
pairing it with the unit pseudoscalar (central, squaring to +1), so two
grade-flipping maps compose as plain 16 x 16 matrices.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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
_RIGHT_E34 = BladeOperator.right(e(CL32, 3, 4))  # the pairing P of the block basis
_EVEN_MASKS, _ODD_MASKS = list(even_masks(CL32)), list(odd_masks(CL32))

#: Bound on ``|S^2 - q^2 I|``, relative to kappa^2, past which a state is an error.
SQUARE_IDENTITY_BOUND = 1e-12
#: Relative bound on the termination residual of a series, also the bound,
#: relative to a generic chain's scale, on the termination norm of a block's
#: kernel column (a singular value, see the module docstring) that counts it
#: as terminating.
SVD_GAP_THRESHOLD = 1e-10

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


@functools.lru_cache(maxsize=8)
def _radial_blocks(gamma: GammaChoice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant blocks ``(Z, R H Z, R)`` of the radial system, read-only.

    They depend only on the phase bivector, so they are built once per phase
    bivector and shared by every ``S`` and ``T``; :func:`_dirac_blocks`
    checks their structure.
    """
    z, r = e0_sandwich_matrix(), radial_left_matrix()
    rhz = r @ gamma_e0_right_matrix(gamma) @ z
    for mat in (z, rhz, r):
        mat.setflags(write=False)
    return z, rhz, r


@functools.lru_cache(maxsize=8)
def _dirac_blocks(gamma: GammaChoice) -> tuple[np.ndarray, np.ndarray]:
    """The block basis ``U`` (module docstring) and the ``(3, 8, 2, 2)`` tables
    of ``U^T M U / 2`` for ``M = Z, R H Z, R`` (:func:`_radial_blocks`),
    read-only, built once per phase bivector; every entry is an integer.

    ``U``'s columns are the eigenvectors ``e_b +- P e_b`` of the pairing ``P:
    x -> x e3 e4``, over one blade ``b`` of each pair, unnormalised (``U^T U
    = 2I``).  Columns ``2k`` and ``2k + 1`` span block ``k``: a blade where
    ``Z = +1``, then the one ``R`` maps it to; blocks 0..3 hold the ``+1``
    eigenvectors and blocks 4..7 the ``-1`` ones at the same blades and
    slots.  Raises unless ``U`` is a basis of ``P``-eigenvectors, nothing of
    the three lies outside the blocks, the 16 x 16 matrices rebuild from the
    tables bit for bit, every block of ``Z`` is ``D = diag(1, -1)`` and of ``R
    H Z`` is +-1 off its diagonal (:func:`_indicial_kernel`), and each is
    block 0 (4 for ``P = -1``) or its ``D``-conjugate, one sign for all three,
    which makes the solver's two pairs each fourfold.
    """
    p, dense, k = even_operator_matrix(_RIGHT_E34), np.array(_radial_blocks(gamma)), np.arange(8)
    z, r, eye = dense[0], dense[2], np.eye(16)
    partner, link = np.abs(p).argmax(axis=0), np.abs(r).argmax(axis=0)  # P e_b = +-e_partner[b]
    heads = [b for b in range(16) if b < partner[b] and z[b, b] > 0]
    blades = [blade for b in heads for blade in (b, min(link[b], partner[link[b]]))]
    basis = np.concatenate([(eye + p)[:, blades], (eye - p)[:, blades]], axis=1)
    if not (np.array_equal(basis.T @ basis, 2.0 * eye)
            and np.array_equal(p @ basis, basis * np.repeat([1.0, -1.0], 8))):
        raise RuntimeError("the pairing P does not give a basis e_b +- P e_b of its eigenvectors")
    full = (basis.T @ dense @ basis / 2).reshape(3, 8, 2, 8, 2)
    tables = np.ascontiguousarray(full[:, k, :, k].swapaxes(0, 1))
    diagonal = np.zeros_like(full)
    diagonal[:, k, :, k] = tables.swapaxes(0, 1)
    pair = tables[:, k // 4 * 4]  # block k's pair, block 0 or 4
    same = [(tables == d @ pair @ d).all(axis=(0, 2, 3)) for d in (np.eye(2), np.diag([1, -1]))]
    if not (np.array_equal(diagonal, full) and np.logical_or(*same).all()
            and np.array_equal(basis @ diagonal.reshape(3, 16, 16) @ basis.T / 2, dense)
            and np.array_equal(tables[0], np.broadcast_to(np.diag([1.0, -1.0]), (8, 2, 2)))
            and np.array_equal(np.abs(tables[1]), np.broadcast_to(1.0 - np.eye(2), (8, 2, 2)))):
        raise RuntimeError(f"the radial blocks of {gamma.variant} do not split into eight 2 x 2 "
                           "blocks of P-eigenvectors: two Dirac pairs, each fourfold")
    for mat in (basis, tables):
        mat.setflags(write=False)
    return basis, tables


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


def closed_form(kappa, n_r, coupling, mass=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Columns of :attr:`CoulombParams.series_exponent` and :func:`sommerfeld_energy`,
    bit for bit: the square is C ``pow``, as Python's ``**`` takes it, not ``x * x``,
    which differs from it in the last bit for some floats."""
    q = np.sqrt((kappa - coupling) * (kappa + coupling))
    return q, mass / np.sqrt(1.0 + np.float_power(coupling / (n_r + q), 2))


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

    def _terms(self, r: float, divisor: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """The powers ``q + p`` and the terms ``rho^(q+p) exp(beta r) / divisor`` (r
        positive and finite), each one exponential, with ``log rho = log m + log r``
        where ``m r`` is not normal: 0 where the decay underflows, however large
        ``rho^(q+p)``, and to within roundoff wherever the term itself is normal."""
        if not 0 < r < math.inf:
            raise ValueError("radius must be positive and finite")
        powers, rho = self.exponent + np.arange(self.coefficients.shape[0]), self.unit * r
        log_rho = math.log(rho) if rho >= 2.0**-1022 else math.log(self.unit) + math.log(r)
        return powers, np.exp(powers * log_rho + self.decay * r - math.log(divisor))

    def evaluate(self, r: float) -> np.ndarray:
        """Even-subalgebra coordinates of ``u(r)``."""
        return self._terms(r)[1] @ self.coefficients

    def derivative(self, r: float) -> np.ndarray:
        """Coordinates of ``du/dr = sum_p (q + p + beta r) (term_p / r) C_p``, each
        term over ``r`` taken in the exponent, so it is normal wherever that term of
        ``du/dr`` is, however tiny ``r`` and the term itself are."""
        powers, over_r = self._terms(r, r)
        return ((powers + self.decay * r) * over_r) @ self.coefficients


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


class RadialColumns(NamedTuple):
    """States as columns in input order (:func:`solve_radial_columns`); ``energy`` and
    the series ``decay`` are NaN, and ``error`` a message, not None, where one fails;
    ``diagnostics`` are by name, and state i's coefficients ``coefficients[i, :n_r + 1]``."""

    q: np.ndarray
    closed: np.ndarray
    energy: np.ndarray
    decay: np.ndarray
    error: list
    diagnostics: dict
    coefficients: np.ndarray


def _below_root(decay, shift, coupling) -> np.ndarray:
    """Whether the termination gap ``d (n_r + q) - lambda sqrt(1 - d^2)`` is
    negative at ``decay``: the one sign test of the decay bisection."""
    return decay * shift - coupling * np.sqrt((1.0 - decay) * (1.0 + decay)) < 0.0


def _termination_decays(coupling: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Decay constants ``d = |beta| / m`` at the roots of the termination
    gap ``d (n_r + q) - lambda sqrt(1 - d^2)``, strictly increasing on (0, 1),
    for the columns of the couplings and shifts ``n_r + q``.

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
            return 0.5 * (lo + hi)
        below = _below_root(mid, shift, coupling)
        lo, hi = np.where(active & below, mid, lo), np.where(active & ~below, mid, hi)


def _apply(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``B v`` for the 2 x 2 blocks of a ``(..., 2, 2)`` stack and the ``(..., 2)`` vectors."""
    return blocks[..., 0] * vectors[..., :1] + blocks[..., 1] * vectors[..., 1:]


def _norms(vectors: np.ndarray) -> np.ndarray:
    """2-norms along the last axis, each a sum of squares as for a single vector."""
    return np.sqrt((vectors * vectors).sum(axis=-1))


def _column_scale(blocks: np.ndarray) -> np.ndarray:
    """Largest blade-basis column 2-norm of each matrix of an ``(N, 2, 2, 2)`` stack of
    its Dirac pairs: ``max_b |B e_b| <= |B|_2``, so a threshold from it is never looser
    than one from singular values.  ``e_b = (u+ +- u-) / sqrt 2``, ``u+-`` unit columns
    at one slot of a block of each pair, with orthogonal images as long as the pair's:
    ``|B e_b|^2 = (|B_0 e|^2 + |B_4 e|^2) / 2``, squares summed as they are (O(1))."""
    return np.sqrt(0.5 * (blocks * blocks).sum(axis=2).sum(axis=1)).max(axis=1)


def _step_inverses(s_plus_q: np.ndarray, q: np.ndarray, p: int) -> np.ndarray:
    """``((p+q) I - S)^-1 = ((S + qI) + pI) / (p (p+2q))`` of 2 x 2 blocks, as ``S^2 = q^2 I``."""
    return (s_plus_q + p * np.eye(2)) / (p * (p + 2 * q))


def _indicial_kernel(s_plus_q, kappas, couplings, q) -> np.ndarray:
    """Unit columns ``(N, K, 2)`` of the indicial kernels ``null(S - qI)``, one
    per block of an ``(N, K, 2, 2)`` stack ``S + qI`` (the solver's two pairs).

    ``S^2 = q^2 I`` puts the columns of ``S + qI`` in the kernel.  ``Z`` is
    ``diag(1, -1)`` in each block and ``R H Z`` is +-1 off its diagonal
    (:func:`_dirac_blocks`), so the column at the slot where ``Z = sign
    kappa`` (the first for kappa > 0) holds ``|kappa| + q`` there and
    ``+-lambda`` at the other: its norm is ``hypot(|kappa| + q, lambda)``."""
    slots = (kappas[:, 0, 0, 0] < 0).astype(int)
    norm = np.hypot(np.abs(kappas) + q, couplings)[..., 0]
    return s_plus_q[np.arange(len(slots)), :, :, slots] / norm


def solve_radial_columns(kappa, n_r, coupling, mass=1.0,
                         gamma: GammaChoice | None = None) -> RadialColumns:
    """Solutions, or errors, of states under one phase bivector (e12 by default), as
    :class:`RadialColumns` in input order: ``kappa`` and ``n_r`` are integer columns,
    ``coupling`` and ``mass`` columns or one value each, of states that
    :class:`CoulombParams` accepts (not checked again).  The states are solved at
    mass 1 from their decays, sorted by n_r from the largest down, then scaled, and
    an error is formatted only for a state that fails.  Every matrix is a stack of
    the 2 x 2 blocks of the two Dirac pairs, ``P = +1`` then ``P = -1``, and every
    vector one of two 2-vectors, each fourfold (module docstring)."""
    kappa, n_r = np.asarray(kappa), np.asarray(n_r)
    coupling, mass = (np.broadcast_to(np.asarray(value, dtype=np.float64), kappa.shape)
                      for value in (coupling, mass))
    q, closed = closed_form(kappa, n_r, coupling, mass)
    decays = _termination_decays(coupling, n_r + q)
    order, size = np.argsort(-n_r, kind="stable"), len(kappa)
    kappa, n_r, coupling, decays = (column[order] for column in (kappa, n_r, coupling, decays))
    basis, tables = _dirac_blocks(gamma or GammaChoice.e12())
    (z, rhz, r), basis = tables[:, ::4], basis.reshape(16, 8, 2)[:, ::4]  # blocks 0 and 4
    energies, eye = np.sqrt((1.0 - decays) * (1.0 + decays)), np.eye(2)

    def col(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)[:, None, None, None]

    def square_error(mat: np.ndarray, square: np.ndarray) -> np.ndarray:
        return np.abs(mat @ mat - col(square) * eye).max(axis=(1, 2, 3))

    kappas, couplings, qs = col(kappa), col(coupling), col(q[order])
    s_mat = kappas * z + couplings * rhz
    s_plus_q = s_mat + qs * eye
    s_square_err = square_error(s_mat, kappa * kappa - np.float_power(coupling, 2))
    t_square_err = square_error(r - col(energies) * rhz, 1.0 - np.float_power(energies, 2))

    # (beta I + T) in split form, T = (R - RHZ) + b RHZ with the binding b =
    # 1 - eps = d^2 / (1 + eps): its eigenvalues are +-d up to the rounding of
    # b alone, whereas the rounded eps in T = R - eps RHZ moves them by
    # ~ulp(eps) / d, above the termination bound at weak coupling.  R - RHZ
    # has entries 0, +-1 and +-2: one rounding per entry.
    binding = col(decays * decays / (1.0 + energies))
    termination = (r - rhz) + binding * rhz - col(decays) * eye

    # every state's steps for p = 1..n_r: the states stepping at power p are a
    # prefix, as they are sorted by n_r
    counts = [int((n_r >= p).sum()) for p in range(1, n_r.max(initial=0) + 1)]
    steps = [_step_inverses(s_plus_q[:k], qs[:k], p) for p, k in enumerate(counts, 1)]

    # C_0 must satisfy (S - q I) C_0 = 0 and, propagated by C_p = ((p+q) I - S)^-1
    # (-(beta I + T) C_{p-1}), (beta I + T) C_{n_r} = 0.  At the root the termination
    # map selects part of the indicial kernel (n_r = 0) or vanishes on all of it
    # (n_r >= 1): both are thresholded against the product of the scales of the
    # termination map and of each step on it, a generic chain's.
    termination_norm = _column_scale(termination)
    generic_scale = termination_norm.copy()
    for step in reversed(steps):  # powers n_r .. 1, as each state's product
        generic_scale[:len(step)] *= _column_scale(step @ -termination[:len(step)])
    threshold = SVD_GAP_THRESHOLD * generic_scale

    # chain[p] holds C_p of both pairs' kernel columns for the states stepping
    # at power p, and final each state's C_{n_r}.  The columns lie in different
    # blocks, so the admissible subspace is spanned by those whose residual is
    # below the threshold, four blocks per admissible pair
    kernel = _indicial_kernel(s_plus_q, kappas, couplings, qs)
    chain, final = [kernel], kernel.copy()
    for step, k in zip(steps, counts):
        chain.append(-_apply(step, _apply(termination[:k], chain[-1][:k])))
        final[:k] = chain[-1]
    residuals = _norms(_apply(termination, final))
    admissible = residuals <= threshold[:, None]
    kernel_dims = 4 * admissible.sum(axis=1)
    # the series is the unit kernel column of the P = -1 pair, which carries
    # the kappa system under either phase bivector and which the idempotent
    # keeps; where it is not admissible (e12's kappa > 0 at n_r = 0), of P = +1
    pick, rows = np.where(admissible[:, 1], 1, 0), np.arange(size)
    pair = np.zeros((size, len(chain), 2))
    for p, c in enumerate(chain):
        pair[:len(c), p] = c[rows[:len(c)], pick[:len(c)]]
    # back to the blades: each of U's columns is +-1 on two blades, so each
    # blade of the block is +-c sqrt(1/2) and every other blade is 0
    coefficients = pair @ basis[:, pick].transpose(1, 2, 0) * math.sqrt(0.5)

    # post-check: the termination map annihilates the last coefficient
    # relative to its scale (a non-terminating direction scores O(1)); both
    # norms are of last / max|last|, so tiny squares do not underflow to 0 / 0
    peak = np.abs(coefficients[rows, n_r]).max(axis=1)
    unit = pair[rows, n_r] / np.where(peak > 0.0, peak, 1.0)[:, None]
    scale = termination_norm * np.where(peak > 0.0, _norms(unit), 1.0)
    relative = _norms(_apply(termination[rows, pick], unit)) / scale
    mass, energy = mass[order], mass[order] * energies
    diagnostics = {
        "termination_relative": relative,
        "termination_kernel_dim": kernel_dims,
        "termination_vacuity": residuals.max(axis=1) / generic_scale,
        "closed_form_delta": np.abs(energy - closed[order]),
        "indicial_residual": np.abs(_apply(s_mat[rows, pick], pair[:, 0])
                                    - qs[:, 0, 0] * pair[:, 0]).max(axis=1),
        "s_square_error": s_square_err,
        "t_square_error": t_square_err,
    }
    failures = (~(s_square_err <= SQUARE_IDENTITY_BOUND * (kappa * kappa)), decays == 0.0,
                kernel_dims == 0, peak == 0.0, ~(relative <= SVD_GAP_THRESHOLD))
    failed, errors = np.logical_or.reduce(failures), [None] * size
    for i in np.flatnonzero(failed).tolist():  # the first failure of each state
        state = f"kappa={kappa[i]}, n_r={n_r[i]}"
        errors[order[i]] = next(text for text, bad in zip((
            f"S^2 = q^2 I fails: error {s_square_err[i]:.3e} exceeds "
            f"{SQUARE_IDENTITY_BOUND:.0e} kappa^2 ({state})",
            f"decay constant rounds to 0 ({state}, coupling={coupling[i]:.3e})",
            "no terminating series at the root energy: smallest termination "
            f"residual {residuals[i].min():.3e} exceeds {threshold[i]:.3e} ({state})",
            "series underflows: every component of its last coefficient is 0 "
            f"({state}, coupling={coupling[i]:.3e})",
            "series does not terminate: relative termination residual "
            f"{relative[i]:.3e} exceeds {SVD_GAP_THRESHOLD:.1e}"), failures) if bad[i])
    back = np.argsort(order)
    energy, decay = (np.where(failed, math.nan, v)[back] for v in (energy, -mass * decays))
    return RadialColumns(q, closed, energy, decay, errors,
                         {name: v[back] for name, v in diagnostics.items()}, coefficients[back])


def solve_radials(params_seq: Iterable[CoulombParams]) -> list[RadialSolution | RuntimeError]:
    """:func:`solve_radial` for any iterable of states: per state its solution,
    or the ``RuntimeError`` it raises, whatever else the batch holds; an
    element that is not a :class:`CoulombParams` raises ``TypeError``.  A
    state of mass m is that of mass 1 scaled: m times the energy and the
    decay, and the same coefficients in ``rho = m r``.  One bisection roots
    every state, each from a bracket of about 256 ulps around its
    closed-form decay, and ends on the bits that one from (0, 1) gives (see
    :func:`_termination_decays`); per phase bivector, one propagation of
    every state's indicial kernel, one 2-vector in each of the two Dirac
    pairs, each fourfold (module docstring), gives as pair norms the
    admissible columns, and the series is the chain of the ``P = -1`` pair
    where it is admissible (of the ``P = +1`` pair where it is not).  The
    objects are built from the columns of :func:`solve_radial_columns`, one
    call per phase bivector.
    """
    params_seq, groups = list(params_seq), {}
    for i, params in enumerate(params_seq):
        if not isinstance(params, CoulombParams):
            raise TypeError(f"state {i} is a {type(params).__name__}, not a CoulombParams")
        groups.setdefault(params.gamma, []).append(i)
    results: list = [None] * len(params_seq)
    for gamma, members in groups.items():
        group = [params_seq[i] for i in members]
        table = solve_radial_columns(*zip(*[(p.kappa, p.n_r, p.coupling, p.mass) for p in group]),
                                     gamma)
        diagnostics = zip(*(column.tolist() for column in table.diagnostics.values()))
        for i, params, error, q, energy, decay, coefficients, values in zip(
                members, group, table.error, table.q.tolist(), table.energy.tolist(),
                table.decay.tolist(), table.coefficients, diagnostics):
            results[i] = RuntimeError(error) if error else RadialSolution(
                params, energy, RadialSeries(q, decay, coefficients[:params.n_r + 1], params.mass),
                dict(zip(table.diagnostics, values)))
    return results


def solve_radial(params: CoulombParams) -> RadialSolution:
    """Root-find the termination energy and build the terminating series.

    ``diagnostics`` are those of the mass-1 solve, save the energy's
    ``closed_form_delta``, and hold the relative residual of the termination
    identity on the last coefficient, the series' whole check of the system
    (see the module docstring).  Its ``termination_vacuity`` is the 2-norm of
    the termination map on the indicial kernel over the threshold scale, a
    lower bound on the product of 2-norms, so it can exceed 1.  Raises when
    ``S^2 = q^2 I`` fails, when no block's kernel column terminates (n_r = 0 with
    kappa > 0 when the phase bivector is e0 times the pseudoscalar, the
    Dirac-Coulomb selection rule), when its last coefficient underflows to
    zero, or when the decay constant rounds to 0 (coupling 5e-324).  This is
    :func:`solve_radials` on a batch of one: two 2 x 2 Dirac pairs, each
    fourfold, and no LAPACK call, whatever ``n_r`` is.
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
