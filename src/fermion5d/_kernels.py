"""The geometric-product kernel: one numpy gather over precomputed tables.

The geometric product of dense multivectors is a signed bilinear contraction:
``out[i ^ j] += sign[i, j] * a[i] * b[j]`` where ``sign`` is the precomputed
blade-product sign table of the algebra (entries -1/0/+1) and ``i ^ j`` is the
index set of the resulting blade.  Substituting ``j = i ^ k`` turns the
scatter into a gather over two tables derived once per sign table,

    X[i, k] = i ^ k        S[i, k] = sign[i, i ^ k]

so that ``out[k] = sum_i a[i] * S[i, k] * b[X[i, k]]``.  Everything downstream
(residual sweeps, operator matrices, demo grids) funnels through ``gp``.

``gp`` also takes leading batch axes: operands of shape ``(..., n)`` give the
products row by row, each row bit-for-bit equal to the product of that row
alone, so a batch of random samples costs one gather instead of one call per
sample.  The gather is blade-major, the batch axes trailing, and signed: as
``S`` only holds 0, +1 and -1, ``gp`` stacks the copies ``0 * b``, ``1 * b``
and ``-1 * b`` once per call and takes ``S * b[X]`` from the stack at
``X + n * (S % 3)``: the products a sign pass over the ``(n, n, ...)``
terms would make, bit for bit (``0 * inf = NaN`` included), without that
pass.  On a 2-core x86 box a ``(64, 32)`` product takes 103-120 us; with
the sign pass it took 156-191 us.

``gp`` is bit-for-bit equal to the scatter ``gp_reference`` on finite inputs:
both start from +0.0 and add the terms of each output slot in ascending
``i``.  The gather also adds the zero rows of ``a``, which only matters when
``b`` holds an infinity or NaN: ``0 * inf`` is NaN, so ``gp`` can give NaN
where the reference is finite, but never a finite value where the reference
is not.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

#: id(sign) -> (sign, X, S, X + n * (S % 3)).  Keeping ``sign`` in the entry
#: keeps its id from being reused, so identity is a safe key for the cached,
#: read-only tables of ``algebra.tables``.
_GATHER: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
#: Row ``c`` of the signed stack is ``b * s`` for the sign ``s`` with ``s % 3 == c``.
_SIGNS = np.array((0.0, 1.0, -1.0))


def _gather_tables(sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index table ``X``, float sign table ``S`` and signed index for ``sign``."""
    entry = _GATHER.get(id(sign))
    if entry is None:
        idx = np.arange(sign.shape[0])
        xor = idx[:, None] ^ idx[None, :]
        signs = sign[idx[:, None], xor].astype(np.float64)
        signed = xor + sign.shape[0] * (signs % 3).astype(xor.dtype)
        for table in (xor, signs, signed):
            table.setflags(write=False)
        entry = _GATHER[id(sign)] = (sign, xor, signs, signed)
    return entry[1:]


def gp(sign: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient vectors ``a`` and ``b`` under the sign table.

    ``a`` and ``b`` are ``(n,)`` vectors or ``(..., n)`` arrays of the same
    shape, ``n`` the table's size (``ValueError`` otherwise); the batch form
    multiplies them row by row.  Both forms gather ``S * b[X]`` from the
    signed stack (a single blade on the left reads one row of ``X`` and
    ``S``), multiply by ``a`` and add each slot's terms in ascending ``i``
    from +0.0, so a row of a batch equals the product of that row alone.
    """
    if a.shape != b.shape:
        raise ValueError(f"operand shapes differ: {a.shape} and {b.shape}")
    if a.shape[-1:] != sign.shape[:1]:
        raise ValueError(f"operand shape {a.shape} does not fit a table of {sign.shape[0]} blades")
    xor, signs, signed = _gather_tables(sign)
    if a.ndim == 1:
        nonzero = a.nonzero()[0]
        if nonzero.size == 1:
            # a single blade on the left: one gathered row, no reduction
            i = nonzero[0]
            row = b[xor[i]]
            row *= signs[i]
            row *= a[i]
            row += 0.0
            return row
    # blade-major, batch axes trailing: (3n, ...) rows of 0, +1 and -1 times b
    stack = np.multiply.outer(_SIGNS, b.T)
    terms = stack.reshape((3 * len(sign),) + stack.shape[2:]).take(signed, axis=0)
    terms *= np.ascontiguousarray(a.T)[:, None]
    return np.ascontiguousarray(terms.sum(0, initial=0.0).T)


def blade_gather(sign: np.ndarray, mask: int, left: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index and float sign of the product by the basis blade ``mask``.

    ``(e_mask * b)[k] = S[mask, k] * b[X[mask, k]]`` on the left and
    ``(b * e_mask)[k] = sign[k ^ mask, mask] * b[k ^ mask]`` on the right: a
    signed permutation, read off the tables instead of multiplied out.
    """
    xor, signs, _ = _gather_tables(sign)
    index = xor[mask]
    if left:
        return index, signs[mask]
    return index, sign[index, mask].astype(np.float64)


def gp_reference(sign: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The plain scatter that ``gp`` must reproduce, kept as its oracle.

    ``out[i ^ j] += a[i] * (sign[i, j] * b[j])`` over the nonzero ``a[i]``
    as one ``np.add.at``, which is unbuffered and applies the terms in the
    order given: each slot adds its terms in ascending ``i`` from +0.0, the
    order ``gp`` adds them in.  It reads ``sign``, not ``X`` or ``S``.
    """
    out = np.zeros_like(b)
    rows = np.nonzero(a)[0]
    idx = np.arange(sign.shape[0])
    np.add.at(out, (rows[:, None] ^ idx).ravel(), (a[rows, None] * (sign[rows] * b)).ravel())
    return out
