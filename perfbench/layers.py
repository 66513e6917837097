"""Direct per-call timings of each layer's public functions (the ``*_us``
metrics), at representative inputs and with tracing off.

Each timing is the median over batches of the mean time per call, with the
batch sized to about ``BATCH_SECONDS``, scaled to the reference speed (see
``speed.py``).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from fermion5d import _kernels, algebra, beyond, coulomb, report, spinor, wave
from fermion5d.algebra import CL32, e
from fermion5d.constants import FINE_STRUCTURE

import speed

BATCH_SECONDS = 0.02
BATCHES = 5


def per_call_us(fn, calls_per_invocation: int = 1) -> float:
    before = speed.reference_s()
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-9)
    inner = max(1, int(BATCH_SECONDS / once))
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    scale = speed.factor(before, speed.reference_s())
    return statistics.median(samples) * scale * 1e6 / calls_per_invocation


def measure(seed: int) -> dict[str, float]:
    """All ``*_us`` metrics, in microseconds per call (or per point/state)."""
    rng = np.random.default_rng(seed)
    sign = algebra.tables(CL32).sign
    dense_a = rng.uniform(-1.0, 1.0, size=CL32.n_blades)
    dense_b = rng.uniform(-1.0, 1.0, size=CL32.n_blades)
    x = algebra.random_multivector(rng, CL32)
    y = algebra.random_multivector(rng, CL32)
    even = algebra.random_multivector(rng, CL32, even=True)
    vector = e(CL32, 1)

    # the plane-wave constraint shape: vector * even * bivector
    k_vector = e(CL32, 0) * 1.3 + e(CL32, 1) * 0.4 - e(CL32, 3) * 0.2
    e12 = e(CL32, 1, 2)
    masks = algebra.even_masks(CL32)

    mass = 1.1
    gamma = wave.GammaChoice.e12()
    k_spatial = rng.uniform(-1.0, 1.0, size=3)
    field = wave.build_plane_wave(k_spatial, 0.0, mass, gamma).field()
    plus_half, _ = wave.sector_fields(field)
    point = rng.uniform(-0.5, 0.5, size=5)

    xi_plus, xi_minus = beyond.oscillating_source_pair()
    current = beyond.SourceCurrent(xi_minus)
    grid = beyond.demo_grid()
    grid_points = grid[rng.choice(len(grid), size=16, replace=False)]

    coupling = 20 * FINE_STRUCTURE
    states = [
        coulomb.CoulombParams(mass=1.0, coupling=coupling, kappa=kappa, n_r=n_r)
        for kappa, n_r in ((-1, 0), (-1, 2), (2, 1), (-3, 2))
    ]

    doc = report.ReportDocument(
        command="verify",
        inputs={"seed": seed, "trials": 1000},
        checks=[report.make_check(f"check-{i}", "bench", 1e-13 * i, 1e-9) for i in range(16)],
    )

    return {
        "kernels.gp_dense_us": per_call_us(lambda: _kernels.gp(sign, dense_a, dense_b)),
        "kernels.gp_sparse_us": per_call_us(lambda: _kernels.gp(sign, vector.coeffs, even.coeffs)),
        "algebra.mul_us": per_call_us(lambda: x * y),
        "algebra.add_us": per_call_us(lambda: x + y),
        "algebra.linear_map_matrix_us": per_call_us(
            lambda: algebra.linear_map_matrix(lambda mv: k_vector * mv * e12, CL32, masks)
        ),
        "fields.value_us": per_call_us(lambda: field.value(point)),
        "fields.partial_us": per_call_us(lambda: field.partial(1, point)),
        "spinor.idempotent_split_us": per_call_us(lambda: spinor.idempotent_split(even)),
        "wave.dirac5_residual_us": per_call_us(lambda: wave.dirac5_residual(field, mass, point)),
        "wave.hestenes_residual_us": per_call_us(
            lambda: wave.hestenes_dirac_residual(plus_half, mass, point)
        ),
        "wave.build_plane_wave_us": per_call_us(
            lambda: wave.build_plane_wave(k_spatial, 0.0, mass, gamma)
        ),
        "beyond.current_value_us": per_call_us(lambda: current.value(point)),
        "beyond.source_current_points_us": per_call_us(
            lambda: beyond.source_current(xi_minus, xi_plus, grid_points), len(grid_points)
        ),
        "coulomb.operator_matrix_us": per_call_us(coulomb.e0_sandwich_matrix),
        "coulomb.solve_radial_us": per_call_us(
            lambda: [coulomb.solve_radial(p) for p in states], len(states)
        ),
        "report.to_json_us": per_call_us(doc.to_json),
    }
