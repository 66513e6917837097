"""Request streams and correctness gates for the benchmark workloads.

Every request is built from ``(seed, index)`` alone, so the same seed gives
the same inputs in any process.  A request has two parts:

* ``call()`` -- the timed part.  It only calls the program's public entry
  points, always through the module attribute (``cli.main``, ``wave.x``), so
  the tracer's wrappers see every call.
* ``check(raw)`` -- the untimed correctness gate on what ``call`` returned.

Workloads (all closed loop, one client):

``verify``   ``fermion5d verify --seed s --format json`` with a new seed per
             request: dense random products plus a few points per plane wave.
``spectrum`` ``fermion5d spectrum --z Z --max-n 8 --format json``: 64 radial
             solves per request.  Request 0 is hydrogen (Z = 1, the CLI
             default) so the cold first request costs the same for every
             seed; later requests walk a seeded permutation of Z = 1..92.
``sweep``    one generated field checked at a few hundred points through the
             library API, from a fixed five-slot cycle (see ``SWEEP_CYCLE``).
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fermion5d import beyond, cli, spinor, wave

#: Pinned tolerances of the CLI: plane-wave checks and the second-time demos.
PLANE_WAVE_TOLERANCE = 1e-10
DEMO_TOLERANCE = 1e-9

SPECTRUM_MAX_N = 8
#: ``spectrum --max-n 9`` and above crash today (no letter for l = 8); the
#: probe re-runs it once per benchmark run so the limit stays visible.
PROBE_ARGV = ("spectrum", "--max-n", "9", "--format", "json")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    worst: float | None  # diagnostic, see ``Workload.worst_of``
    output: str | None   # text the request produced, for the output digest
    message: str = ""


def send(request, scope=None) -> tuple[float, Verdict]:
    """Send one request: time ``call()`` (inside ``scope``, if given), then
    gate what it returned.  Any exception, usage errors included, fails the
    request and the loop goes on."""
    start = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            raw = request.call()
            elapsed = time.perf_counter() - start
        return elapsed, request.check(raw)
    except (Exception, SystemExit) as exc:
        message = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, Verdict(False, None, None, message)


def run_cli(argv) -> tuple[int, str]:
    """Run ``fermion5d <argv>`` in-process and capture what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _request_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# CLI workloads: verify and spectrum
# ---------------------------------------------------------------------------


class CliRequest:
    def __init__(self, argv: list[str], units: int):
        self.argv = argv
        self.units = units

    def call(self):
        return run_cli(self.argv)

    def check(self, raw) -> Verdict:
        code, text = raw
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(False, None, text, f"unparseable JSON: {exc}")
        failing = [c["name"] for c in checks if c["status"] == "fail"]
        ratios = [
            c["measured"] / c["tolerance"]
            for c in checks
            if c["status"] != "skipped" and c["tolerance"]
        ]
        worst = max(ratios, default=None)
        if code != 0 or failing:
            return Verdict(False, worst, text, f"exit {code}, failing checks {failing}")
        return Verdict(True, worst, text)


def verify_request(seed: int, index: int) -> CliRequest:
    run_seed = int(_request_rng(seed, index).integers(0, 2**31))
    return CliRequest(["verify", "--seed", str(run_seed), "--format", "json"], units=1)


def spectrum_request(seed: int, index: int) -> CliRequest:
    if index == 0:
        z = 1
    else:
        z = int(np.random.default_rng(seed).permutation(np.arange(1, 93))[(index - 1) % 92])
    argv = ["spectrum", "--z", str(z), "--max-n", str(SPECTRUM_MAX_N), "--format", "json"]
    return CliRequest(argv, units=SPECTRUM_MAX_N**2)


# ---------------------------------------------------------------------------
# sweep: one field, many points, through the library API
# ---------------------------------------------------------------------------


class PlaneWaveRequest:
    """A plane wave checked point by point.

    Flat waves (``k4 = 0``) run ``dirac5_residual``, both idempotent halves
    through ``hestenes_dirac_residual`` and ``cylinder_check``; waves with
    ``k4 != 0`` run ``dirac5_residual`` only.
    """

    def __init__(self, rng: np.random.Generator, k4: float, gamma, n_points: int):
        self.k_spatial = rng.uniform(-1.0, 1.0, size=3)
        self.mass = float(rng.uniform(0.5, 1.5))
        self.k4 = k4
        self.gamma = gamma
        self.points = rng.uniform(-0.5, 0.5, size=(n_points, 5))
        self.units = n_points

    def call(self):
        field = wave.build_plane_wave(self.k_spatial, self.k4, self.mass, self.gamma).field()
        worst = max(
            wave.dirac5_residual(field, self.mass, x).inf_norm() for x in self.points
        )
        if self.k4 != 0.0:
            return worst, None
        for half in wave.sector_fields(field):
            worst = max(
                worst,
                max(
                    wave.hestenes_dirac_residual(half, self.mass, x).inf_norm()
                    for x in self.points
                ),
            )
        return worst, spinor.cylinder_check(field, self.points, PLANE_WAVE_TOLERANCE)

    def check(self, raw) -> Verdict:
        worst, flat = raw
        if worst > PLANE_WAVE_TOLERANCE:
            return Verdict(False, worst, None, f"plane-wave residual {worst:.3e}")
        if flat is False:
            return Verdict(False, worst, None, "cylinder_check false on a flat wave")
        return Verdict(True, worst, None)


class SourcePairRequest:
    """The oscillating source pair on a seeded subset of ``demo_grid``.

    ``source_current`` raises when the sourced equation misses the demo
    tolerance; the worst residual is re-evaluated on a few points in
    ``check`` as a diagnostic.
    """

    DIAGNOSTIC_POINTS = 8

    def __init__(self, rng: np.random.Generator, n_points: int):
        grid = beyond.demo_grid()
        self.points = grid[rng.choice(len(grid), size=n_points, replace=False)]
        self.units = n_points

    def call(self):
        xi_plus, xi_minus = beyond.oscillating_source_pair()
        current = beyond.source_current(xi_minus, xi_plus, self.points, DEMO_TOLERANCE)
        ratio = beyond.minus_constancy_ratio(xi_minus, self.points)
        return xi_plus, current, ratio

    def check(self, raw) -> Verdict:
        xi_plus, current, ratio = raw
        worst = max(
            beyond.sourced_massless_residual(xi_plus, current, x).inf_norm()
            for x in self.points[: self.DIAGNOSTIC_POINTS]
        )
        if ratio > beyond.MINUS_CONSTANCY_BOUND:
            return Verdict(False, worst, None, f"minus-constancy ratio {ratio:.3e}")
        return Verdict(worst <= DEMO_TOLERANCE, worst, None)


class ScalarDemoRequest:
    """The induced scalar potential demo: both forms of the reduced equation."""

    def __init__(self, rng: np.random.Generator, n_points: int):
        self.mass = float(rng.uniform(0.5, 1.5))
        self.potential = float(rng.uniform(0.05, 0.3))
        self.k_spatial = tuple(rng.uniform(-0.3, 0.3, size=3))
        self.points = rng.uniform(-0.5, 0.5, size=(n_points, 5))
        self.units = n_points

    def call(self):
        demo = beyond.ScalarPotentialDemo(self.mass, self.potential, self.k_spatial)
        worst = 0.0
        for x in self.points:
            second, potential = beyond.scalar_potential_residual(demo, x)
            worst = max(worst, second.inf_norm(), potential.inf_norm())
        return worst

    def check(self, raw) -> Verdict:
        if raw > DEMO_TOLERANCE:
            return Verdict(False, raw, None, f"scalar-demo residual {raw:.3e}")
        return Verdict(True, raw, None)


def _flat_wave(rng):
    gamma = wave.GammaChoice.e12() if rng.random() < 0.5 else wave.GammaChoice.e0E()
    return PlaneWaveRequest(rng, 0.0, gamma, n_points=128)


def _moving_wave(gamma_factory):
    def make(rng):
        k4 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.45))
        return PlaneWaveRequest(rng, k4, gamma_factory(), n_points=192)

    return make


#: Five slots, so that the median and the 90th percentile of request time
#: each fall inside one slot's cluster rather than on the boundary between
#: two.  Waves with k4 != 0 take two slots, one per phase bivector.  The point
#: counts keep each kind's cost about twice the next cheaper one's (today
#: 0.05, 0.1, 0.2 and 0.4 s on a 2-core box), so the clusters do not
#: overlap; the flat wave runs three residual sweeps per point.
SWEEP_CYCLE: tuple[Callable[[np.random.Generator], object], ...] = (
    _flat_wave,
    _moving_wave(wave.GammaChoice.e12),
    lambda rng: SourcePairRequest(rng, n_points=448),
    lambda rng: ScalarDemoRequest(rng, n_points=448),
    _moving_wave(wave.GammaChoice.e0E),
)


def sweep_request(seed: int, index: int):
    return SWEEP_CYCLE[index % len(SWEEP_CYCLE)](_request_rng(seed, index))


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str             # what one unit of ``work_per_s`` is
    tail_percentile: int  # highest percentile with >= 10 samples beyond it at 30 s
    digest: bool          # hash the JSON outputs (CLI workloads only)
    worst_of: str         # what ``Verdict.worst`` measures
    request: Callable[[int, int], object]


_CHECK_RATIO = "measured/tolerance, worst check"
_RESIDUAL = "residual sup-norm, worst point"

WORKLOADS = {
    "verify": Workload("verify", "suites", 60, True, _CHECK_RATIO, verify_request),
    "spectrum": Workload("spectrum", "radial states", 80, True, _CHECK_RATIO, spectrum_request),
    "sweep": Workload("sweep", "sample points", 90, False, _RESIDUAL, sweep_request),
}
