"""Benchmark of fermion5d: closed-loop workloads, end-to-end metrics and a
traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {verify,spectrum,sweep} \\
        --seed N --seconds S --trace {0,1}

One client sends requests one at a time in this process (closed loop, no
threads), with inputs generated from ``--seed``, and gates every output.
Request times are scaled to a reference machine speed measured next to each
request (see ``speed.py``); the raw wall times are in the report line.

``--trace 0`` reports the end-to-end metrics: a ``--seconds`` timed loop
after one warm-up request, with fresh interpreters launched between requests,
spread evenly over the loop, for the set-up and first-request times.
``--trace 1`` reports the per-layer metrics: direct per-call timings, then
half of ``--seconds`` untraced and half traced (see ``tracer.py``), whose
ratio is the tracing overhead.  Both modes send the known-defect probe once,
outside the timed loop.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting with
``report``, holds the diagnostics: machine facts, output digest, probe
outcome, sample counts and worst residuals.  Metric names and units come
from ``BENCHMARK.json`` at the repository root, and the run exits non-zero
without a result if the two disagree or the package is not there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COLD_STARTS = 8        # fresh interpreters that send request 0, as many only import
DIGEST_REQUESTS = 4    # requests 0..3 feed the output digest
COUNT_REQUESTS = 2     # requests whose call counts must repeat exactly
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


@dataclass
class Loop:
    """What a closed loop sent and what came back."""

    latencies: list[float] = field(default_factory=list)  # raw wall time, s
    factors: list[float] = field(default_factory=list)    # speed factor per request
    units: int = 0
    verdicts: list = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors)]


def closed_loop(spec, seed: int, seconds: float, first: int, tracer=None, between=None) -> Loop:
    """Send requests ``first, first+1, ...`` for ``seconds``, timing the speed
    reference between consecutive requests.

    ``between(progress)``, if given, runs after each request with the share
    of ``seconds`` used so far; the time it takes is not counted, and it
    returns whether it did anything (then the reference is timed again).
    """
    from workloads import send

    loop = Loop()
    index = first
    start = time.perf_counter()
    paused = 0.0
    before = speed.reference_s()
    while time.perf_counter() - start - paused < seconds:
        request = spec.request(seed, index)
        scope = tracer.request(index) if tracer else None
        elapsed, verdict = send(request, scope)
        after = speed.reference_s()
        loop.latencies.append(elapsed)
        loop.factors.append(speed.factor(before, after))
        loop.units += request.units
        loop.verdicts.append(verdict)
        before = after
        index += 1
        if between:
            pause = time.perf_counter()
            if between((time.perf_counter() - start - paused) / seconds):
                before = speed.reference_s()
            paused += time.perf_counter() - pause
    return loop


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class ColdStarts:
    """Fresh interpreters, launched one at a time and spread evenly over the
    timed loop so that they meet the same machine states as the requests.

    Every launch gives a set-up time; every other one also sends request 0
    and gives a first-request time.  Both are scaled (see ``speed.py``).
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.plan = [True, False] * COLD_STARTS
        self.setup: list[float] = []
        self.first: list[float] = []
        self.raw_setup: list[float] = []
        self.raw_first: list[float] = []
        self.results: list[dict] = []

    def due(self, progress: float) -> bool:
        """Launch every start scheduled at or before ``progress`` (0..1)."""
        launched = False
        while len(self.setup) < len(self.plan) and progress >= len(self.setup) / len(self.plan):
            self._launch(self.plan[len(self.setup)])
            launched = True
        return launched

    def _launch(self, with_request: bool) -> None:
        cmd = [sys.executable, str(HERE / "cold.py"), self.workload, str(self.seed)]
        if not with_request:
            cmd.append("--import-only")
        launched = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.raw_setup.append(result["imported"] - launched)
        startup = result["numpy_imported"] - launched
        self.setup.append(self.raw_setup[-1] * speed.STARTUP_NOMINAL_S / startup)
        if with_request:
            self.raw_first.append(result["first_req_s"])
            self.first.append(result["first_req_s"] * speed.factor(*result["reference_s"]))
            self.results.append(result)


def run_probe() -> dict:
    """The known defect: ``spectrum --max-n 9`` has no letter for l = 8."""
    from workloads import PROBE_ARGV, run_cli

    outcome = {"argv": " ".join(PROBE_ARGV)}
    try:
        code, text = run_cli(PROBE_ARGV)
    except (Exception, SystemExit) as exc:
        return {**outcome, "outcome": "exception", "detail": f"{type(exc).__name__}: {exc}"}
    return {**outcome, "outcome": f"exit {code}", "detail": f"{len(text)} bytes of output"}


def machine_facts() -> dict:
    import numpy

    import fermion5d

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "kernel_backend": fermion5d.kernel_backend(),
        "commit": _commit(),
        "dense_product_computed": {
            "multiply_adds": 32 * 32,
            "bytes_moved": {"inputs": 2 * 32 * 8, "output": 32 * 8, "sign_table": 32 * 32},
            "multiply_adds_per_byte": round(1024 / (512 + 256 + 1024), 4),
        },
    }


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(spec, seed: int, seconds: int, report: dict) -> tuple[dict, list, list]:
    from workloads import Verdict, send

    cold = ColdStarts(spec.name, seed)
    _, warm = send(spec.request(seed, 0))
    loop = closed_loop(spec, seed, seconds, first=1, between=cold.due)
    cold.due(1.0)
    scaled = loop.scaled

    verdicts = [warm, *loop.verdicts]
    problems = []
    if spec.digest:
        outputs = [v.output or "" for v in verdicts[:DIGEST_REQUESTS]]
        report["digest_sha256"] = hashlib.sha256("".join(outputs).encode()).hexdigest()
        report["digest_requests"] = len(outputs)
        if any(c["output"] != warm.output for c in cold.results):
            problems.append("request 0 printed different output in a fresh interpreter")
    tail = percentile(scaled, spec.tail_percentile)
    report["samples"] = {
        "setup_s": len(cold.setup),
        "first_req_s": len(cold.first),
        "requests": len(scaled),
        "tail_percentile": spec.tail_percentile,
        "beyond_tail": sum(1 for t in scaled if t > tail),
    }
    report["work_unit"] = f"{spec.unit}/s"
    report["speed_factor_median"] = statistics.median(loop.factors)
    report["raw_wall"] = {
        "setup_s": statistics.median(cold.raw_setup),
        "first_req_s": statistics.median(cold.raw_first),
        "req_s_p50": statistics.median(loop.latencies),
        "req_s_tail": percentile(loop.latencies, spec.tail_percentile),
        "work_per_s": loop.units / sum(loop.latencies),
    }
    metrics = {
        "setup_s": statistics.median(cold.setup),
        "first_req_s": statistics.median(cold.first),
        "req_s_p50": statistics.median(scaled),
        "req_s_tail": tail,
        "work_per_s": loop.units / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    cold_verdicts = [Verdict(c["ok"], None, c["output"], c["message"]) for c in cold.results]
    return metrics, [*cold_verdicts, *verdicts], problems


def per_layer(spec, seed: int, seconds: int, report: dict) -> tuple[dict, list, list]:
    import layers
    from tracer import LAYER_MODULES, Tracer
    from workloads import send

    _, warm = send(spec.request(seed, 0))
    metrics = layers.measure(seed)
    untraced = closed_loop(spec, seed, seconds / 2, first=1)

    tracer = Tracer()
    tracer.install()
    verdicts = [warm, *untraced.verdicts]
    try:
        counts = []
        for _ in range(2):  # the same requests twice: the counts must repeat
            for index in range(1, 1 + COUNT_REQUESTS):
                verdicts.append(send(spec.request(seed, index), tracer.request(index))[1])
            counts.append(tracer.counted())
            tracer.reset()
        traced = closed_loop(spec, seed, seconds / 2, first=1, tracer=tracer)
    finally:
        tracer.uninstall()

    problems = []
    if counts[0] != counts[1]:
        problems.append(f"call counts differ between identical traced passes: {counts}")
    self_s = tracer.layer_self(traced.factors)
    total = sum(self_s.values())
    metrics.update(counts[0])
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYER_MODULES})
    metrics["trace.overhead"] = statistics.median(traced.scaled) / statistics.median(
        untraced.scaled
    )
    metrics["trace.coverage"] = (total - self_s["harness"]) / total
    report["layer_share"] = {layer: round(t / total, 4) for layer, t in self_s.items()}
    report["samples"] = {
        "untraced_requests": len(untraced.latencies),
        "traced_requests": len(traced.latencies),
        "count_requests": COUNT_REQUESTS,
    }
    return metrics, [*verdicts, *traced.verdicts], problems


def check_metrics(metrics: dict, declared: list[dict]) -> dict:
    """Every declared metric, and only those, with the declared unit."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(
            f"metric names differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))},"
            f" undeclared {sorted(set(metrics) - set(units))}"
        )
    for name, unit in units.items():
        expected = "us" if name.endswith("_us") else None
        if name.endswith("_s") and not name.endswith("_per_s"):
            expected = "s"
        if expected and unit != expected:
            raise BenchError(f"metric {name} is declared in {unit}, expected {expected}")
    return {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "spectrum", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fermion5d" / "__init__.py").is_file():
        print(f"error: no fermion5d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    report = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if args.trace:
            metrics, verdicts, problems = per_layer(spec, args.seed, args.seconds, report)
            out = check_metrics(metrics, declared["per_layer"])
        else:
            metrics, verdicts, problems = end_to_end(spec, args.seed, args.seconds, report)
            out = check_metrics(metrics, declared["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["probe"] = run_probe()
    report["machine"] = machine_facts()

    failed = [v for v in verdicts if not v.ok]
    worst = [v.worst for v in verdicts if v.worst is not None]
    report["worst"] = {"value": max(worst, default=None), "of": spec.worst_of}
    report["error_rate"] = len(failed) / len(verdicts)
    report["failures"] = [v.message for v in failed[:5]]
    report["problems"] = problems

    for name, metric in out.items():
        print(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'error_rate':<36} {report['error_rate']:>14.6g} failed/attempted")
    print(f"{'probe ' + report['probe']['argv']:<36} {report['probe']['outcome']}"
          f" ({report['probe']['detail']}; known failure until fixed)")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
