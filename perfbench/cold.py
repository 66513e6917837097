"""One cold start: a fresh interpreter imports fermion5d, then (unless
``--import-only``) sends the workload's first request.

Usage: ``python3 perfbench/cold.py <workload> <seed> [--import-only]``.
Prints one JSON object with ``time.monotonic()`` (comparable with the
parent's clock on Linux) at the end of ``import numpy`` and at the end of
``import fermion5d``; the speed reference timed in this process after the
import and again after the request; and, for a request, ``first_req_s``,
``ok`` and the output text.  The references are timed here, not in the
parent, because the child may run on another core whose speed differs.
"""
import time  # noqa: I001 - nothing but the clock may load before numpy
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy  # noqa: E402,F401 - fermion5d imports it first anyway

numpy_imported = time.monotonic()

import fermion5d  # noqa: E402,F401

imported = time.monotonic()

import json  # noqa: E402

if __name__ == "__main__":
    import speed

    result = {
        "numpy_imported": numpy_imported,
        "imported": imported,
        "reference_s": [speed.reference_s()],
    }
    if "--import-only" not in sys.argv:
        from workloads import WORKLOADS, send

        elapsed, verdict = send(WORKLOADS[sys.argv[1]].request(int(sys.argv[2]), 0))
        result["reference_s"].append(speed.reference_s())
        result.update(
            first_req_s=elapsed, ok=verdict.ok, output=verdict.output, message=verdict.message
        )
    print(json.dumps(result))
