"""Run one op in a fresh interpreter, as a user's ``rmnml`` command runs.

Usage: ``python3 child.py '<json spec>'`` with ``PYTHONPATH`` naming the
checkout's ``src``.  The spec holds ``argvs`` (the op's CLI argument
lists), ``key`` and ``trace``.  Prints one JSON line:
the import time of ``rmnml.cli``, the op time with import excluded (also
at the reference host speed, untraced), the peak resident memory, the
calls' outputs and, when traced, the per-op totals and spans.
"""

import sys
import time

# nothing but the interpreter's own start-up runs before this import, so
# its time is what every CLI invocation pays
_start = time.perf_counter()
import rmnml.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import calibration_work, invoke, scaled_seconds  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"import_s": IMPORT_S, "module": rmnml.cli.__file__}
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        (op_s, calls), totals = tracer.run_op(
            spec["key"], lambda: invoke(rmnml.cli.main, spec["argvs"]))
        tracer.uninstall()
        result.update(totals=totals, spans=tracer.spans, missing=tracer.missing)
    else:
        calibration_work()  # its first call pays one-time costs
        op_s, calls = invoke(rmnml.cli.main, spec["argvs"], calibrate=True)
        result["op_scaled_s"] = scaled_seconds(calls)
    result.update(op_s=op_s, calls=calls)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
