"""Fresh-process measurement of set-up time and peak memory.

Run as a script by ``run.py``, outside its timed loop.  numpy is imported
before the clock starts; the clock then covers ``import bmlandau,
bmlandau.cli`` and the workload's first request, cold.  With ``--full``
the worker also sends the rest of one pass, and then reports its peak
resident set size.  The last stdout line is one JSON object.

The machine-speed reference (``speed.py``) is timed five times just
before and five times just after, so the parent can rescale set-up time
like every other time.  ``invoke`` is also the in-process client of the
timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_SAMPLES = 5


def invoke(main, argv) -> tuple[int, str, str]:
    """Call the CLI entry point with stdout and stderr captured in memory.

    Returns (exit code, stdout, stderr).  An escaping exception is a
    failed request with exit code 1, its traceback kept in stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--full", action="store_true", help="send the whole pass, then report RSS")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    import numpy  # noqa: F401  (already loaded in any real caller; kept off the clock)

    from speed import reference_seconds
    from workloads import requests_for

    requests = requests_for(args.workload, args.seed, args.scale)
    sys.path.insert(0, str(SRC))

    reference_seconds()  # the first round in a process pays one-time costs
    reference = [reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    t0 = perf_counter()
    import bmlandau
    import bmlandau.cli

    t1 = perf_counter()
    rcs = [invoke(bmlandau.cli.main, requests[0].argv)[0]]
    t2 = perf_counter()
    reference += [reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    if args.full:
        rcs += [invoke(bmlandau.cli.main, r.argv)[0] for r in requests[1:]]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "import_s": t1 - t0,
        "setup_s": t2 - t0,
        "reference_s": statistics.median(reference),
        "peak_rss_mb": peak_kib / 1024.0,
        "rcs": rcs,
        "module": bmlandau.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
