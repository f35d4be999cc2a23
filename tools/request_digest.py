"""SHA-1 of every benchmark request's exit code, stdout and stderr, and a diff of two trees.

    python3 tools/request_digest.py [--seeds 1,2,7919] [--scale 1] [--against FILE]

Sends every request of the three benchmark workloads (``perfbench/
workloads.py``) at each seed to ``bmlandau.cli.main`` of the tree this
file sits in (its ``src/``), in this process, through
``perfbench/worker.invoke``.  It prints one line per request:

    workload <TAB> seed <TAB> index <TAB> sha1 <TAB> argv

where sha1 is that of the JSON list [exit code, stdout, stderr].  To
digest another checkout, run this file from a copy of it in that
checkout's ``tools/``.  With ``--against FILE`` (the output of such a
run), every request whose line differs from FILE's, or that only one
side has, is printed, and the exit code is 1 if there is any.
``--scale`` shrinks grids and the small-request cycles as the benchmark's
short mode does.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from worker import invoke  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402


def digest_lines(seeds, scale: float = 1.0) -> list[str]:
    """One line per request of every workload at every seed, in workload, seed and request order."""
    import bmlandau.cli

    lines = []
    for workload in WORKLOADS:
        for seed in seeds:
            for index, request in enumerate(requests_for(workload, seed, scale)):
                result = invoke(bmlandau.cli.main, request.argv)
                sha1 = hashlib.sha1(json.dumps(result).encode()).hexdigest()
                lines.append("\t".join([workload, str(seed), str(index), sha1, " ".join(request.argv)]))
    return lines


def differences(lines: list[str], reference: list[str]) -> list[str]:
    """The requests, keyed by (workload, seed, index), whose lines differ or that one side lacks."""
    mine, theirs = ({tuple(line.split("\t", 3)[:3]): line for line in side} for side in (lines, reference))
    out = []
    for key in sorted(mine.keys() | theirs.keys()):
        if mine.get(key) != theirs.get(key):
            out.append(f"this tree: {mine.get(key, '(missing)')}\nagainst:   {theirs.get(key, '(missing)')}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,7919", help="comma-separated workload seeds")
    parser.add_argument("--scale", type=float, default=1.0, help="grid and cycle scale (1 is the benchmark's)")
    parser.add_argument("--against", help="a file of lines from another tree to compare with")
    args = parser.parse_args(argv)

    lines = digest_lines([int(s) for s in args.seeds.split(",")], args.scale)
    if not args.against:
        print("\n".join(lines))
        return 0
    diff = differences(lines, Path(args.against).read_text().splitlines())
    print("\n".join(diff) if diff else f"all {len(lines)} requests identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
