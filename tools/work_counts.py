"""Run the two solver workloads of the benchmark through the CLI and print
the work counts of their ``metrics`` blocks.

    python3 tools/work_counts.py SRC_DIR

SRC_DIR is the directory that holds the ``beltrami_lab`` package (``src``
in a checkout).  Both commands run in-process through ``cli.main`` at 512²
with ``BELTRAMI_LAB_THREADS=2``, each in its own output directory under a
temporary directory that is removed afterwards.  Each command prints its
exit code, then one line for the solve or for each truncation level: the
fixed point's update count, how many of the updates ran in complex64, the
FFT pairs by precision and the torus side.  Counts do not depend on
timing, so two checkouts compare with one ``diff``, as with
``byte_matrix.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

COMMANDS = (
    "solve --mu example3 --alpha 0.5 --k 10 --grid 512 --no-dump",
    "truncate --mu example4 --k 4,8,16,32,64 --grid 512",
)


def _counts(metrics: dict) -> str:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(metrics["fft_pairs"].items()))
    return (f"updates={len(metrics['updates'])} "
            f"complex64_iterations={metrics['complex64_iterations']} "
            f"fft_pairs {pairs} torus_side={metrics['torus_side']}")


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
        return 2
    os.environ["BELTRAMI_LAB_THREADS"] = "2"
    sys.path.insert(0, os.path.abspath(argv[0]))
    from beltrami_lab import cli

    work = tempfile.mkdtemp(prefix="work_counts_")
    try:
        for i, line in enumerate(COMMANDS):
            args = line.split()
            out = os.path.join(work, f"w{i}")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*args, "--out", out])
            with open(os.path.join(out, f"{args[0]}.summary.json")) as fh:
                doc = json.load(fh)
            metrics = doc.get("metrics") or {}
            if args[0] == "solve":
                levels = [("", metrics)] if metrics else []
            else:
                ks = doc.get("results", {}).get("k_schedule", [])
                levels = [(f"k={k:g} ", level) for k, level in zip(ks, metrics.get("levels", []))]
            print(f"{line} exit={code}", flush=True)
            for label, level in levels:
                print(f"  {label}{_counts(level)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
