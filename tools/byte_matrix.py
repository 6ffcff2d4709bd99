"""Run the 32-command CLI matrix and print one digest line per command.

    python3 tools/byte_matrix.py SRC_DIR

SRC_DIR is the directory that holds the ``beltrami_lab`` package (``src``
in a checkout).  Every command runs in-process through ``cli.main`` with
BLAS pinned to one thread, as the benchmark pins it (the BLAS thread count
changes the bits of the solver's small matrix products; the size of
``truncate``'s pool does not), each in its own output directory under a
temporary directory that is removed afterwards.  A line holds the command,
its exit code and the first 12 hex digits of the sha256 of each output
file; ``summary`` hashes the sorted-key JSON of the summary's ``results``,
``checks``, ``error`` and ``non_finite``.  FILE is the ``mu.cfld`` of the
second command; commands 31 and 32 are the benchmark's two 512² solver
workloads; ``report`` merges the summaries of commands 1, 10 and 20.  A
``solve`` or ``truncate`` line then gives, after ``|``, the work counts of
its ``metrics`` block, one group per truncation level: the fixed point's
updates, how many ran in complex64, the FFT pairs by precision and the
torus side.  Digests and counts do not depend on timing, so comparing two
checkouts is one ``diff``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

MATRIX = (
    "solve --mu const:0.3 --grid 64",
    "solve --mu example3 --alpha 0.5 --k 10 --grid 128",
    "solve --mu example4 --k 8 --grid 128 --tol 1e-9 --max-iter 300",
    "solve --mu grid:FILE --k 4 --grid 128 --half-width 2.0",
    "truncate --mu example4 --k 4,8 --grid 96",
    "truncate --mu example3 --alpha 0.7 --k 4,8 --grid 96 --bound none",
    "truncate --mu const:0.3 --k 2,4 --grid 64 --p 1.8 --bound 17.5",
    "holder --map example3 --pairs 200 --scales 3:10",
    "holder --map example4 --k 16 --pairs 200 --scales 3:10",
    "holder --map example2 --m 4 --pairs 100 --scales 3:9",
    "holder --map identity --weight unit --pairs 100 --scales 3:8",
    "holder --map example3 --alpha 0.8 --k 10 --weight none --pairs 100 --scales 4:9",
    "holder --map example4 --weight example3-image --alpha 0.6 --pairs 100 "
    "--compact-radius 0.6",
    "radial --profile example2 --m 4 --pairs 5",
    "radial --profile numeric --weight example1 --pairs 5 --seed 3",
    "radial --profile numeric --weight example3-image --alpha 0.7 --pairs 3",
    "radial --profile example4-limit --n 3 --pairs 4",
    "radial --profile identity --pairs 4",
    "dilatation --mu example3 --k 10 --scan-radii 0.8,0.4,0.2",
    "dilatation --mu example4",
    "dilatation --mu const:0.4 --weight unit --scan-radii 0.5,0.25,0.125",
    "dilatation --mu example3 --alpha 1.2 --weight power",
    "dilatation --mu grid:FILE --weight example4-image --k 5",
    "dilatation --mu example4 --k 20 --weight example1 --scan-radii 0.9,0.3",
    "holder --map example4 --weight power --pairs 50 --scales 3:8",
    "radial --profile numeric --weight unit --pairs 3",
    "radial --profile numeric --weight example4-image --pairs 3",
    "radial --profile numeric --weight power --n 3 --pairs 3",
    "radial --profile numeric --weight example3-image --alpha 0.01 --pairs 2",
    "solve --mu example3 --alpha 0.5 --k 10 --grid 512",
    "truncate --mu example4 --k 4,8,16,32,64 --grid 512",
)
# commands (1-based) whose summaries the closing report merges
REPORTED = (1, 10, 20)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _counts(metrics: dict) -> str:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(metrics["fft_pairs"].items()))
    return (f"updates={len(metrics['updates'])} "
            f"complex64_iterations={metrics['complex64_iterations']} "
            f"fft_pairs {pairs} torus_side={metrics['torus_side']}")


def _quiet(fn, args):
    """fn(args) with its PASS/FAIL lines and errors kept off the digest lines."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(args)


def _describe(out_dir: str, command: str) -> str:
    parts = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".summary.json"):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            parts.append(f"{name}:{_digest(fh.read())}")
    with open(os.path.join(out_dir, f"{command}.summary.json")) as fh:
        doc = json.load(fh)
    kept = {"results": doc.get("results", {}), "checks": doc.get("checks"),
            "error": doc.get("error"), "non_finite": doc.get("non_finite")}
    parts.append("summary:" + _digest(json.dumps(kept, sort_keys=True).encode()))
    metrics = doc.get("metrics") or {}
    if command == "solve" and metrics:
        parts.append("| " + _counts(metrics))
    elif command == "truncate":
        ks = doc.get("results", {}).get("k_schedule", [])
        parts += [f"| k={k:g} {_counts(level)}" for k, level in zip(ks, metrics.get("levels", []))]
    return " ".join(parts)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, os.path.abspath(argv[0]))
    from beltrami_lab import cli

    work = tempfile.mkdtemp(prefix="byte_matrix_")
    try:
        dirs = [os.path.join(work, f"m{i}") for i in range(1, len(MATRIX) + 1)]
        for line, out in zip(MATRIX, dirs):
            args = line.replace("FILE", os.path.join(dirs[1], "mu.cfld")).split()
            code = _quiet(cli.main, [*args, "--out", out])
            print(f"{line} exit={code} {_describe(out, args[0])}", flush=True)
        report = os.path.join(work, "report")
        os.makedirs(report)
        for i in REPORTED:
            for name in os.listdir(dirs[i - 1]):
                if name.endswith(".summary.json"):
                    shutil.copy(os.path.join(dirs[i - 1], name), report)
        code = _quiet(cli.main, ["report", "--out", report])
        merged = " + ".join(f"m{i}" for i in REPORTED)
        print(f"report ({merged} summaries) exit={code} {_describe(report, 'report')}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
