"""ctxseg benchmark: one workload per invocation, result on the last line.

    python3 bench/run.py --workload train_full --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; ctxseg is imported from ./src. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones (see
bench/README.md). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs every
workload in a fresh process of its own, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# BLAS runs on one thread, fixed before numpy loads. With one thread per
# core, OpenBLAS spin-waits at every barrier, and any other process on the
# machine then stalls it: on 2 cores, one competing process made a probe
# call 6x slower. One thread was as fast alone, and far steadier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("train_full", "train_baseline", "infer_probe")


def import_ctxseg():
    """ctxseg from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ctxseg" / "__init__.py").is_file():
        raise ImportError(f"no ctxseg sources under {src}")
    sys.path.insert(0, str(src))
    import ctxseg
    if src.resolve() not in Path(ctxseg.__file__).resolve().parents:
        raise ImportError(f"ctxseg was imported from {ctxseg.__file__}, not {src}")


def run_all(args) -> int:
    """Each workload in a fresh process, so each peak RSS is its own; one
    that fails does not stop the others."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "exit_code": proc.returncode}
    print(json.dumps({"correct": all(r.get("correct") for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The hash seed moves peak RSS by up to 12% between runs of one
        # input (it shifts when the cyclic collector frees the graphs), so it
        # is fixed like the BLAS threads. exec replaces this process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(sys.argv[1:] if argv is None else argv)])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        import_ctxseg()
    except ImportError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import run_workload
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
