"""Run one workload of the generation benchmark.

    python3 genbench/run.py --workload population --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a checkout of the repository.  The launcher starts
:mod:`genbench.worker` in a child process with a pinned environment --
one BLAS/OpenMP thread, a fixed ``PYTHONHASHSEED``, no inherited
``REPRO_*`` settings and an empty artifact store under
``.genbench_work/`` -- waits for it, and removes its scratch directory.
The worker prints every metric with its unit and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Environment pinned in the worker and echoed in the output.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: The worker is killed (and the run fails) after this many seconds.
WORKER_TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api").is_dir():
        print(f"genbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("genbench: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".genbench_work"
    work_root.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=work_root))
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(work / "store")
    print("env " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()),
          flush=True)
    command = [
        sys.executable, "-m", "genbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--store", str(work / "store"),
    ]
    try:
        launched = time.monotonic()
        completed = subprocess.run(
            [*command, "--launched", repr(launched)],
            cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
        return completed.returncode
    except subprocess.TimeoutExpired:
        print(f"genbench: worker exceeded {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still owns a directory in it
            pass


if __name__ == "__main__":
    sys.exit(main())
