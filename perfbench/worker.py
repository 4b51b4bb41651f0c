"""One round of a workload in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload W --seed S --round R --trace 0|1
        --out DIR --result FILE
    python3 perfbench/worker.py --micro --seed S --out DIR --result FILE

Set-up (interpreter start, imports, the round's inputs) ends when the first
timed command starts; that instant is reported on the monotonic clock, which
run.py shares. Each command is one in-process `armcal.cli.main([...])` call.
With --trace 1 every public armcal function records spans. The result file
holds the command timings, peak memory, check failures, quality figures, span
summaries and the environment fingerprint.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import armcal  # noqa: E402
from armcal import cli  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(armcal.__file__).resolve().parent != (ROOT / "src" / "armcal").resolve():
    sys.exit(f"armcal imported from {armcal.__file__}, not from ./src")

# Return values the per-layer metrics count: accepted Gauss-Newton steps,
# refinement steps, and training epochs.
KEEP_RETURNS = ("identify.gauss_newton_params", "identify.refine_params",
                "surrogate.train")


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint():
    from armcal import backend
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "armcal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"backend": backend.backend_name(),
            "blas_threads": blas_threads(),
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                         if k in os.environ},
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_commit": commit, "src_sha256": src.hexdigest()}


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_round(workload, seed, r, trace, out, tiny=False):
    """Set up, time and check one round. Returns (result, the Round)."""
    rnd = WORKLOADS[workload](seed, r, out, tiny)
    rnd.out.mkdir(parents=True, exist_ok=True)
    rnd.setup(quiet_main)
    tracer = Tracer()
    kept = {name: [] for name in KEEP_RETURNS}
    if trace:
        tracer.install({name: kept[name].append for name in KEEP_RETURNS})
    commands = []
    first = time.monotonic()
    try:
        for label, argv in rnd.commands():
            t0 = time.perf_counter()
            if trace:
                rc = tracer.span("command:" + label, quiet_main, argv)
            else:
                rc = quiet_main(argv)
            commands.append({"label": label, "rc": rc,
                             "wall_s": time.perf_counter() - t0})
            if rc != 0:
                break
            rnd.keep(label)
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"first_command": first, "commands": commands,
              "peak_rss_mb": peak_rss_mb, "failures": [], "quality": {}}
    if any(c["rc"] != 0 for c in commands):
        result["failures"].append("a command exited non-zero")
    else:
        result["failures"] = rnd.check()
        result["quality"] = rnd.quality()
    if trace:
        per_name, spans = tracer.summary()
        result["spans"] = per_name
        result["span_commands"] = spans
        result["counts"] = {
            "identify.lm_accepted_steps": sum(len(c) - 1 for _, c in
                                              kept["identify.gauss_newton_params"]),
            "identify.refine_steps": sum(len(c) for _, c in
                                         kept["identify.refine_params"]),
            "surrogate.epochs": sum(m.training_meta["epochs_run"]
                                    for m in kept["surrogate.train"])}
        tracer.save(rnd.out.parent / f"spans-round{r}.npz")
    return result, rnd


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--micro", action="store_true")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    if args.micro:
        import micro
        result = {"micro": micro.run(args.seed, Path(args.out))}
    else:
        result, _ = run_round(args.workload, args.seed, args.round, args.trace,
                              args.out)
    result["fingerprint"] = fingerprint()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
