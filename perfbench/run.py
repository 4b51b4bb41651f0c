"""armcal benchmark: drives the armcal CLI through one workload.

    python3 perfbench/run.py --workload identify|surrogate|tpo --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
The workload is closed loop: one caller issues one CLI command at a time. It
runs in rounds, each a fresh process (perfbench/worker.py) that sets up one
problem drawn from the seed, times the problem's commands and checks their
outputs. Rounds repeat until --seconds have passed, and at least the
workload's minimum number of rounds run.

--trace 0 prints the end-to-end metrics: set-up time, round time and peak
memory, as medians over the rounds. --trace 1 runs every round twice, without
and with spans on armcal's public functions, adds the layer micro-timings,
and prints the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. The full result, with the
environment fingerprint, goes to .perfbench_out/<workload>/.
"""

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_of  # noqa: E402
from workloads import QUALITY, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 120

# Span names whose calls per round are counted, and those whose own time
# (self time) is reported as a share of the traced commands' wall time.
COUNTED = ("plant.step", "plant.fk", "plant.step_batch", "identify.replay_energy",
           "identify.lm_residuals", "surrogate.backprop", "tpo.rollout_policy",
           "tpo.tpo_loss", "tpo.policy_means", "tpo.traj_log_prob")
SELF_SHARED = ("plant.step", "tpo.rollout_policy")
INCLUSIVE_SHARED = ("identify.anneal_params", "identify.gauss_newton_params",
                    "identify.evaluate_params", "identify.refine_params",
                    "surrogate.train", "serialize.write_dataset",
                    "serialize.read_dataset", "tpo.tpo_loss")
LAYERS = ("plant", "datagen", "serialize", "identify", "surrogate", "tpo", "cli")
COMMANDS = ("datagen", "identify_sa", "identify_grad", "train_surrogate",
            "identify_surrogate", "tpo")
ROUND_COUNTS = ("identify.lm_accepted_steps", "identify.refine_steps",
                "surrogate.epochs")


def run_worker(args, workdir, tag, extra):
    """Start one worker process, wait for it, return (start time, result)."""
    result_path = workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed),
           "--result", str(result_path)] + extra
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return start, None
    return start, json.loads(result_path.read_text())


def run_rounds(args, workdir):
    """Run rounds until the time is up; in trace mode each round runs
    untraced, then traced on the same inputs."""
    cls = WORKLOADS[args.workload]
    n_commands = None
    rounds = []  # (round, trace, start, result or None)
    t0 = time.monotonic()
    round_times = []
    r = 0
    while r < cls.min_rounds or (
            time.monotonic() - t0 + statistics.median(round_times) <= args.seconds):
        began = time.monotonic()
        for trace in ((0, 1) if args.trace else (0,)):
            tag = f"round{r}-trace{trace}"
            start, res = run_worker(args, workdir, tag, [
                "--workload", args.workload, "--round", str(r),
                "--trace", str(trace), "--out", str(workdir / tag)])
            shutil.rmtree(workdir / tag, ignore_errors=True)
            rounds.append((r, trace, start, res))
            if res is not None:
                n_commands = len(res["commands"])
        round_times.append(time.monotonic() - began)
        r += 1
    return rounds, n_commands or 1


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ok):
    return {"setup_s": median([res["first_command"] - start for _, _, start, res in ok]),
            "round_s": median([sum(c["wall_s"] for c in res["commands"])
                               for _, _, _, res in ok]),
            "peak_rss_mb": median([res["peak_rss_mb"] for _, _, _, res in ok])}


def per_layer(args, workdir, ok, min_rounds):
    """Per-layer metrics from the traced and untraced rounds and the
    micro-timings. Counts and quality figures come from the first min_rounds
    rounds, so that they depend on the seed alone."""
    traced = [res for _, t, _, res in ok if t == 1]
    plain = [res for _, t, _, res in ok if t == 0]
    first = [res for r, t, _, res in ok if t == 1 and r < min_rounds]
    n_first = max(1, len(first))
    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = sum(res["spans"].get(name, {}).get("calls", 0)
                                 for res in first) / n_first
    for name in ROUND_COUNTS:
        m[name] = sum(res["counts"][name] for res in first) / n_first
    traced_wall = sum(c["wall_s"] for res in traced for c in res["commands"])
    for name in SELF_SHARED:
        m[f"{name}.self_share"] = sum(res["spans"].get(name, {}).get("self_s", 0.0)
                                      for res in traced) / traced_wall
    for name in INCLUSIVE_SHARED:
        m[f"{name}.share"] = sum(res["spans"].get(name, {}).get("s", 0.0)
                                 for res in traced) / traced_wall
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = sum(
            s["self_s"] for res in traced for n, s in res["spans"].items()
            if not n.startswith("command:") and layer_of(n) == layer) / traced_wall
    plain_wall = sum(c["wall_s"] for res in plain for c in res["commands"])
    for cmd in COMMANDS:
        m[f"cli.{cmd}.share"] = sum(c["wall_s"] for res in plain
                                    for c in res["commands"]
                                    if c["label"] == cmd) / plain_wall
    quality = [res["quality"] for res in plain][:min_rounds]
    for name in QUALITY:
        values = [q[name] for q in quality if name in q]
        m[name] = sum(values) / len(values) if values else 0.0
    walls = {(r, t): sum(c["wall_s"] for c in res["commands"]) for r, t, _, res in ok}
    m["trace.overhead_s"] = median([walls[r, 1] - walls[r, 0] for r, t in walls
                                    if t == 1 and (r, 0) in walls])
    m["trace.span_coverage"] = min(c["coverage"] for res in traced
                                   for c in res["span_commands"])
    _, micro = run_worker(args, workdir, "micro",
                          ["--micro", "--out", str(workdir / "micro")])
    shutil.rmtree(workdir / "micro", ignore_errors=True)
    if micro is None:
        return None, None
    m.update(micro["micro"])
    return m, micro["fingerprint"]


def units(kind):
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that run_worker kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "armcal" / "__init__.py").is_file():
        print(f"error: no armcal source under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    rounds, n_commands = run_rounds(args, workdir)
    ok = [x for x in rounds if x[3] is not None]
    attempted = n_commands * len(rounds)
    failed = n_commands * (len(rounds) - len(ok)) + sum(
        1 for *_, res in ok for c in res["commands"] if c["rc"] != 0)
    failures = [f for *_, res in ok for f in res["failures"]]
    correct = not failures and len(ok) == len(rounds)
    if not ok:
        print("error: every round failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, fp = per_layer(args, workdir, ok, WORKLOADS[args.workload].min_rounds)
        if metrics is None:
            print("error: the micro-timing process failed", file=sys.stderr)
            return 1
        listed = units("per_layer")
    else:
        metrics, fp = end_to_end(ok), ok[0][3]["fingerprint"]
        listed = units("end_to_end")
    bad = [k for k in listed if not math.isfinite(metrics.get(k, math.nan))]
    if bad:
        print(f"error: metrics missing or not finite: {bad}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"check failed: {msg}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fp,
              "rounds": [{"round": r, "trace": t, "setup_s": res["first_command"] - s,
                          "commands": res["commands"],
                          "peak_rss_mb": res["peak_rss_mb"],
                          "quality": res["quality"],
                          "span_commands": res.get("span_commands")}
                         for r, t, s, res in ok]}
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": metrics[k], "unit": u} for k, u in listed.items()}}
    detail["summary"] = summary
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    for res in detail["rounds"]:
        print(f"round {res['round']} trace {res['trace']}: setup {res['setup_s']:.3f} s, "
              + ", ".join(f"{c['label']} {c['wall_s']:.3f} s" for c in res["commands"]))
        for c in res["span_commands"] or ():
            print(f"  spans below cli cover {c['coverage']:.1%} of {c['command']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
