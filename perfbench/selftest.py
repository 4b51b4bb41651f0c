"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one traced round of every workload at a tiny size (workloads.TINY_SETS)
and requires every check to pass on the program's own output. Then it plants
one wrong answer at a time in the kept artifacts and requires the check that
guards against it to fail. Exits 0 when all of that holds. Takes about a
minute; writes only under .perfbench_out/selftest/.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402  (puts ./src on the path)

SEED = 7
OUT = worker.ROOT / ".perfbench_out" / "selftest"


def _edit_json(key, change):
    def edit(text):
        doc = json.loads(text)
        doc[key] = change(doc[key])
        return json.dumps(doc)
    return edit


def _edit_csv_field(method, field, change):
    def edit(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        col = header.index(field)
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[0] == method:
                cells[col] = change(cells[col])
                lines[i] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def _edit_jsonl_first(key, value):
    def edit(text):
        rows = [json.loads(line) for line in text.splitlines()]
        rows[0][key] = value
        return "\n".join(json.dumps(r) for r in rows) + "\n"
    return edit


def _nan_weight(text):
    doc = json.loads(text)
    doc["weights"][0][0][0] = float("nan")
    return json.dumps(doc)


def _bump_loss_last_row(text):
    lines = text.strip().splitlines()
    first = float(lines[1].split(",")[1])
    step = lines[-1].split(",")[0]
    lines[-1] = f"{step},{first * 2}"
    return "\n".join(lines) + "\n"


def _bigger_f(factor):
    return _edit_json("f", lambda v: v * factor)


# (workload, round, fault, command label, artifact, edit, text the failure names)
FAULTS = [
    ("identify", 0, "noise-free grad fit 1e-6 off the truth", "identify_grad",
     "identified_params.json", _bigger_f(1 + 1e-6), "noise-free truth"),
    ("identify", 3, "noisy grad fit 1e-3 off its stationary point", "identify_grad",
     "identified_params.json", _bigger_f(1 + 1e-3), "not stationary"),
    ("identify", 0, "sa result outside the bounds", "identify_sa",
     "identified_params.json", _edit_json("p", lambda v: 501.0), "outside the bounds"),
    ("identify", 0, "sa result worse than its start", "identify_sa",
     "identified_params.json", _edit_json("p", lambda v: 1.0), "replay energy"),
    ("identify", 0, "sa traj_err off by 1e-5", "identify_sa", "identify_report.csv",
     _edit_csv_field("sa", "traj_err", lambda v: f"{float(v) + 1e-5:.6f}"),
     "open-loop recomputation"),
    ("identify", 3, "grad traj_err off by 1e-5", "identify_grad", "identify_report.csv",
     _edit_csv_field("grad", "traj_err", lambda v: f"{float(v) + 1e-5:.6f}"),
     "open-loop recomputation"),
    ("surrogate", 0, "training loss that rose", "train_surrogate", "train_loss.csv",
     _bump_loss_last_row, "did not fall"),
    ("surrogate", 0, "checkpoint that does not re-serialise", "train_surrogate",
     "checkpoint.json", lambda t: t.replace(",", ", ", 1), "byte-identically"),
    ("surrogate", 0, "surrogate traj_err off by 1e-5", "identify_surrogate",
     "identify_report.csv",
     _edit_csv_field("surrogate", "traj_err", lambda v: f"{float(v) + 1e-5:.6f}"),
     "open-loop recomputation"),
    ("surrogate", 0, "surrogate result outside the bounds", "identify_surrogate",
     "identified_params.json", _edit_json("d", lambda v: -1.0), "outside the bounds"),
    ("tpo", 0, "policy with one NaN weight", "tpo", "policy.json", _nan_weight,
     "non-finite weights"),
    ("tpo", 0, "first loss that is not ln 2", "tpo", "tpo_report.jsonl",
     _edit_jsonl_first("loss_first", 0.69314718), "is not ln 2"),
    ("tpo", 0, "loss that did not fall", "tpo", "tpo_report.jsonl",
     _edit_jsonl_first("loss_last", 0.7), "loss did not fall"),
    ("tpo", 0, "reward below the reachable floor", "tpo", "tpo_report.jsonl",
     _edit_jsonl_first("mean_reward_after", -3.5), "outside"),
]


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    errors = []
    rounds = {}
    for workload, r in sorted({(w, r) for w, r, *_ in FAULTS}):
        result, rnd = worker.run_round(workload, SEED, r, 1, OUT / f"{workload}-{r}",
                                       tiny=True)
        rounds[workload, r] = rnd
        if result["failures"]:
            errors.append(f"{workload} round {r}: checks fail on the program's "
                          f"own output: {result['failures']}")
        if not result["spans"] or not result["span_commands"]:
            errors.append(f"{workload} round {r}: the traced round recorded no spans")
        print(f"{workload} round {r}: {len(result['commands'])} commands, "
              f"{sum(s['calls'] for s in result['spans'].values())} spans, "
              f"checks {'pass' if not result['failures'] else 'FAIL'}")
    for workload, r, fault, label, name, edit, expect in FAULTS:
        rnd = rounds[workload, r]
        original = rnd.artifacts[label][name]
        rnd.artifacts[label][name] = edit(original)
        try:
            failures = rnd.check()
        finally:
            rnd.artifacts[label][name] = original
        caught = any(expect in f for f in failures)
        print(f"{workload}: {fault}: {'caught' if caught else 'MISSED'}")
        if not caught:
            errors.append(f"{workload}: planted fault not caught: {fault} ({failures})")
    shutil.rmtree(OUT, ignore_errors=True)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
