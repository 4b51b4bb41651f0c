"""File formats: JSON-lines transition datasets, episode files, checkpoints,
report CSV/markdown, and the loss-curve SVG plot.

All floating-point values are written as decimal with 17 significant digits,
which round-trips IEEE doubles exactly, so re-serialization of a loaded
artifact is byte-identical.
"""

import hashlib
import json

import numpy as np

from .datagen import Episode, EpisodeSet, NormStats
from .plant import Action, JointState, ParamBounds, PhysParams
from .surrogate import MlpCheckpoint
from .tpo import PolicyNet

DATASET_KEYS = ("f", "p", "d", "state_q", "state_qd", "action", "next_q", "next_qd")
REPORT_HEADER = "method,traj_err,rot_err,trans_err,time_s"


def f17(x):
    return format(float(x), ".17g")


def _vec(values):
    return "[" + ",".join(f17(v) for v in values) + "]"


# --- transition dataset (JSON lines) ----------------------------------------

def dataset_line(row, n_joints):
    """One record row (3 + 5N floats) as a fixed-key-order JSON line."""
    n = n_joints
    parts = [f'"f":{f17(row[0])}', f'"p":{f17(row[1])}', f'"d":{f17(row[2])}',
             f'"state_q":{_vec(row[3:3 + n])}',
             f'"state_qd":{_vec(row[3 + n:3 + 2 * n])}',
             f'"action":{_vec(row[3 + 2 * n:3 + 3 * n])}',
             f'"next_q":{_vec(row[3 + 3 * n:3 + 4 * n])}',
             f'"next_qd":{_vec(row[3 + 4 * n:3 + 5 * n])}']
    return "{" + ",".join(parts) + "}"


def write_dataset(path, rows, n_joints):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(dataset_line(row, n_joints) + "\n")


def read_dataset(path):
    """Load a JSON-lines dataset back into the flat (M, 3 + 5N) layout."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                row = np.concatenate([[obj["f"], obj["p"], obj["d"]],
                                      obj["state_q"], obj["state_qd"],
                                      obj["action"], obj["next_q"], obj["next_qd"]])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: malformed dataset line {lineno}: {exc}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    return np.array(rows)


# --- episodes ----------------------------------------------------------------

def episodes_to_json(episodes: EpisodeSet):
    eps = []
    for ep in episodes.episodes:
        eps.append({
            "actions": [[float(v) for v in a.target_q] for a in ep.actions],
            "observed_q": [[float(v) for v in s.q] for s in ep.observed],
            "observed_qd": [[float(v) for v in s.qd] for s in ep.observed],
        })
    return {"source": episodes.source, "episodes": eps}


def episodes_from_json(doc):
    eps = []
    for e in doc["episodes"]:
        actions = tuple(Action(np.array(a)) for a in e["actions"])
        observed = tuple(JointState(np.array(q), np.array(qd))
                         for q, qd in zip(e["observed_q"], e["observed_qd"]))
        eps.append(Episode(actions, observed))
    return EpisodeSet(tuple(eps), source=doc.get("source", "simulated"))


# --- misc JSON documents -----------------------------------------------------

def dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(to_canonical_json(obj))
        fh.write("\n")


def to_canonical_json(obj):
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


class _F(float):
    pass


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return json.loads(f17(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def params_to_json(params: PhysParams):
    return {"f": params.f, "p": params.p, "d": params.d}


def params_from_json(doc):
    return PhysParams(float(doc["f"]), float(doc["p"]), float(doc["d"]))


def bounds_to_json(b: ParamBounds):
    return {"f": [b.f_min, b.f_max], "p": [b.p_min, b.p_max], "d": [b.d_min, b.d_max]}


def bounds_from_json(doc):
    return ParamBounds(doc["f"][0], doc["f"][1], doc["p"][0], doc["p"][1],
                       doc["d"][0], doc["d"][1])


def norm_stats_to_json(stats: NormStats):
    return {"mean": stats.mean, "std": stats.std}


def norm_stats_from_json(doc):
    return NormStats(np.array(doc["mean"]), np.array(doc["std"]))


# --- checkpoints -------------------------------------------------------------

def checkpoint_to_json(model: MlpCheckpoint):
    meta = {k: v for k, v in model.training_meta.items() if k != "loss_history"}
    return {
        "layer_dims": list(model.layer_dims),
        "weights": [W for W in model.weights],
        "biases": [b for b in model.biases],
        "activation": model.activation,
        "norm_stats": norm_stats_to_json(model.norm_stats),
        "bounds": bounds_to_json(model.bounds),
        "rng_seed": model.rng_seed,
        "training_meta": meta,
    }


def checkpoint_from_json(doc):
    return MlpCheckpoint(
        tuple(doc["layer_dims"]),
        [np.array(W) for W in doc["weights"]],
        [np.array(b) for b in doc["biases"]],
        doc["activation"],
        norm_stats_from_json(doc["norm_stats"]),
        bounds_from_json(doc["bounds"]),
        int(doc["rng_seed"]),
        dict(doc.get("training_meta", {})),
    )


def policy_to_json(policy: PolicyNet):
    return {"layer_dims": list(policy.layer_dims),
            "weights": [W for W in policy.weights],
            "biases": [b for b in policy.biases],
            "exploration_std": policy.exploration_std}


def policy_from_json(doc):
    return PolicyNet(tuple(doc["layer_dims"]),
                     [np.array(W) for W in doc["weights"]],
                     [np.array(b) for b in doc["biases"]],
                     float(doc["exploration_std"]))


# --- reports -----------------------------------------------------------------

def reports_to_csv(reports):
    """Report rows; errors at 6 decimals, time_s as the shortest repr that
    round-trips, since runs of a few milliseconds are compared by ratio."""
    lines = [REPORT_HEADER]
    for r in reports:
        lines.append(f"{r.method},{r.trajectory_error:.6f},{r.rotation_error:.6f},"
                     f"{r.translation_error:.6f},{float(r.wall_clock_seconds)!r}")
    return "\n".join(lines) + "\n"


def reports_to_markdown(reports):
    lines = ["| Method | Trajectory error | Rotation error | Translation error | Time cost(s) |",
             "|---|---|---|---|---|"]
    for r in reports:
        lines.append(f"| {r.method} | {r.trajectory_error:.4f} | {r.rotation_error:.4f} "
                     f"| {r.translation_error:.4f} | {float(r.wall_clock_seconds)!r} |")
    return "\n".join(lines) + "\n"


def config_hash(config):
    return hashlib.sha256(to_canonical_json(config).encode()).hexdigest()


# --- SVG loss-curve plot -----------------------------------------------------

def curve_to_svg(steps, values, title="loss"):
    """Minimal deterministic SVG polyline with axes and min/max labels."""
    if len(steps) == 0:
        raise ValueError("empty curve")
    w, h, pad = 640, 480, 50
    xs = np.asarray(steps, dtype=float)
    ys = np.asarray(values, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    px = pad + (xs - x0) / xr * (w - 2 * pad)
    py = h - pad - (ys - y0) / yr * (h - 2 * pad)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>\n'
        f'<text x="{w // 2}" y="20" text-anchor="middle">{title}</text>\n'
        f'<text x="{pad}" y="{h - pad + 20}">{f17(x0)}</text>\n'
        f'<text x="{w - pad}" y="{h - pad + 20}" text-anchor="end">{f17(x1)}</text>\n'
        f'<text x="{pad - 5}" y="{h - pad}" text-anchor="end">{f17(y0)}</text>\n'
        f'<text x="{pad - 5}" y="{pad}" text-anchor="end">{f17(y1)}</text>\n'
        f'<polyline fill="none" stroke="steelblue" points="{points}"/>\n'
        f"</svg>\n"
    )
