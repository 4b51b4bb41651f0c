"""File formats: JSON-lines transition datasets, episode files, checkpoints,
report CSV/markdown, and the loss-curve SVG plot.

Every float is written as a decimal that reads back as the same double, so
re-serializing a loaded artifact is byte-identical. The dataset lines, the
loss-curve CSV and the plot labels use %.17g (f17). The JSON documents use
the shortest repr that round-trips, except that a float with an integral
value below 1e17 in magnitude is written as an integer and -0.0 as 0.
"""

import contextlib
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .datagen import Episode, EpisodeSet, NormStats
from .plant import ParamBounds, PhysParams
from .surrogate import MlpCheckpoint
from .tpo import PolicyNet

DATASET_KEYS = ("f", "p", "d", "state_q", "state_qd", "action", "next_q", "next_qd")
REPORT_HEADER = "method,traj_err,rot_err,trans_err,time_s"
# Dataset rows per block: the writer formats a block in one %-format call,
# which keeps the per-float Python overhead off it, and the reader converts a
# block of parsed rows to one array; the bound keeps the text and the Python
# floats in memory small whatever the row count.
DATASET_BLOCK_ROWS = 1024
# f17 writes -0.0 as "-0", which would read back as the integer 0
_DATASET_DECODER = json.JSONDecoder(parse_int=float)


def f17(x):
    return format(float(x), ".17g")


# --- transition dataset (JSON lines) ----------------------------------------

def _dataset_template(n_joints):
    """%-format template of one dataset line and its newline: the 3 + 5N
    floats of a row in order, each as %.17g, which is f17's text."""
    vec = "[" + ",".join(["%.17g"] * n_joints) + "]"
    fields = ['"f":%.17g', '"p":%.17g', '"d":%.17g'] + [
        f'"{key}":{vec}' for key in DATASET_KEYS[3:]]
    return "{" + ",".join(fields) + "}\n"


def dataset_line(row, n_joints):
    """One record row (3 + 5N floats) as a fixed-key-order JSON line."""
    values = np.asarray(row, dtype=float).tolist()
    return (_dataset_template(n_joints) % tuple(values))[:-1]


@contextlib.contextmanager
def _replacing(path):
    """Open a temporary file beside path for writing; on success it replaces
    path, on any exception it is removed and path is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_dataset(path, rows, n_joints):
    """Write the (M, 3 + 5N) record matrix as JSON lines, DATASET_BLOCK_ROWS
    rows per format call. The file appears only once it is complete."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3 + 5 * n_joints:
        raise ValueError(f"dataset rows must be (M, {3 + 5 * n_joints}), "
                         f"got {rows.shape}")
    template = _dataset_template(n_joints)
    with _replacing(path) as fh:
        for i in range(0, len(rows), DATASET_BLOCK_ROWS):
            block = rows[i:i + DATASET_BLOCK_ROWS]
            fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def read_dataset(path):
    """Load a JSON-lines dataset back into the flat (M, 3 + 5N) layout. Rows
    are collected as lists and converted DATASET_BLOCK_ROWS at a time, which
    bounds the memory held in Python floats."""
    blocks, rows, width = [], [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _DATASET_DECODER.decode(line)
                row = [obj["f"], obj["p"], obj["d"], *obj["state_q"],
                       *obj["state_qd"], *obj["action"], *obj["next_q"],
                       *obj["next_qd"]]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: malformed dataset line {lineno}: {exc}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}: malformed dataset line {lineno}: "
                                 f"{len(row)} values, expected {width}")
            rows.append(row)
            if len(rows) == DATASET_BLOCK_ROWS:
                blocks.append(np.array(rows, dtype=float))
                rows = []
    if rows:
        blocks.append(np.array(rows, dtype=float))
    if not blocks:
        raise ValueError(f"{path}: empty dataset")
    return np.concatenate(blocks)


# --- episodes ----------------------------------------------------------------

def episodes_to_json(episodes: EpisodeSet):
    return {"source": episodes.source,
            "episodes": [{"actions": ep.actions.tolist(),
                          "observed_q": ep.q.tolist(),
                          "observed_qd": ep.qd.tolist()}
                         for ep in episodes.episodes]}


def episodes_from_json(doc):
    eps = tuple(Episode(e["actions"], e["observed_q"], e["observed_qd"])
                for e in doc["episodes"])
    return EpisodeSet(eps, source=doc.get("source", "simulated"))


# --- misc JSON documents -----------------------------------------------------

def write_text(path, text):
    """Write text to path through _replacing: all of it or nothing."""
    with _replacing(path) as fh:
        fh.write(text)


def dump_json(obj, path):
    write_text(path, to_canonical_json(obj) + "\n")


def to_canonical_json(obj):
    """Deterministic JSON text: sorted keys, no spaces, each float as the
    shortest repr that round-trips, integral floats below 1e17 in magnitude
    as integers and -0.0 as 0 (what json makes of its f17 text)."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


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
