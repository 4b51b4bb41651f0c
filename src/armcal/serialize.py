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
import itertools
import json
import numbers
import os
from pathlib import Path

import numpy as np

from .datagen import Episode, EpisodeSet, NormStats
from .plant import ParamBounds, PhysParams
from .surrogate import MlpCheckpoint
from .tpo import PolicyNet

DATASET_KEYS = ("f", "p", "d", "state_q", "state_qd", "action", "next_q", "next_qd")
REPORT_HEADER = "method,traj_err,rot_err,trans_err,time_s"
# training_meta may be absent: it records the run, not the model
CHECKPOINT_KEYS = ("layer_dims", "weights", "biases", "activation",
                   "norm_stats", "bounds", "rng_seed")
# Dataset rows per block: the writer formats a block's parts in %-format
# calls, which keeps the per-float Python overhead off it, and keeps the texts
# of two blocks' parts at most; the reader converts a block of parsed rows to
# one array. The bound keeps the text and the Python floats in memory small
# whatever the row count.
DATASET_BLOCK_ROWS = 1024


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


# f17 writes -0.0 as "-0", which would read back as the integer 0; JSON's
# parser takes NaN and +-Infinity, which no dataset row may hold
_DATASET_DECODER = json.JSONDecoder(parse_int=float,
                                    parse_constant=_reject_constant)


def f17(x):
    return format(float(x), ".17g")


# --- transition dataset (JSON lines) ----------------------------------------

def _dataset_parts(n_joints):
    """%-format templates, %.17g being f17's text, of a dataset line's three
    parts: the (f, p, d), state|action and next-state floats."""
    vec = "[" + ",".join(["%.17g"] * n_joints) + "]"
    keys = [f'"{key}":{vec}' for key in DATASET_KEYS[3:]]
    return ('{"f":%.17g,"p":%.17g,"d":%.17g,',
            ",".join(keys[:3]) + ",",
            ",".join(keys[3:]) + "}")


def dataset_line(row, n_joints):
    """One record row (3 + 5N floats) as a fixed-key-order JSON line."""
    values = np.asarray(row, dtype=float).tolist()
    return "".join(_dataset_parts(n_joints)) % tuple(values)


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


def _format_rows(template, values):
    """template % row for each row of values, in one %-format call."""
    text = "\n".join([template] * len(values)) % tuple(values.ravel().tolist())
    return text.split("\n")


def _format_repeated(template, values, seen):
    """The texts of _format_rows(template, values), each distinct row of
    values formatted once, and the map to pass as seen with the next block.
    seen maps the bytes of the previous block's rows (-0.0 is not 0.0) to
    their texts; a block's misses format together. Once a block repeats no
    row, seen is None from then on and rows go straight to _format_rows."""
    if seen is None:
        return _format_rows(template, values), None
    keys = np.ascontiguousarray(values).view(
        np.dtype((np.void, values.itemsize * values.shape[1]))).ravel().tolist()
    distinct = set(keys)
    missing = list(distinct.difference(seen))
    if len(missing) == len(keys):
        return _format_rows(template, values), None
    texts = {key: seen[key] for key in distinct.intersection(seen)}
    if missing:
        new = np.frombuffer(b"".join(missing)).reshape(len(missing), -1)
        texts.update(zip(missing, _format_rows(template, new)))
    return list(map(texts.__getitem__, keys)), texts


def write_dataset(path, rows, n_joints):
    """Write the (M, 3 + 5N) record matrix as JSON lines, DATASET_BLOCK_ROWS
    rows per block. The file appears only once it is complete. The rows of
    generate_transition_arrays repeat each (f, p, d) once per episode step
    and each state|action part once per parameter set; a block formats each
    distinct such part once, and reuses the text of a part that the block
    before it held, so a part repeated within DATASET_BLOCK_ROWS rows is
    formatted once. A part that repeats nothing in a block is formatted row
    by row from then on, and once neither does, whole lines are."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3 + 5 * n_joints:
        raise ValueError(f"dataset rows must be (M, {3 + 5 * n_joints}), "
                         f"got {rows.shape}")
    fpd_tpl, sa_tpl, next_tpl = _dataset_parts(n_joints)
    fpd_seen, sa_seen = {}, {}
    sa, nx = slice(3, 3 + 3 * n_joints), slice(3 + 3 * n_joints, None)
    line = fpd_tpl + sa_tpl + next_tpl + "\n"
    with _replacing(path) as fh:
        for i in range(0, len(rows), DATASET_BLOCK_ROWS):
            block = rows[i:i + DATASET_BLOCK_ROWS]
            if fpd_seen is None and sa_seen is None:  # no part repeats
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
                continue
            fpd, fpd_seen = _format_repeated(fpd_tpl, block[:, :3], fpd_seen)
            sa_text, sa_seen = _format_repeated(sa_tpl, block[:, sa], sa_seen)
            parts = zip(fpd, sa_text, _format_rows(next_tpl, block[:, nx]),
                        itertools.repeat("\n"))
            fh.write("".join(itertools.chain.from_iterable(parts)))


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
                # every JSON number decodes to a float; null, a bool, a
                # string or a list would be read as a number or fail later
                if set(map(type, row)) != {float}:
                    raise ValueError("not a JSON number: " + repr(
                        next(v for v in row if type(v) is not float)))
            except (ValueError, KeyError, TypeError) as exc:
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
    as integers and -0.0 as 0. NaN and infinity raise ValueError."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return int(obj) if obj.is_integer() and abs(obj) < 1e17 else float(obj)
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
    """The ParamBounds in `doc`; a ValueError unless each of f, p and d is a
    list of exactly two real numbers, no bool among them."""
    ends = []
    for key in "fpd":
        pair = doc.get(key) if isinstance(doc, dict) else None
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in pair)):
            raise ValueError(f"bounds.{key} must be a list of two numbers, "
                             f"got {pair!r}")
        ends += pair
    return ParamBounds(*ends)


def norm_stats_to_json(stats: NormStats):
    return {"mean": stats.mean, "std": stats.std}


def norm_stats_from_json(doc):
    return NormStats(np.array(doc["mean"]), np.array(doc["std"]))


# --- checkpoints -------------------------------------------------------------

def checkpoint_to_json(model: MlpCheckpoint):
    meta = {k: v for k, v in model.training_meta.items() if k != "loss_history"}
    return {
        "layer_dims": list(model.layer_dims),
        "weights": list(model.weights), "biases": list(model.biases),
        "activation": model.activation,
        "norm_stats": norm_stats_to_json(model.norm_stats),
        "bounds": bounds_to_json(model.bounds),
        "rng_seed": model.rng_seed,
        "training_meta": meta,
    }


def checkpoint_from_json(doc):
    """The checkpoint in `doc`; a ValueError names a missing key, a
    training_meta that is no object, an activation other than tanh, a layer
    or norm_stats vector whose shape disagrees with layer_dims or that holds
    a non-finite value, or bounds that bounds_from_json rejects."""
    for key in CHECKPOINT_KEYS:
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    meta = doc.get("training_meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"training_meta must be an object, got {meta!r}")
    dims = tuple(doc["layer_dims"])
    weights = [np.array(W, dtype=float) for W in doc["weights"]]
    biases = [np.array(b, dtype=float) for b in doc["biases"]]
    if doc["activation"] != "tanh":
        raise ValueError(f"activation must be 'tanh', got {doc['activation']!r}")
    want = [((o, i), (o,)) for i, o in zip(dims[:-1], dims[1:])]
    if not len(weights) == len(biases) == len(want):
        raise ValueError(f"{len(weights)} weight and {len(biases)} bias "
                         f"layers, layer_dims {list(dims)} give {len(want)}")
    for i, (W, b) in enumerate(zip(weights, biases)):
        if (W.shape, b.shape) != want[i]:
            raise ValueError(f"layer {i} has weight and bias shapes "
                             f"{W.shape}, {b.shape}; layer_dims give {want[i]}")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i} holds a non-finite value")
    for key in ("mean", "std"):  # one entry per input and output column
        if key not in doc["norm_stats"]:
            raise ValueError(f"missing key 'norm_stats.{key}'")
        vec = np.array(doc["norm_stats"][key], dtype=float)
        if vec.shape != (dims[0] + dims[-1],):
            raise ValueError(f"norm_stats.{key} has shape {vec.shape}; "
                             f"layer_dims give ({dims[0] + dims[-1]},)")
        if not np.isfinite(vec).all():
            raise ValueError(f"norm_stats.{key} holds a non-finite value")
    return MlpCheckpoint(
        dims, weights, biases, doc["activation"],
        norm_stats_from_json(doc["norm_stats"]),
        bounds_from_json(doc["bounds"]),
        int(doc["rng_seed"]),
        dict(meta),
    )


def policy_to_json(policy: PolicyNet):
    return {"layer_dims": list(policy.layer_dims),
            "weights": list(policy.weights), "biases": list(policy.biases),
            "exploration_std": policy.exploration_std}


def policy_from_json(doc):
    return PolicyNet(tuple(doc["layer_dims"]),
                     [np.array(W, dtype=float) for W in doc["weights"]],
                     [np.array(b, dtype=float) for b in doc["biases"]],
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
