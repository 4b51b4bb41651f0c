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
import math
import operator
import os
from pathlib import Path

import numpy as np

from .datagen import Episode, EpisodeSet, NormStats
from .plant import ParamBounds, PhysParams
from .surrogate import MlpCheckpoint
from .tpo import PolicyNet

DATASET_KEYS = ("f", "p", "d", "state_q", "state_qd", "action", "next_q", "next_qd")
REPORT_HEADER = "method,traj_err,rot_err,trans_err,time_s"
# Dataset rows per block: the writer formats a block's parts in %-format
# calls, which keeps the per-float Python overhead off it, and keeps the texts
# of two blocks' parts at most; the reader converts a block of parsed rows to
# one array. The bound keeps the text and the Python floats in memory small
# whatever the row count.
DATASET_BLOCK_ROWS = 1024
_DATASET_VALUES = operator.itemgetter(*DATASET_KEYS)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


# f17 writes -0.0 as "-0", which would read back as the integer 0; JSON's
# parser takes NaN and +-Infinity, which no dataset row may hold
_DATASET_DECODER = json.JSONDecoder(parse_int=float,
                                    parse_constant=_reject_constant)


def f17(x):
    return format(float(x), ".17g")


def _entry(doc, *path, shape=()):
    """The entry at `path` (dict keys and list indices) of `doc`: a float for
    shape (), else a float array of `shape` (None matching any length); an
    int for shape int, a list for shape list. A ValueError names the key
    path of an entry that is missing, null, a bool, a string, a ragged list,
    a non-finite number or of another shape."""
    name = ".".join(map(str, path))
    value = doc
    for i, key in enumerate(path):
        try:
            value = value[key]
        except (KeyError, IndexError, TypeError):
            missing = ".".join(map(str, path[:i + 1]))
            raise ValueError(f"missing key {missing!r}") from None
    if shape in (int, list):  # type(True) is bool, not int
        if type(value) is not shape:
            raise ValueError(f"{name} must be of type {shape.__name__}, "
                             f"got {value!r}")
        return value
    array = np.array(value, dtype=object)  # the JSON values themselves
    if (array.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, array.shape))):
        raise ValueError(f"{name} has shape {array.shape}, expected "
                         + str(shape).replace("None", "any"))
    leaves = array.ravel().tolist()
    if not set(map(type, leaves)) <= {int, float}:  # at C speed
        bad = next(v for v in leaves if type(v) not in (int, float))
        raise ValueError(f"{name} holds {bad!r}, which is not a number")
    try:
        array = array.astype(float)
    except OverflowError:  # an integer beyond the largest float
        raise ValueError(f"{name} holds a non-finite value") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a non-finite value")
    return array if shape else float(array)


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
    bounds the memory held in Python floats. The first line's state_q sets
    the length of every vector of every line; a line whose values are not
    all finite floats in those shapes is read again through _entry, which
    names the key at fault."""
    blocks, rows, lengths = [], [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _DATASET_DECODER.decode(line)
                if lengths is None:
                    n = len(_entry(obj, "state_q", shape=(None,)))
                    lengths = (n,) * 5
                    shapes = {key: () if key in "fpd" else (n,)
                              for key in DATASET_KEYS}
                try:
                    f, p, d, q, qd, a, nq, nqd = _DATASET_VALUES(obj)
                    row = [f, p, d, *q, *qd, *a, *nq, *nqd]
                    fits = (len(q), len(qd), len(a), len(nq), len(nqd)) == lengths
                except (KeyError, TypeError):
                    fits = False
                if (not fits or set(map(type, row)) != {float}
                        or not math.isfinite(sum(row))):
                    row = [v for key in DATASET_KEYS for v in np.ravel(
                        _entry(obj, key, shape=shapes[key])).tolist()]
            except ValueError as exc:
                raise ValueError(f"{path}: malformed dataset line {lineno}: {exc}")
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
    """The EpisodeSet in `doc`: observed q and qd hold a row more than the
    actions."""
    episodes = []
    for i in range(len(_entry(doc, "episodes", shape=list))):
        actions = _entry(doc, "episodes", i, "actions", shape=(None, None))
        rows = (len(actions) + 1, actions.shape[1])
        q, qd = (_entry(doc, "episodes", i, key, shape=rows)
                 for key in ("observed_q", "observed_qd"))
        episodes.append(Episode(actions, q, qd))
    return EpisodeSet(tuple(episodes), source=doc.get("source", "simulated"))


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
    return PhysParams(*(_entry(doc, key) for key in "fpd"))


def bounds_to_json(b: ParamBounds):
    return {"f": [b.f_min, b.f_max], "p": [b.p_min, b.p_max], "d": [b.d_min, b.d_max]}


def bounds_from_json(doc, *path):
    """The ParamBounds at `path` in `doc`: two numbers for each of f, p, d."""
    return ParamBounds(*(v for key in "fpd" for v in _entry(
        doc, *path, key, shape=(2,)).tolist()))


def norm_stats_to_json(stats: NormStats):
    return {"mean": stats.mean, "std": stats.std}


def norm_stats_from_json(doc, *path, size=None):
    """The NormStats at `path` in `doc`: two vectors of `size` numbers."""
    return NormStats(*(_entry(doc, *path, key, shape=(size,))
                       for key in ("mean", "std")))


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
    """The checkpoint in `doc`; a ValueError names the key path of an entry
    that _entry rejects or that disagrees with layer_dims, of an activation
    other than tanh, or of a training_meta that is no object."""
    dims = tuple(_entry(doc, "layer_dims", i, shape=int)
                 for i in range(len(_entry(doc, "layer_dims", shape=list))))
    layers = [len(_entry(doc, key, shape=list)) for key in ("weights", "biases")]
    if layers != [len(dims) - 1] * 2:
        raise ValueError("{} weight and {} bias layers, layer_dims {} give "
                         "{}".format(*layers, list(dims), len(dims) - 1))
    weights = [_entry(doc, "weights", i, shape=(n_out, n_in))
               for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:]))]
    biases = [_entry(doc, "biases", i, shape=(n,)) for i, n in enumerate(dims[1:])]
    if doc.get("activation") != "tanh":
        raise ValueError("activation must be 'tanh', got "
                         f"{doc.get('activation')!r}")
    meta = doc.get("training_meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"training_meta must be an object, got {meta!r}")
    return MlpCheckpoint(
        dims, weights, biases, "tanh",
        norm_stats_from_json(doc, "norm_stats", size=dims[0] + dims[-1]),
        bounds_from_json(doc, "bounds"), _entry(doc, "rng_seed", shape=int),
        dict(meta))


def policy_to_json(policy: PolicyNet):
    return {"layer_dims": list(policy.layer_dims),
            "weights": list(policy.weights), "biases": list(policy.biases),
            "exploration_std": policy.exploration_std}


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
