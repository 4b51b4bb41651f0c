"""Command-line surface tying the pipeline stages into reproducible runs.

Subcommands: datagen | train-surrogate | identify | tpo | plot. `datagen`
writes the observed episodes; `train-surrogate` builds the surrogate's rows
from their training split and trains it; `identify --method surrogate` only
refines through that checkpoint. `--set a.b=V` is the one-key `--config`
override {"a": {"b": V}}. Each command returns the artifacts it wrote, and
`main` alone records them in manifest.json (plot records none). All
randomness is derived from the configured run seed; no wall-clock seeding.
Exit codes: 0 success, 2 usage, config or input-file error, 1 runtime error.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, datagen, identify, serialize, surrogate, tpo
from .plant import ParamBounds, PhysParams, PlantConfig


class UsageError(Exception):
    pass


# grad: Levenberg-Marquardt on the differentiable plant; surrogate: the same
# through a trained checkpoint; sa: annealing baseline; both: sa then grad
IDENTIFY_METHODS = ("grad", "surrogate", "sa", "both")


# Config sections whose defaults are the fields of a stage's config class.
# The CLI sets two fields itself: `seed` from the run seed, `bounds` from
# the bounds section.
SECTION_CLASSES = {"datagen": datagen.DatagenConfig, "plant": PlantConfig,
                   "surrogate": surrogate.TrainConfig,
                   "refine": identify.RefineConfig,
                   "anneal": identify.AnnealConfig, "tpo": tpo.TpoConfig}
_SET_BY_CLI = ("seed", "bounds")
# The run's own keys, which no stage reads, with their defaults.
_RUN_KEYS = {"holdout_fraction": 0.25, "output_dir": "out", "run_seed": 0}


def _class_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.name not in _SET_BY_CLI]


def default_config():
    """A fresh copy of the default config tree, tuples as lists."""
    config = {**_RUN_KEYS, "bounds": serialize.bounds_to_json(ParamBounds())}
    for name, cls in SECTION_CLASSES.items():
        config[name] = {f.name: list(f.default) if isinstance(f.default, tuple)
                        else f.default for f in _class_fields(cls)}
    return config


def _check_type(key, default, value):
    """An override keeps the type of its default: an int key takes no float
    or bool, a float key takes a finite float or an int, a list key a list
    of as many finite numbers, and a None key None or a list of finite
    numbers."""
    try:
        if isinstance(default, float):
            serialize._entry({key: value}, key)
        elif isinstance(default, list):
            serialize._entry({key: value}, key, shape=(len(default),))
        elif default is None and value is not None:
            serialize._entry({key: value}, key, shape=(None,))
        elif default is not None and type(value) is not type(default):
            raise ValueError(f"{key} must be a {type(default).__name__}, "
                             f"got {value!r}")
    except ValueError as exc:
        raise UsageError(f"config key {exc}")


def _merge(base, override, prefix=""):
    out = dict(base)  # each entry it changes is replaced, none is mutated
    for k, v in override.items():
        key = prefix + k
        if k not in out:
            raise UsageError(f"unknown config key: {key}")
        if isinstance(v, dict) and isinstance(out[k], dict):
            out[k] = _merge(out[k], v, key + ".")
        else:
            _check_type(key, out[k], v)
            out[k] = v
    return out


def _apply_set(config, assignment):
    """`config` with one KEY=VALUE override: a.b=V is the one-key --config
    override {"a": {"b": V}}."""
    if "=" not in assignment:
        raise UsageError(f"--set expects key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return _merge(config, value)


def load_config(args):
    config = default_config()
    if args.config is not None:
        user = _read_input(args.config, "config", serialize.load_json)
        if not isinstance(user, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        config = _merge(config, user)
    for assignment in args.set or []:
        config = _apply_set(config, assignment)
    if args.seed is not None:
        config["run_seed"] = args.seed
    if args.out is not None:
        config["output_dir"] = args.out
    return config


def build_stages(config):
    """Check the run keys and build every stage's config object, so that a
    value one of them rejects is a usage error before any work starts.

    Returns a dict keyed like SECTION_CLASSES, plus "seeds" and "bounds".
    """
    if config["run_seed"] < 0:
        raise UsageError(f"the run seed must be >= 0, got {config['run_seed']}")
    if not 0 <= config["holdout_fraction"] < 1:
        raise UsageError(f"holdout_fraction must be in [0, 1), "
                         f"got {config['holdout_fraction']!r}")
    seeds = _seeds(config)
    name = "bounds"
    try:
        bounds = serialize.bounds_from_json(config, "bounds")
        set_by_cli = {"surrogate": {"seed": seeds["surrogate_train"]},
                      "refine": {"bounds": bounds},
                      "anneal": {"seed": seeds["anneal"], "bounds": bounds},
                      "tpo": {"seed": seeds["tpo"]}}
        stages = {"seeds": seeds, "bounds": bounds}
        for name, cls in SECTION_CLASSES.items():
            # a frozen config holds tuples where its JSON has lists
            values = {f.name: tuple(v) if isinstance(v, list) else v
                      for f in _class_fields(cls)
                      for v in [config[name][f.name]]}
            stages[name] = cls(**values, **set_by_cli.get(name, {}))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise UsageError(f"invalid {name} config: {exc}")
    return stages


def _seeds(config):
    """Fixed-purpose integer seeds derived from the run seed."""
    state = np.random.SeedSequence(int(config["run_seed"])).generate_state(8)
    names = ("truth", "episodes", "param_sets", "surrogate_init",
             "surrogate_train", "anneal", "tpo", "spare")
    return dict(zip(names, (int(s) for s in state)))


def _outdir(config):
    out = Path(config["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc}")
    return out


def _environment():
    """What a timing depends on besides the code: interpreter, numpy and its
    BLAS, core count and the BLAS thread settings (None when unset)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "cpu_count": os.cpu_count(),
            **{k: os.environ.get(k)
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _write_manifest(config, artifacts):
    doc = {"config_hash": serialize.config_hash(config),
           "artifacts": {k: str(v) for k, v in artifacts.items()},
           "tool_version": __version__,
           "environment": _environment(),
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    serialize.dump_json(doc, Path(config["output_dir"]) / "manifest.json")


def _truth_params(stages):
    truth = stages["datagen"].truth
    if truth is None:
        # keep a drawn truth off the bound edges so relative errors behave
        rng = np.random.default_rng(stages["seeds"]["truth"])
        truth = stages["bounds"].from_unit(0.15 + 0.7 * rng.random(3))
    return PhysParams.from_array(truth)


def _read_input(path, what, *readers):
    """The input file at `path` passed through each of readers in turn. A
    missing file or a path that is no file, and a ValueError of a reader
    (JSON that does not parse among them), are usage errors that name the
    file."""
    value = path = Path(path)
    if not path.is_file():
        raise UsageError(f"{path}: no {what} file")
    try:
        for reader in readers:
            value = reader(value)
        return value
    except ValueError as exc:  # read_dataset names the file itself
        message = str(exc)
        raise UsageError(message if message.startswith(f"{path}: ")
                         else f"{path}: {message}")


def _load_episodes(path, plant_cfg):
    """The episodes at `path`; episodes recorded for another number of
    joints than the configured plant's are a usage error."""
    episodes = _read_input(path, "episodes", serialize.load_json,
                           serialize.episodes_from_json)
    if any(ep.actions.shape[1] != plant_cfg.n_joints for ep in episodes.episodes):
        raise UsageError(f"episodes in {path} do not match configured n_joints")
    return episodes


def _load_checkpoint(path, stages):
    """The surrogate checkpoint at `path`; a malformed one, or one trained
    for another number of joints or in other bounds than the configured
    ones, is a usage error."""
    model = _read_input(path, "checkpoint", serialize.load_json,
                        serialize.checkpoint_from_json)
    n = stages["plant"].n_joints
    if model.layer_dims[0] != 3 + 3 * n or model.layer_dims[-1] != 2 * n:
        raise UsageError("checkpoint layout does not match configured n_joints")
    if model.bounds != stages["bounds"]:
        raise UsageError("checkpoint was trained in other bounds than "
                         "the configured ones")
    return model


def _param_sets(stages):
    """The sampled parameter sets the surrogate's training rows are built
    over, and the candidates its refinement starts from."""
    return datagen.sample_params(stages["datagen"].n_param_sets,
                                 stages["bounds"], stages["seeds"]["param_sets"])


def cmd_datagen(config, stages):
    out = _outdir(config)
    seeds, dg = stages["seeds"], stages["datagen"]
    truth = _truth_params(stages)
    episodes = datagen.make_synthetic_real(truth, dg.n_episodes, dg.horizon,
                                           stages["plant"], seeds["episodes"])
    serialize.dump_json(serialize.episodes_to_json(episodes), out / "episodes.json")
    serialize.dump_json(serialize.params_to_json(truth), out / "truth.json")
    print(f"wrote {len(episodes.episodes)} episodes to {out / 'episodes.json'}")
    return {"episodes": out / "episodes.json", "truth": out / "truth.json"}


def cmd_train_surrogate(config, stages, dataset_path):
    """Train on an outside dataset, or on rows built from the training split
    of the episodes, the split `identify` refines on."""
    out = _outdir(config)
    plant_cfg = stages["plant"]
    artifacts = {}
    if dataset_path:
        data = _read_input(dataset_path, "dataset", serialize.read_dataset)
        if data.shape[1] != 3 + 5 * plant_cfg.n_joints:
            raise UsageError("dataset layout does not match configured n_joints")
        # a dataset records no bounds: its rows must lie in the configured
        # ones, which the network's input layer scales (f, p, d) by
        lows, highs = stages["bounds"].lows(), stages["bounds"].highs()
        for k, name in enumerate("fpd"):
            col = data[:, k]
            if len(col) and not lows[k] <= col.min() <= col.max() <= highs[k]:
                raise UsageError(f"dataset rows have {name} outside the "
                                 f"configured bounds [{lows[k]}, {highs[k]}]")
        _check_row_count(data, dataset_path)
    else:
        episodes_path = out / "episodes.json"
        train_eps, _ = _split_holdout(_load_episodes(episodes_path, plant_cfg),
                                      config["holdout_fraction"])
        data = datagen.generate_transition_arrays(
            train_eps, _param_sets(stages), plant_cfg)
        _check_row_count(data, f"the training split of {episodes_path}")
        artifacts["dataset"] = out / "dataset.jsonl"
        serialize.write_dataset(artifacts["dataset"], data, plant_cfg.n_joints)
    model = surrogate.init(
        surrogate.default_layer_dims(plant_cfg.n_joints,
                                     stages["surrogate"].hidden_width),
        stages["seeds"]["surrogate_init"],
        norm_stats=datagen.compute_norm_stats(data), bounds=stages["bounds"])
    model = surrogate.train(model, data, stages["surrogate"])
    serialize.dump_json(serialize.norm_stats_to_json(model.norm_stats),
                        out / "norm_stats.json")
    serialize.dump_json(serialize.checkpoint_to_json(model), out / "checkpoint.json")
    history = model.training_meta["loss_history"]
    serialize.write_text(out / "train_loss.csv", "step,value\n" + "".join(
        f"{i},{serialize.f17(v)}\n" for i, v in enumerate(history)))
    print(f"final training loss: {model.training_meta['final_loss']:.3e} "
          f"({model.training_meta['epochs_run']} epochs, "
          f"{model.training_meta['stop_reason']})")
    return {**artifacts, "norm_stats": out / "norm_stats.json",
            "checkpoint": out / "checkpoint.json",
            "loss_curve": out / "train_loss.csv"}


def _check_row_count(data, source):
    """Fewer than the two rows the normalization statistics need, read from
    a dataset file or built from episodes, are a usage error."""
    if len(data) < 2:
        raise UsageError(f"{source}: {len(data)} training row, and the "
                         "normalization statistics need at least 2")


def _split_holdout(episodes, fraction):
    """(fit, held-out) episodes: the last round(n * fraction) episodes, at
    least one, are held out. With fraction 0 both are every episode; a
    holdout that leaves no episode to fit is a usage error."""
    if fraction == 0:
        return episodes, episodes
    n = len(episodes.episodes)
    n_eval = max(1, int(round(n * fraction)))
    if n_eval >= n:
        raise UsageError(f"holdout_fraction {fraction} of {n} episodes "
                         "leaves none to fit")
    train = datagen.EpisodeSet(episodes.episodes[:n - n_eval], episodes.source)
    evaln = datagen.EpisodeSet(episodes.episodes[n - n_eval:], episodes.source)
    return train, evaln


def _report(method, params, seconds, eval_eps, plant_cfg, truth):
    err = identify.evaluate_params(params, eval_eps, plant_cfg)
    return identify.IdentifyReport(
        method, params, err.trajectory_error, err.rotation_error,
        err.translation_error, seconds,
        identify.recovery_error(params, truth) if truth else None)


def cmd_identify(config, stages, episodes_path, checkpoint_path, method):
    if checkpoint_path and method != "surrogate":
        raise UsageError("--checkpoint applies only to --method surrogate")
    out = _outdir(config)
    path = Path(episodes_path if episodes_path else out / "episodes.json")
    plant_cfg = stages["plant"]
    episodes = _load_episodes(path, plant_cfg)
    train_eps, eval_eps = _split_holdout(episodes, config["holdout_fraction"])
    truth_path = path.parent / "truth.json"
    truth = (_read_input(truth_path, "truth", serialize.load_json,
                         serialize.params_from_json)
             if truth_path.exists() else None)

    # looked up when they run, so that a wrapper set on identify's functions
    # (perfbench's tracer) sees them; the surrogate times its checkpoint load
    routes = {
        "sa": lambda: identify.anneal_params(train_eps, stages["anneal"], plant_cfg),
        "grad": lambda: identify.gauss_newton_params(train_eps, stages["bounds"],
                                                     plant_cfg),
        "surrogate": lambda: identify.refine_params(
            _load_checkpoint(checkpoint_path or out / "checkpoint.json", stages),
            train_eps, stages["refine"], _param_sets(stages)),
    }
    reports = []
    for name in ("sa", "grad") if method == "both" else (method,):
        t0 = time.perf_counter()
        params, _ = routes[name]()
        reports.append(_report(name, params, time.perf_counter() - t0,
                               eval_eps, plant_cfg, truth))

    artifacts = {"report_csv": out / "identify_report.csv",
                 "report_md": out / "identify_report.md",
                 "identified_params": out / "identified_params.json"}
    serialize.write_text(artifacts["report_csv"], serialize.reports_to_csv(reports))
    serialize.write_text(artifacts["report_md"], serialize.reports_to_markdown(reports))
    best = min(reports, key=lambda r: r.trajectory_error)
    serialize.dump_json({"method": best.method,
                         **serialize.params_to_json(best.params)},
                        artifacts["identified_params"])
    if truth:
        recovery = {rep.method: list(rep.param_recovery_error) for rep in reports}
        artifacts["recovery_error"] = out / "recovery_error.json"
        serialize.dump_json(recovery, artifacts["recovery_error"])
    print(serialize.reports_to_csv(reports), end="")
    return artifacts


def cmd_tpo(config, stages, params_path):
    out = _outdir(config)
    params = _read_input(params_path or out / "identified_params.json",
                         "identified parameter", serialize.load_json,
                         serialize.params_from_json)
    cfg, plant_cfg = stages["tpo"], stages["plant"]
    policy = tpo.init_policy(plant_cfg.n_joints, seed=stages["seeds"]["tpo"],
                             exploration_std=cfg.exploration_std)

    def show(rep):
        print(f"cycle {rep.cycle}: reward {rep.mean_reward_before:.4f} -> "
              f"{rep.mean_reward_after:.4f}, loss {rep.loss_first:.4f} -> "
              f"{rep.loss_last:.4f}")

    policy, reports = tpo.run_tpo(policy, params, np.array(cfg.goal), cfg,
                                  plant_cfg, on_cycle=show)
    serialize.write_text(out / "tpo_report.jsonl", "".join(
        serialize.to_canonical_json(dataclasses.asdict(rep)) + "\n"
        for rep in reports))
    serialize.dump_json(serialize.policy_to_json(policy), out / "policy.json")
    return {"tpo_report": out / "tpo_report.jsonl", "policy": out / "policy.json"}


def _curve_from_csv(text):
    """The steps and values of a step,value CSV: at least one row of two
    finite numbers."""
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "step,value":
        raise ValueError("CSV must start with header 'step,value'")
    steps, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            steps.append(float(parts[0]))
            values.append(float(parts[1]))
        except (ValueError, IndexError):
            raise ValueError(f"malformed CSV line {lineno}: {line!r}")
        if not (math.isfinite(steps[-1]) and math.isfinite(values[-1])):
            raise ValueError(f"non-finite number in CSV line {lineno}: {line!r}")
    if not steps:
        raise ValueError("CSV has no data rows")
    return steps, values


def cmd_plot(config, csv_path, svg_path):
    out = _outdir(config)
    path = Path(csv_path)
    steps, values = _read_input(path, "CSV", Path.read_text, _curve_from_csv)
    svg = serialize.curve_to_svg(steps, values, title=path.name)
    target = Path(svg_path) if svg_path else out / (path.stem + ".svg")
    serialize.write_text(target, svg)
    print(f"wrote {target}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="armcal",
        description="System identification of a PD-controlled arm: "
                    "Gauss-Newton on the differentiable plant or an MLP "
                    "surrogate vs simulated annealing, plus preference-based "
                    "policy fine-tuning.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="run seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (dotted keys)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("datagen", help="generate observed episodes from a hidden truth")
    p_train = sub.add_parser("train-surrogate", help="build the transition "
                             "dataset from the training split of the "
                             "episodes, train the surrogate")
    p_train.add_argument("--dataset", help="train on this dataset JSONL instead")
    p_id = sub.add_parser("identify", help="identify physical parameters")
    p_id.add_argument("--episodes", help="episodes JSON path")
    p_id.add_argument("--checkpoint",
                      help="surrogate checkpoint to refine through (default: "
                           "<out>/checkpoint.json); --method surrogate only")
    p_id.add_argument("--method", default="both", choices=IDENTIFY_METHODS,
                      help="both: sa then grad")
    p_tpo = sub.add_parser("tpo", help="preference fine-tuning in the identified plant")
    p_tpo.add_argument("--params", help="identified parameters JSON path")
    p_plot = sub.add_parser("plot", help="render a step,value CSV as an SVG")
    p_plot.add_argument("csv", help="input CSV path")
    p_plot.add_argument("--svg", help="output SVG path")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = load_config(args)
        stages = build_stages(config)
        # looked up when called, as the identify routes are
        command = {
            "datagen": lambda: cmd_datagen(config, stages),
            "train-surrogate": lambda: cmd_train_surrogate(config, stages,
                                                           args.dataset),
            "identify": lambda: cmd_identify(config, stages, args.episodes,
                                             args.checkpoint, args.method),
            "tpo": lambda: cmd_tpo(config, stages, args.params),
            "plot": lambda: cmd_plot(config, args.csv, args.svg),
        }[args.command]
        artifacts = command()
        if artifacts is not None:  # plot records no manifest
            _write_manifest(config, artifacts)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
