"""Command-line surface tying the pipeline stages into reproducible runs.

Subcommands: datagen | train-surrogate | identify | tpo | plot.
All randomness is derived from the configured run seed; no wall-clock
seeding. Exit codes: 0 success, 2 usage/config error, 1 runtime error.
"""

import argparse
import copy
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, datagen, identify, serialize, surrogate, tpo
from .plant import ParamBounds, PhysParams, PlantConfig


class UsageError(Exception):
    pass


# grad: Levenberg-Marquardt on the differentiable plant; surrogate: MLP fit
# then refinement through it; sa: annealing baseline; both: sa then grad
IDENTIFY_METHODS = ("grad", "surrogate", "sa", "both")


# Config sections whose defaults are the fields of a stage's config class.
# The CLI sets two fields itself: `seed` from the run seed, `bounds` from
# the bounds section.
SECTION_CLASSES = {"plant": PlantConfig, "surrogate": surrogate.TrainConfig,
                   "refine": identify.RefineConfig,
                   "anneal": identify.AnnealConfig, "tpo": tpo.TpoConfig}
_SET_BY_CLI = ("seed", "bounds")
# The keys no config class backs, with their defaults. The surrogate
# pipeline's and the policy's defaults are read from where they are defined.
_UNBACKED = {
    "datagen": {"n_param_sets": identify.GradPipelineConfig.n_param_sets,
                "n_episodes": 20, "horizon": 50, "truth": None},
    "surrogate": {"hidden_width": identify.GradPipelineConfig.hidden_width},
    "tpo": {"exploration_std": tpo.PolicyNet.exploration_std,
            "goal": [1.2, 0.8]},
    "holdout_fraction": 0.25,
    "output_dir": "out",
    "run_seed": 0,
}


def _class_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.name not in _SET_BY_CLI]


def default_config():
    """A fresh copy of the default config tree."""
    config = copy.deepcopy(_UNBACKED)
    config["bounds"] = serialize.bounds_to_json(ParamBounds())
    for name, cls in SECTION_CLASSES.items():
        config[name] = {**{f.name: f.default for f in _class_fields(cls)},
                        **config.get(name, {})}
    return config


def _check_type(key, default, value):
    """An override keeps the type of its default: an int key takes no float
    or bool, a float key also takes an int, a None default takes anything."""
    if default is None:
        return
    if isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = (isinstance(value, type(default))
              and isinstance(value, bool) == isinstance(default, bool))
    if not ok:
        raise UsageError(f"config key {key} expects a "
                         f"{type(default).__name__}, got {value!r}")


def _merge(base, override, prefix=""):
    out = copy.deepcopy(base)
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
    if "=" not in assignment:
        raise UsageError(f"--set expects key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise UsageError(f"unknown config key: {key}")
        node = node[part]
    if parts[-1] not in node:
        raise UsageError(f"unknown config key: {key}")
    _check_type(key, node[parts[-1]], value)
    node[parts[-1]] = value


def load_config(args):
    config = default_config()
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            user = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid config JSON: {exc}")
        config = _merge(config, user)
    for assignment in args.set or []:
        _apply_set(config, assignment)
    if args.seed is not None:
        config["run_seed"] = args.seed
    if args.out is not None:
        config["output_dir"] = args.out
    return config


def _check_unbacked(config):
    """Range checks of the keys no config class holds."""
    for key in ("n_param_sets", "n_episodes", "horizon"):
        if config["datagen"][key] < 1:
            raise UsageError(f"datagen.{key} must be >= 1, "
                             f"got {config['datagen'][key]}")
    goal = config["tpo"]["goal"]
    if not (len(goal) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) for v in goal)):
        raise UsageError(f"tpo.goal must be 2 finite numbers, got {goal!r}")
    std = config["tpo"]["exploration_std"]
    if not (math.isfinite(std) and std >= 0):
        raise UsageError(f"tpo.exploration_std must be finite and >= 0, got {std!r}")


def build_stages(config):
    """Build every stage's config object, so that a value one of them
    rejects is a usage error before any work starts.

    Returns a dict keyed like SECTION_CLASSES, plus "seeds" and "bounds".
    """
    _check_unbacked(config)
    seeds = _seeds(config)
    name = "bounds"
    try:
        bounds = serialize.bounds_from_json(config["bounds"])
        set_by_cli = {"surrogate": {"seed": seeds["surrogate_train"]},
                      "refine": {"bounds": bounds},
                      "anneal": {"seed": seeds["anneal"], "bounds": bounds},
                      "tpo": {"seed": seeds["tpo"]}}
        stages = {"seeds": seeds, "bounds": bounds}
        for name, cls in SECTION_CLASSES.items():
            values = {f.name: config[name][f.name] for f in _class_fields(cls)}
            if cls is PlantConfig:  # JSON lists to the tuples it holds
                for k in ("link_lengths", "inertias"):
                    values[k] = tuple(values[k]) if values[k] else None
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


def _write_manifest(out, config, artifacts):
    doc = {"config_hash": serialize.config_hash(config),
           "artifacts": {k: str(v) for k, v in artifacts.items()},
           "tool_version": __version__,
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    serialize.dump_json(doc, out / "manifest.json")


def _truth_params(config, seeds, bounds):
    t = config["datagen"]["truth"]
    if t is not None:
        return PhysParams(float(t[0]), float(t[1]), float(t[2]))
    rng = np.random.default_rng(seeds["truth"])
    lows, highs = bounds.lows(), bounds.highs()
    # keep the hidden truth off the bound edges so relative errors behave
    draw = lows + (0.15 + 0.7 * rng.random(3)) * (highs - lows)
    return PhysParams.from_array(draw)


def cmd_datagen(config, stages):
    out = _outdir(config)
    plant_cfg, bounds, seeds = stages["plant"], stages["bounds"], stages["seeds"]
    dg = config["datagen"]
    truth = _truth_params(config, seeds, bounds)
    episodes = datagen.make_synthetic_real(truth, dg["n_episodes"], dg["horizon"],
                                           plant_cfg, seeds["episodes"])
    param_sets = datagen.sample_params(dg["n_param_sets"], bounds, seeds["param_sets"])
    rows = datagen.generate_transition_arrays(episodes, param_sets, plant_cfg)
    stats = datagen.compute_norm_stats(rows)

    serialize.write_dataset(out / "dataset.jsonl", rows, plant_cfg.n_joints)
    serialize.dump_json(serialize.episodes_to_json(episodes), out / "episodes.json")
    serialize.dump_json(serialize.params_to_json(truth), out / "truth.json")
    serialize.dump_json(serialize.norm_stats_to_json(stats), out / "norm_stats.json")
    _write_manifest(out, config, {
        "dataset": out / "dataset.jsonl", "episodes": out / "episodes.json",
        "truth": out / "truth.json", "norm_stats": out / "norm_stats.json"})
    print(f"wrote {len(rows)} transition records to {out / 'dataset.jsonl'}")
    return 0


def cmd_train_surrogate(config, stages, dataset_path):
    out = _outdir(config)
    path = Path(dataset_path if dataset_path else out / "dataset.jsonl")
    if not path.exists():
        raise UsageError(f"dataset not found: {path}")
    plant_cfg, seeds = stages["plant"], stages["seeds"]
    data = serialize.read_dataset(path)
    if data.shape[1] != 3 + 5 * plant_cfg.n_joints:
        raise UsageError("dataset layout does not match configured n_joints")
    stats = datagen.compute_norm_stats(data)
    model = surrogate.init(
        surrogate.default_layer_dims(plant_cfg.n_joints,
                                     config["surrogate"]["hidden_width"]),
        seeds["surrogate_init"], norm_stats=stats, bounds=stages["bounds"])
    model = surrogate.train(model, data, stages["surrogate"])
    serialize.dump_json(serialize.checkpoint_to_json(model), out / "checkpoint.json")
    history = model.training_meta.get("loss_history", [])
    serialize.write_text(out / "train_loss.csv", "step,value\n" + "".join(
        f"{i},{serialize.f17(v)}\n" for i, v in enumerate(history)))
    _write_manifest(out, config, {"checkpoint": out / "checkpoint.json",
                                  "loss_curve": out / "train_loss.csv"})
    print(f"final training loss: {model.training_meta['final_loss']:.3e} "
          f"({model.training_meta['epochs_run']} epochs, "
          f"{model.training_meta['stop_reason']})")
    return 0


def _split_holdout(episodes, fraction):
    n = len(episodes.episodes)
    n_eval = max(1, int(round(n * fraction))) if fraction > 0 else 0
    if n_eval == 0 or n_eval >= n:
        return episodes, episodes
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
    if method not in IDENTIFY_METHODS:
        raise UsageError(f"invalid --method {method!r}")
    if checkpoint_path and method != "surrogate":
        raise UsageError("--checkpoint applies only to --method surrogate")
    out = _outdir(config)
    path = Path(episodes_path if episodes_path else out / "episodes.json")
    if not path.exists():
        raise UsageError(f"episodes file not found: {path}")
    plant_cfg, bounds, seeds = stages["plant"], stages["bounds"], stages["seeds"]
    episodes = serialize.episodes_from_json(serialize.load_json(path))
    train_eps, eval_eps = _split_holdout(episodes, config["holdout_fraction"])
    truth_path = path.parent / "truth.json"
    truth = (serialize.params_from_json(serialize.load_json(truth_path))
             if truth_path.exists() else None)

    reports = []
    if method in ("sa", "both"):
        t0 = time.perf_counter()
        sa_params, _ = identify.anneal_params(train_eps, stages["anneal"], plant_cfg)
        reports.append(_report("sa", sa_params, time.perf_counter() - t0,
                               eval_eps, plant_cfg, truth))
    if method in ("grad", "both"):
        t0 = time.perf_counter()
        grad_params, _ = identify.gauss_newton_params(train_eps, bounds,
                                                      plant_cfg)
        reports.append(_report("grad", grad_params, time.perf_counter() - t0,
                               eval_eps, plant_cfg, truth))
    if method == "surrogate":
        t0 = time.perf_counter()
        if checkpoint_path:
            model = serialize.checkpoint_from_json(serialize.load_json(checkpoint_path))
            candidates = datagen.sample_params(config["datagen"]["n_param_sets"],
                                               bounds, seeds["param_sets"])
            sur_params, _ = identify.refine_params(model, train_eps,
                                                   stages["refine"], candidates)
        else:
            sur_cfg = identify.GradPipelineConfig(
                n_param_sets=config["datagen"]["n_param_sets"],
                sample_seed=seeds["param_sets"],
                train=stages["surrogate"], refine=stages["refine"],
                hidden_width=config["surrogate"]["hidden_width"],
                init_seed=seeds["surrogate_init"])
            sur_params, _ = identify.run_gradient_pipeline(train_eps, plant_cfg,
                                                           sur_cfg)
        reports.append(_report("surrogate", sur_params, time.perf_counter() - t0,
                               eval_eps, plant_cfg, truth))

    serialize.write_text(out / "identify_report.csv",
                         serialize.reports_to_csv(reports))
    serialize.write_text(out / "identify_report.md",
                         serialize.reports_to_markdown(reports))
    best = min(reports, key=lambda r: r.trajectory_error)
    serialize.dump_json({"method": best.method,
                         **serialize.params_to_json(best.params)},
                        out / "identified_params.json")
    if truth:
        recovery = {rep.method: list(rep.param_recovery_error) for rep in reports}
        serialize.dump_json(recovery, out / "recovery_error.json")
    _write_manifest(out, config, {"report_csv": out / "identify_report.csv",
                                  "report_md": out / "identify_report.md",
                                  "identified_params": out / "identified_params.json"})
    print(serialize.reports_to_csv(reports), end="")
    return 0


def cmd_tpo(config, stages, params_path):
    out = _outdir(config)
    path = Path(params_path if params_path else out / "identified_params.json")
    if not path.exists():
        raise UsageError(f"identified parameter file not found: {path}")
    params = serialize.params_from_json(serialize.load_json(path))
    t = config["tpo"]
    plant_cfg = stages["plant"]
    policy = tpo.init_policy(plant_cfg.n_joints, seed=stages["seeds"]["tpo"],
                             exploration_std=t["exploration_std"])

    def show(rep):
        print(f"cycle {rep.cycle}: reward {rep.mean_reward_before:.4f} -> "
              f"{rep.mean_reward_after:.4f}, loss {rep.loss_first:.4f} -> "
              f"{rep.loss_last:.4f}")

    policy, reports = tpo.run_tpo(policy, params, np.array(t["goal"]),
                                  stages["tpo"], plant_cfg, on_cycle=show)
    serialize.write_text(out / "tpo_report.jsonl", "".join(
        serialize.to_canonical_json(dataclasses.asdict(rep)) + "\n"
        for rep in reports))
    serialize.dump_json(serialize.policy_to_json(policy), out / "policy.json")
    _write_manifest(out, config, {"tpo_report": out / "tpo_report.jsonl",
                                  "policy": out / "policy.json"})
    return 0


def cmd_plot(config, csv_path, svg_path):
    out = _outdir(config)
    path = Path(csv_path)
    if not path.exists():
        raise UsageError(f"CSV file not found: {path}")
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].strip() != "step,value":
        raise UsageError("CSV must start with header 'step,value'")
    steps, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            steps.append(float(parts[0]))
            values.append(float(parts[1]))
        except (ValueError, IndexError):
            raise UsageError(f"malformed CSV line {lineno}: {line!r}")
    if not steps:
        raise UsageError("CSV has no data rows")
    svg = serialize.curve_to_svg(steps, values, title=path.name)
    target = Path(svg_path) if svg_path else out / (path.stem + ".svg")
    serialize.write_text(target, svg)
    print(f"wrote {target}")
    return 0


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
    sub.add_parser("datagen", help="generate episodes and transition dataset")
    p_train = sub.add_parser("train-surrogate", help="train the dynamics surrogate")
    p_train.add_argument("--dataset", help="dataset JSONL path")
    p_id = sub.add_parser("identify", help="identify physical parameters")
    p_id.add_argument("--episodes", help="episodes JSON path")
    p_id.add_argument("--checkpoint",
                      help="surrogate checkpoint (skip training); "
                           "--method surrogate only")
    p_id.add_argument("--method", default="both",
                      help=" | ".join(IDENTIFY_METHODS)
                      + " (both: sa then grad)")
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
        if args.command == "datagen":
            return cmd_datagen(config, stages)
        if args.command == "train-surrogate":
            return cmd_train_surrogate(config, stages, args.dataset)
        if args.command == "identify":
            return cmd_identify(config, stages, args.episodes, args.checkpoint,
                                args.method)
        if args.command == "tpo":
            return cmd_tpo(config, stages, args.params)
        if args.command == "plot":
            return cmd_plot(config, args.csv, args.svg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
