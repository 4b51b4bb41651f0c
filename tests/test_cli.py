"""End-to-end CLI tests: exit codes, artifact formats, and reproducibility.

Runs use deliberately tiny configurations so the full command chain stays
fast; full-scale behavior is covered by the acceptance suite.
"""

import contextlib
import dataclasses
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armcal import cli, serialize
from armcal.cli import default_config, main

FAST = [
    "--set", "datagen.n_param_sets=3",
    "--set", "datagen.n_episodes=4",
    "--set", "datagen.horizon=6",
    "--set", "surrogate.max_epochs=3",
    "--set", "surrogate.hidden_width=8",
    "--set", "refine.max_steps=5",
    "--set", "anneal.steps=5",
    "--set", "tpo.m=2",
    "--set", "tpo.rollouts_per_cycle=5",
    "--set", "tpo.epochs_per_cycle=2",
    "--set", "tpo.cycles=2",
    "--set", "tpo.rollout_horizon=3",
]


# every dotted leaf key of the default config tree, sorted
DEFAULT_LEAF_KEYS = [
    "anneal.cooling_gamma", "anneal.initial_temperature",
    "anneal.proposal_frac", "anneal.steps",
    "bounds.d", "bounds.f", "bounds.p",
    "datagen.horizon", "datagen.n_episodes", "datagen.n_param_sets",
    "datagen.truth",
    "holdout_fraction", "output_dir",
    "plant.dt", "plant.friction_smoothing", "plant.inertias",
    "plant.link_lengths", "plant.n_joints", "plant.obs_noise_std",
    "plant.substeps_per_action",
    "refine.convergence_tol", "refine.max_steps",
    "run_seed",
    "surrogate.batch_size", "surrogate.hidden_width",
    "surrogate.learning_rate", "surrogate.max_epochs",
    "tpo.cycles", "tpo.epochs_per_cycle", "tpo.exploration_std", "tpo.goal",
    "tpo.learning_rate", "tpo.m", "tpo.rollout_horizon",
    "tpo.rollouts_per_cycle",
]


def run(out, *args, seed=0):
    return main(["--out", str(out), "--seed", str(seed), *FAST, *args])


def loaded_hash(*args):
    """The hash of the config that these global options load."""
    args = cli.build_parser().parse_args([*args, "datagen"])
    return serialize.config_hash(cli.load_config(args))


class TestExitCodes:
    def test_usage_error_unknown_config_key(self, tmp_path):
        assert main(["--out", str(tmp_path), "--set", "nope.x=1",
                     "datagen"]) == 2

    def test_usage_error_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.json"), "datagen"]) == 2

    def test_usage_error_invalid_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "datagen"]) == 2

    @pytest.mark.parametrize("doc", ["[1,2]", '"x"', "3"])
    def test_usage_error_config_file_not_an_object(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "datagen"]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "episodes.json").exists()

    def test_usage_error_missing_inputs(self, tmp_path):
        assert run(tmp_path, "train-surrogate") == 2  # no episodes yet
        assert run(tmp_path, "identify") == 2  # no episodes yet
        assert run(tmp_path, "tpo") == 2  # no identified params yet
        assert run(tmp_path, "plot", str(tmp_path / "none.csv")) == 2

    def test_usage_error_bad_method(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert main(["--out", str(tmp_path), *FAST, "identify",
                     "--method", "quantum"]) == 2

    def test_usage_error_bad_bounds(self, tmp_path):
        assert main(["--out", str(tmp_path), "--set", "bounds.f=[5.0,1.0]",
                     "datagen"]) == 2

    def test_runtime_error_is_exit_1(self, tmp_path):
        # valid config and inputs, but an artifact cannot be written: its
        # path is a directory
        (tmp_path / "episodes.json").mkdir()
        assert run(tmp_path, "datagen") == 1
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize("assignment", [
        "datagen.truth.x=1", "tpo.goal.x=1", "output_dir.x=1"])
    def test_usage_error_key_below_a_leaf(self, tmp_path, assignment):
        assert main(["--out", str(tmp_path), *FAST, "--set", assignment,
                     "datagen"]) == 2

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize("assignment", [
        'datagen.horizon="abc"',  # a string for an int
        "datagen.horizon=5.0",  # a float for an int
        "tpo.m=true",  # a bool for an int
        'anneal.steps="400"',
        "refine.convergence_tol=false",  # a bool for a float
        "output_dir=3",  # an int for a string
        "tpo.goal=1.0",  # a number for a list
    ])
    def test_usage_error_wrong_type(self, tmp_path, assignment):
        assert main(["--out", str(tmp_path), *FAST, "--set", assignment,
                     "datagen"]) == 2

    def test_usage_error_wrong_type_in_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datagen": {"horizon": 2.5}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "datagen"]) == 2

    @pytest.mark.parametrize("assignment", [
        "tpo.exploration_std=0",  # TPO's beta is 1 / exploration_std ** 2
        "surrogate.batch_size=0",  # TrainConfig
        "anneal.cooling_gamma=1",  # AnnealConfig
        "plant.dt=0",  # PlantConfig
        "tpo.m=0",  # TpoConfig: no preference pairs
        "tpo.rollout_horizon=0",  # TpoConfig
        # DatagenConfig, and TpoConfig's goal and exploration noise
        "datagen.n_episodes=-3",
        "datagen.horizon=0",
        "datagen.n_param_sets=0",
        "tpo.goal=[1.2,0.8,0.0]",
        "tpo.goal=[1.2,NaN]",
        "tpo.exploration_std=-0.1",
        "tpo.learning_rate=0",  # TpoConfig: the loss would rise
        "tpo.learning_rate=-1",
        "tpo.epochs_per_cycle=0",  # TpoConfig: no loss to report
        "tpo.epochs_per_cycle=-1",
        "tpo.cycles=0",  # TpoConfig: no cycle to report
        "tpo.cycles=-2",
        "refine.max_steps=0",  # RefineConfig: no LM iteration
        "refine.convergence_tol=-1",
        "holdout_fraction=1.5",
        "holdout_fraction=1",
        "holdout_fraction=-0.25",
        "datagen.truth=[1.0,2.0]",
        'datagen.truth={"x":1}',
        "datagen.truth=[1,NaN,3]",
        "datagen.truth=[1.0,-2.0,3.0]",
        'datagen.truth=[1.0,"2",3.0]',
        # a float key takes no NaN or infinity
        "tpo.exploration_std=NaN",
        "refine.convergence_tol=NaN",
        "anneal.initial_temperature=Infinity",
        "anneal.proposal_frac=0",  # AnnealConfig: SA would never move
        "anneal.proposal_frac=-1",
        "plant.dt=NaN",
        "surrogate.max_epochs=0",  # TrainConfig: no loss to report
        # PlantConfig: geometry must be finite
        "plant.link_lengths=[1,NaN]",
        "plant.inertias=[1,Infinity]",
        # only null means unit links: not an empty list, nor a non-list
        "plant.link_lengths=[]",
        "plant.inertias=[]",
        "plant.link_lengths=0",
        "plant.inertias=false",
        'plant.link_lengths="ab"',
        # a bool is no length or inertia, though True compares as 1
        "plant.link_lengths=[true,true]",
        "plant.inertias=[true,1.0]",
        'plant.inertias=[1,"2"]',  # a string is no number
        "datagen.truth=[true,300,20]",
        "surrogate.hidden_width=0",  # no layer to build
        "run_seed=-1",  # no seed sequence to derive
        "bounds.f=[-5,10]",  # ParamBounds: its points must be valid params
        # two real numbers per parameter: no third one dropped, no bool as 1
        "bounds.f=[0,10,99]",
        "bounds.f=[true,10]",
    ])
    def test_usage_error_value_a_stage_rejects(self, tmp_path, assignment):
        # every stage's config is built at load, whatever the command
        assert main(["--out", str(tmp_path), *FAST, "--set", assignment,
                     "datagen"]) == 2
        assert not (tmp_path / "episodes.json").exists()

class TestDatagen:
    def test_artifacts_and_row_count(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "episodes.json", "manifest.json", "truth.json"]
        # the surrogate's training rows are built by train-surrogate
        assert run(tmp_path, "train-surrogate") == 0
        assert (tmp_path / "norm_stats.json").exists()
        lines = (tmp_path / "dataset.jsonl").read_text().splitlines()
        # param sets x training episodes (4, one held out) x horizon
        assert len(lines) == 3 * 3 * 6
        first = json.loads(lines[0])
        assert tuple(first.keys()) == serialize.DATASET_KEYS

    def test_default_scale_row_count(self, tmp_path):
        # spec-scale rows: 50 param sets x 15 training episodes (20, five
        # held out) x 50 steps = 37,500 records; only the row count matters
        # here, so trim nothing but the training
        base = ["--out", str(tmp_path), "--seed", "0"]
        assert main([*base, "datagen"]) == 0
        assert main([*base, "--set", "surrogate.max_epochs=1",
                     "train-surrogate"]) == 0
        n = sum(1 for _ in open(tmp_path / "dataset.jsonl"))
        assert n == 50 * 15 * 50

    def test_truth_within_bounds(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        doc = json.loads((tmp_path / "truth.json").read_text())
        assert 0.0 <= doc["f"] <= 10.0
        assert 1.0 <= doc["p"] <= 500.0
        assert 0.1 <= doc["d"] <= 50.0

    def test_explicit_truth_respected(self, tmp_path):
        assert main(["--out", str(tmp_path), *FAST,
                     "--set", "datagen.truth=[2.0,100.0,5.0]",
                     "datagen"]) == 0
        doc = json.loads((tmp_path / "truth.json").read_text())
        assert [doc["f"], doc["p"], doc["d"]] == [2.0, 100.0, 5.0]

    def test_manifest_hash_matches_config(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert len(man["config_hash"]) == 64
        assert set(man["artifacts"]) == {"episodes", "truth"}
        assert run(tmp_path, "train-surrogate") == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert {"dataset", "norm_stats", "checkpoint"} <= set(man["artifacts"])

    def test_manifest_records_the_environment(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "cpu_count",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] >= 1


class TestManifest:
    @staticmethod
    def written(out, before):
        """The files in out that are new or rewritten since before: a rewrite
        replaces the file, so its inode or mtime changes."""
        after = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                 for p in out.iterdir()}
        return after, {n for n in after if before.get(n) != after[n]}

    def test_artifacts_are_the_files_a_command_writes(self, tmp_path):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        assert run(elsewhere, "datagen") == 0
        (elsewhere / "truth.json").unlink()  # so no recovery error
        files = {}
        for command in (["datagen"], ["train-surrogate"], ["identify"],
                        ["identify", "--method", "surrogate"], ["tpo"],
                        ["train-surrogate", "--dataset", str(out / "dataset.jsonl")],
                        ["identify", "--method", "grad", "--episodes",
                         str(elsewhere / "episodes.json")]):
            assert run(out, *command) == 0, command
            files, written = self.written(out, files)
            artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
            assert "manifest.json" in written, command
            assert {Path(p).parent for p in artifacts.values()} == {out}
            assert {Path(p).name for p in artifacts.values()} == \
                written - {"manifest.json"}, command
        # plot records no manifest, and a failing command leaves none
        assert run(out, "plot", str(out / "train_loss.csv")) == 0
        assert run(out, "train-surrogate", "--dataset",
                   str(out / "identify_report.csv")) == 2
        assert self.written(out, files)[1] == {"train_loss.svg"}
        assert run(tmp_path / "fresh", "identify") == 2
        assert not (tmp_path / "fresh" / "manifest.json").exists()


class TestTrainSurrogate:
    def test_outside_dataset(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(a, "datagen") == 0
        assert run(a, "train-surrogate") == 0
        # an outside file trains without episodes, and writes no dataset
        assert run(b, "train-surrogate", "--dataset", str(a / "dataset.jsonl")) == 0
        assert not (b / "dataset.jsonl").exists()
        for name in ("checkpoint.json", "norm_stats.json", "train_loss.csv"):
            assert (b / name).read_bytes() == (a / name).read_bytes()
        # a one-joint layout against the configured two joints
        one_joint = tmp_path / "one_joint.jsonl"
        serialize.write_dataset(one_joint, np.ones((4, 3 + 5)), 1)
        assert run(b, "train-surrogate", "--dataset", str(one_joint)) == 2
        assert run(b, "train-surrogate", "--dataset",
                   str(tmp_path / "none.jsonl")) == 2

    def test_outside_dataset_must_lie_in_the_bounds(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(a, "datagen") == 0
        assert run(a, "train-surrogate") == 0
        # rows built in the default bounds (f up to 10) against f in [0, 1]
        assert run(b, "--set", "bounds.f=[0,1]", "train-surrogate", "--dataset",
                   str(a / "dataset.jsonl")) == 2
        assert "f outside the configured bounds" in capsys.readouterr().err
        assert not (b / "checkpoint.json").exists()

    def test_one_row_dataset_is_a_usage_error(self, tmp_path, capsys):
        # the normalization statistics need two rows; one is an input error
        # that names the file, and no artifact is written
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(a, "datagen") == 0
        assert run(a, "train-surrogate") == 0
        one_line = tmp_path / "one-line.jsonl"
        one_line.write_text((a / "dataset.jsonl").read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert run(b, "train-surrogate", "--dataset", str(one_line)) == 2
        assert f"{one_line}: 1 training row" in capsys.readouterr().err
        assert list(b.iterdir()) == []

    def test_one_row_training_split_is_a_usage_error(self, tmp_path, capsys):
        # one episode of one step fits, under one parameter set: one row
        one_row = ["--set", "datagen.n_episodes=2", "--set", "datagen.horizon=1",
                   "--set", "datagen.n_param_sets=1"]
        assert run(tmp_path, *one_row, "datagen") == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(tmp_path, *one_row, "train-surrogate") == 2
        err = capsys.readouterr().err
        assert f"training split of {tmp_path / 'episodes.json'}: 1 training row" \
            in err, err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rows_come_from_the_training_split(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "train-surrogate") == 0
        episodes = serialize.episodes_from_json(
            json.loads((tmp_path / "episodes.json").read_text())).episodes
        data = serialize.read_dataset(tmp_path / "dataset.jsonl")
        starts = {tuple(row) for row in data[:, 3:3 + 4]}  # (q, qd), 2 joints

        def states(eps):
            return {tuple(np.concatenate([ep.q[i], ep.qd[i]]))
                    for ep in eps for i in range(ep.horizon)}

        # holdout_fraction 0.25 of 4 episodes: the last one is held out
        assert states(episodes[:3]) == starts
        assert not states(episodes[3:]) & starts


class TestPipeline:
    def test_full_chain(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "train-surrogate") == 0
        assert (tmp_path / "checkpoint.json").exists()
        csv = (tmp_path / "train_loss.csv").read_text().splitlines()
        assert csv[0] == "step,value"
        assert len(csv) == 1 + 3  # header + max_epochs rows

        assert run(tmp_path, "identify") == 0
        report = (tmp_path / "identify_report.csv").read_text().splitlines()
        assert report[0] == serialize.REPORT_HEADER
        methods = [line.split(",")[0] for line in report[1:]]
        assert methods == ["sa", "grad"]
        assert (tmp_path / "identified_params.json").exists()
        assert (tmp_path / "recovery_error.json").exists()
        doc = json.loads((tmp_path / "identified_params.json").read_text())
        assert doc["method"] in ("sa", "grad")

        assert run(tmp_path, "tpo") == 0
        tpo_lines = (tmp_path / "tpo_report.jsonl").read_text().splitlines()
        assert len(tpo_lines) == 2  # one JSON line per cycle
        rep = json.loads(tpo_lines[0])
        assert set(rep) == {"cycle", "mean_reward_before", "mean_reward_after",
                            "loss_first", "loss_last"}
        assert (tmp_path / "policy.json").exists()

        assert run(tmp_path, "plot", str(tmp_path / "train_loss.csv")) == 0
        assert (tmp_path / "train_loss.svg").exists()

    def test_identify_single_methods(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert main(["--out", str(tmp_path), "--seed", "0", *FAST,
                     "identify", "--method", "sa"]) == 0
        report = (tmp_path / "identify_report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in report[1:]] == ["sa"]
        assert main(["--out", str(tmp_path), "--seed", "0", *FAST,
                     "identify", "--method", "grad"]) == 0
        report = (tmp_path / "identify_report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in report[1:]] == ["grad"]
        assert run(tmp_path, "train-surrogate") == 0
        assert main(["--out", str(tmp_path), "--seed", "0", *FAST,
                     "identify", "--method", "surrogate"]) == 0
        report = (tmp_path / "identify_report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in report[1:]] == ["surrogate"]

    def test_identify_with_checkpoint_skips_training(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "train-surrogate") == 0
        assert main(["--out", str(tmp_path), "--seed", "0", *FAST,
                     "identify", "--method", "surrogate",
                     "--checkpoint", str(tmp_path / "checkpoint.json")]) == 0
        report = (tmp_path / "identify_report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in report[1:]] == ["surrogate"]
        assert (tmp_path / "identified_params.json").exists()

    def test_default_checkpoint_is_the_trained_one(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "train-surrogate") == 0
        params = tmp_path / "identified_params.json"
        assert run(tmp_path, "identify", "--method", "surrogate") == 0
        implicit = params.read_bytes()
        params.unlink()
        assert run(tmp_path, "identify", "--method", "surrogate", "--checkpoint",
                   str(tmp_path / "checkpoint.json")) == 0
        assert params.read_bytes() == implicit

    def test_surrogate_needs_a_matching_checkpoint(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        # identify never trains: no checkpoint yet, or a missing one
        assert run(tmp_path, "identify", "--method", "surrogate") == 2
        assert run(tmp_path, "identify", "--method", "surrogate", "--checkpoint",
                   str(tmp_path / "none.json")) == 2
        assert not (tmp_path / "identify_report.csv").exists()
        # a one-joint checkpoint against the configured two joints
        one_joint = tmp_path / "one_joint"
        assert main(["--out", str(one_joint), *FAST, "--set", "plant.n_joints=1",
                     "datagen"]) == 0
        assert main(["--out", str(one_joint), *FAST, "--set", "plant.n_joints=1",
                     "train-surrogate"]) == 0
        assert run(tmp_path, "identify", "--method", "surrogate", "--checkpoint",
                   str(one_joint / "checkpoint.json")) == 2
        assert not (tmp_path / "identify_report.csv").exists()
        # a checkpoint trained in the default bounds, refined in others
        assert run(tmp_path, "train-surrogate") == 0
        assert run(tmp_path, "--set", "bounds.f=[0,40]", "--set",
                   "bounds.p=[300,900]", "identify", "--method", "surrogate") == 2
        assert not (tmp_path / "identify_report.csv").exists()

    @pytest.mark.parametrize("field, edit", [
        ("activation", lambda doc: doc.update(activation="relu")),
        ("weights.1 has shape", lambda doc: doc["weights"][1].pop()),  # a row short
        ("bias layers", lambda doc: doc["biases"].pop()),
        # two entries short in both vectors, then in std alone
        ("norm_stats.mean", lambda doc: doc["norm_stats"].update(
            {k: v[:-2] for k, v in doc["norm_stats"].items()})),
        ("norm_stats.std", lambda doc: doc["norm_stats"]["std"].pop()),
        ("'weights'", lambda doc: doc.pop("weights")),
        ("'bounds'", lambda doc: doc.pop("bounds")),
        ("'norm_stats.mean'", lambda doc: doc["norm_stats"].pop("mean")),
        ("training_meta", lambda doc: doc.update(training_meta=[1])),
        # json writes and reads NaN and Infinity
        ("weights.0 holds a non-finite value",
         lambda doc: doc["weights"][0][0].__setitem__(0, float("nan"))),
        ("norm_stats.mean holds a non-finite value",
         lambda doc: doc["norm_stats"]["mean"].__setitem__(0, float("inf"))),
        ("bounds.f", lambda doc: doc["bounds"].update(f=[0, 10, 99])),
    ])
    def test_surrogate_rejects_a_malformed_checkpoint(self, tmp_path, capsys,
                                                      field, edit):
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "train-surrogate") == 0
        ckpt = tmp_path / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(tmp_path, "identify", "--method", "surrogate") == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "identified_params.json").exists()

    def test_tpo_rejects_zero_exploration_noise(self, tmp_path, capsys):
        # TPO's beta is 1 / exploration_std ** 2: zero noise is a usage error
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "identify", "--method", "grad") == 0
        capsys.readouterr()
        assert run(tmp_path, "--set", "tpo.exploration_std=0", "tpo") == 2
        assert ("invalid tpo config: exploration_std must be positive"
                in capsys.readouterr().err)
        assert not (tmp_path / "tpo_report.jsonl").exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
    def test_tpo_rejects_noise_whose_square_underflows(self, tmp_path, capsys,
                                                       sigma):
        # sigma^2 is 0.0 at 1e-200 and subnormal at 1e-160, where beta is inf
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "identify", "--method", "grad") == 0
        capsys.readouterr()
        assert run(tmp_path, "--set", f"tpo.exploration_std={sigma}", "tpo") == 2
        assert "1/exploration_std^2 finite" in capsys.readouterr().err
        assert not (tmp_path / "tpo_report.jsonl").exists()

    @pytest.mark.parametrize("frac", ["0", "-1"])
    def test_sa_rejects_a_proposal_frac_that_is_not_positive(self, tmp_path,
                                                            capsys, frac):
        assert run(tmp_path, "datagen") == 0
        capsys.readouterr()
        assert run(tmp_path, "--set", f"anneal.proposal_frac={frac}",
                   "identify", "--method", "sa") == 2
        assert "invalid anneal config" in capsys.readouterr().err
        assert not (tmp_path / "identified_params.json").exists()

    def test_holdout_must_leave_an_episode_to_fit(self, tmp_path):
        one = ["--set", "datagen.n_episodes=1"]
        assert run(tmp_path, *one, "datagen") == 0
        # holdout_fraction 0.25 of one episode would hold out the only one
        assert run(tmp_path, *one, "identify", "--method", "grad") == 2
        assert not (tmp_path / "identify_report.csv").exists()
        assert run(tmp_path, *one, "train-surrogate") == 2
        assert not (tmp_path / "dataset.jsonl").exists()
        # with no holdout, the fit is scored on the episodes it fitted
        assert run(tmp_path, *one, "--set", "holdout_fraction=0",
                   "identify", "--method", "grad") == 0

    def test_episodes_need_the_configured_n_joints(self, tmp_path):
        assert main(["--out", str(tmp_path), *FAST, "--set", "plant.n_joints=3",
                     "datagen"]) == 0
        # against the default two joints
        assert run(tmp_path, "identify") == 2
        assert not (tmp_path / "identify_report.csv").exists()
        assert run(tmp_path, "train-surrogate") == 2
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_checkpoint_needs_surrogate_method(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        assert run(tmp_path, "train-surrogate") == 0
        for method in ("grad", "sa", "both"):
            assert main(["--out", str(tmp_path), "--seed", "0", *FAST,
                         "identify", "--method", method, "--checkpoint",
                         str(tmp_path / "checkpoint.json")]) == 2


class TestDeterminism:
    CSV_TIME_COL = 4

    def strip_volatile(self, text, name):
        # the wall-clock column is measurement, not computation
        if name == "identify_report.csv":
            return "\n".join(",".join(line.split(",")[:self.CSV_TIME_COL])
                             for line in text.splitlines())
        if name == "identify_report.md":
            return "\n".join(line.rsplit("|", 2)[0]
                             for line in text.splitlines())
        return text

    def test_rerun_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(out, "datagen", seed=7) == 0
            assert run(out, "train-surrogate", seed=7) == 0
            assert run(out, "identify", seed=7) == 0
            assert run(out, "tpo", seed=7) == 0
            assert run(out, "plot", str(out / "train_loss.csv"), seed=7) == 0
        for name in ("dataset.jsonl", "episodes.json", "truth.json",
                     "norm_stats.json", "checkpoint.json", "train_loss.csv",
                     "identified_params.json", "recovery_error.json",
                     "identify_report.md", "identify_report.csv",
                     "tpo_report.jsonl", "policy.json", "train_loss.svg"):
            a = (outs[0] / name).read_text()
            b = (outs[1] / name).read_text()
            assert self.strip_volatile(a, name) == \
                self.strip_volatile(b, name), f"artifact differs: {name}"

    def test_different_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, 1), (b, 2)):
            assert run(out, "datagen", seed=seed) == 0
            assert run(out, "train-surrogate", seed=seed) == 0
        assert (a / "dataset.jsonl").read_text() != \
            (b / "dataset.jsonl").read_text()

    def test_seed_zero_and_unset_agree(self, tmp_path):
        # the default run seed is 0; --seed 0 must reproduce it
        a, b = tmp_path / "a", tmp_path / "b"
        for command in ("datagen", "train-surrogate"):
            assert main(["--out", str(a), *FAST, command]) == 0
            assert run(b, command, seed=0) == 0
        assert (a / "dataset.jsonl").read_text() == \
            (b / "dataset.jsonl").read_text()


class TestInterruptedWrites:
    def test_failed_tpo_rerun_keeps_previous_report(self, tmp_path, monkeypatch):
        serialize.dump_json({"f": 2.0, "p": 120.0, "d": 7.0},
                            tmp_path / "identified_params.json")
        assert run(tmp_path, "tpo") == 0
        report = tmp_path / "tpo_report.jsonl"
        before = report.read_bytes()
        dump, calls = serialize.to_canonical_json, []

        def fail_second_call(obj):
            calls.append(obj)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return dump(obj)

        monkeypatch.setattr(serialize, "to_canonical_json", fail_second_call)
        assert run(tmp_path, "tpo") == 1
        assert report.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


class TestConfigPlumbing:
    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datagen": {"n_param_sets": 2,
                                               "n_episodes": 2,
                                               "horizon": 3}}))
        base = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main([*base, "datagen"]) == 0
        assert main([*base, "--set", "surrogate.max_epochs=1",
                     "train-surrogate"]) == 0
        lines = (tmp_path / "out" / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 1 * 3  # one of the two episodes held out

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datagen": {"n_param_sets": 2,
                                               "n_episodes": 2,
                                               "horizon": 3}}))
        base = ["--config", str(cfg), "--out", str(tmp_path / "out"),
                "--set", "datagen.horizon=4"]
        assert main([*base, "datagen"]) == 0
        assert main([*base, "--set", "surrogate.max_epochs=1",
                     "train-surrogate"]) == 0
        lines = (tmp_path / "out" / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 1 * 4  # one of the two episodes held out

    def test_set_section_merges_like_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tpo": {"learning_rate": 0.001}}))
        want = loaded_hash("--set", "tpo.learning_rate=0.001")
        assert loaded_hash("--set", 'tpo={"learning_rate":0.001}') == want
        assert loaded_hash("--config", str(cfg)) == want
        assert want != loaded_hash()
        assert run(tmp_path, "--set", 'tpo={"learning_rate":0.001}',
                   "datagen") == 0

    @pytest.mark.parametrize("key", DEFAULT_LEAF_KEYS)
    def test_set_is_the_one_key_config_override(self, tmp_path, key):
        value = default_config()
        for part in key.split("."):
            value = value[part]
        override = value
        for part in reversed(key.split(".")):
            override = {part: override}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        assert loaded_hash("--set", f"{key}={json.dumps(value)}") == \
            loaded_hash("--config", str(cfg))

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surprise": 1}))
        assert main(["--config", str(cfg), "datagen"]) == 2

    def test_default_config_unmutated(self, tmp_path):
        # overrides of a run key and of a list key must leave the
        # module-level defaults untouched
        before = json.dumps(default_config(), sort_keys=True)
        run_keys = json.dumps(cli._RUN_KEYS, sort_keys=True)
        assert run(tmp_path, "--set", "tpo.goal=[0.5,0.5]",
                   "--set", "holdout_fraction=0.5", "datagen") == 0
        assert json.dumps(cli._RUN_KEYS, sort_keys=True) == run_keys
        assert json.dumps(default_config(), sort_keys=True) == before

    def test_every_section_is_a_stage_class(self):
        # bounds and the run keys aside, each section holds exactly its
        # class's fields, less those the CLI sets: no key bypasses a class
        config = default_config()
        assert set(config) == {"bounds", *cli._RUN_KEYS, *cli.SECTION_CLASSES}
        for name, cls in cli.SECTION_CLASSES.items():
            fields = {f.name for f in dataclasses.fields(cls)}
            assert set(config[name]) == fields - {"seed", "bounds"}

    def test_default_config_hash_pinned(self):
        # the CLI keys and their defaults, read off the config classes; the
        # keys are pinned first, so that a re-pin shows which came or went
        def leaves(tree, prefix=""):
            for k, v in tree.items():
                if isinstance(v, dict):
                    yield from leaves(v, f"{prefix}{k}.")
                else:
                    yield prefix + k

        assert sorted(leaves(default_config())) == DEFAULT_LEAF_KEYS
        assert serialize.config_hash(default_config()) == \
            "269416117595384752ac623fad1e636225223418f37aba7d13334ac2adbc5e3d"

    def test_int_accepted_for_float_key(self, tmp_path):
        assert run(tmp_path, "--set", "plant.obs_noise_std=0", "datagen") == 0


class TestPlot:
    def test_bad_header_rejected(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("x,y\n0,1\n")
        assert run(tmp_path, "plot", str(csv)) == 2

    def test_malformed_row_rejected(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_text("step,value\n0,1.0\nbroken\n")
        assert run(tmp_path, "plot", str(csv)) == 2
        assert f"{csv}: malformed CSV line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1,nan", "1,inf", "1,-inf", "nan,1"])
    def test_non_finite_number_rejected(self, tmp_path, row):
        csv = tmp_path / "c.csv"
        csv.write_text(f"step,value\n0,1.0\n{row}\n")
        assert run(tmp_path, "plot", str(csv)) == 2
        assert not (tmp_path / "c.svg").exists()

    def test_explicit_svg_path(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("step,value\n0,1.0\n1,0.5\n")
        target = tmp_path / "curve.svg"
        assert main(["--out", str(tmp_path), *FAST, "plot", str(csv),
                     "--svg", str(target)]) == 0
        assert target.read_text().startswith("<svg ")


@pytest.fixture(scope="module")
def fast_inputs(tmp_path_factory):
    """The files of one FAST run that commands read: episodes, truth,
    identified parameters, checkpoint and dataset."""
    out = tmp_path_factory.mktemp("fast_inputs")
    for command in (["datagen"], ["identify", "--method", "grad"],
                    ["train-surrogate"]):
        assert run(out, *command) == 0
    return out


def edit_paths(doc, path=()):
    """The paths (keys and indices) of every number in doc and of every dict
    entry that holds one; training_meta records the run, not the model."""
    if type(doc) in (int, float):
        yield path
    elif isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            inner = [] if key == "training_meta" else list(
                edit_paths(value, (*path, key)))
            if inner and isinstance(key, str) and inner != [(*path, key)]:
                yield (*path, key)
            yield from inner


def key_path(path):
    """The dotted path from the first dict key to the last one: the entry
    that a reader reads as one number or array."""
    keys = [i for i, k in enumerate(path) if isinstance(k, str)]
    return ".".join(map(str, path[keys[0]:keys[-1] + 1]))


class TestInputFiles:
    # each input file and a command that reads it (identify reads the
    # truth.json beside its episodes); the dataset document is the list of
    # its lines
    COMMANDS = {
        "episodes.json": ["identify", "--method", "grad",
                          "--episodes", "episodes.json"],
        "truth.json": ["identify", "--method", "grad",
                       "--episodes", "episodes.json"],
        "identified_params.json": ["tpo", "--params", "identified_params.json"],
        "checkpoint.json": ["identify", "--method", "surrogate", "--episodes",
                            "episodes.json", "--checkpoint", "checkpoint.json"],
        "dataset.jsonl": ["train-surrogate", "--dataset", "dataset.jsonl"],
    }
    EDITS = {"null": lambda v: None, "bool": lambda v: True,
             "string": json.dumps, "list": lambda v: [v]}

    def run_on(self, fast_inputs, name, text):
        """Exit code and stderr of the command that reads `name`, given
        `text` in its place (None: a directory) and the FAST run's other
        files, and the paths it wrote to its fresh output directory."""
        with tempfile.TemporaryDirectory(dir=fast_inputs.parent) as tmp:
            inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
            shutil.copytree(fast_inputs, inputs)
            target = inputs / name
            if text is None:
                target.unlink()
                target.mkdir()
            else:
                target.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(out, *(str(inputs / a) if "." in a else a
                                  for a in self.COMMANDS[name]))
            return code, err.getvalue(), list(out.iterdir())

    @pytest.mark.parametrize("name", list(COMMANDS))
    @settings(max_examples=150)
    @given(data=st.data())
    def test_one_wrong_leaf_is_a_usage_error_naming_its_key(
            self, fast_inputs, name, data):
        text = (fast_inputs / name).read_text()
        lines = name.endswith(".jsonl")
        doc = [json.loads(line) for line in text.splitlines()] if lines \
            else json.loads(text)
        path = data.draw(st.sampled_from(list(edit_paths(doc))))
        edit = data.draw(st.sampled_from([*self.EDITS, "delete"]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if edit == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = self.EDITS[edit](parent[path[-1]])
        text = "".join(json.dumps(line) + "\n" for line in doc) if lines \
            else json.dumps(doc)
        code, err, written = self.run_on(fast_inputs, name, text)
        assert code == 2, err
        assert name in err
        assert re.search(rf"[\s']{re.escape(key_path(path))}[\s'.:]", err), err
        assert written == []

    @pytest.mark.parametrize("name, edit, key", [
        # a bool and a string where a number belongs
        ("episodes.json", lambda doc: doc["episodes"][0]["actions"][0].__setitem__(
            0, True), "episodes.0.actions holds True"),
        ("episodes.json", lambda doc: doc["episodes"][1]["actions"][2].__setitem__(
            1, "1.5"), "episodes.1.actions holds '1.5'"),
        ("truth.json", lambda doc: doc.update(f="8", p=True, d=20), "f holds '8'"),
        ("identified_params.json", lambda doc: doc.update(f=True, p="300"),
         "f holds True"),
        # a missing key, a parameter below 0 and a null
        ("episodes.json", lambda doc: doc["episodes"][0].pop("observed_qd"),
         "'episodes.0.observed_qd'"),
        ("truth.json", lambda doc: doc.update(f=-1), "f=-1"),
        ("identified_params.json", lambda doc: doc.update(f=None), "f holds None"),
        # no JSON, and a directory in place of the file
        ("episodes.json", "{not json", "Expecting"),
        ("episodes.json", None, "no episodes file"),
    ])
    def test_bad_input_file_is_a_usage_error(self, fast_inputs, name, edit, key):
        text = edit
        if callable(edit):
            doc = json.loads((fast_inputs / name).read_text())
            edit(doc)
            text = json.dumps(doc)
        code, err, written = self.run_on(fast_inputs, name, text)
        assert code == 2, err
        assert name in err and key in err, err
        assert written == []

    def test_dataset_line_whose_vectors_split_otherwise_is_rejected(
            self, fast_inputs):
        # line 2 moves a value of state_qd into state_q: the line's width is
        # right, two of its vectors are not
        lines = (fast_inputs / "dataset.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["state_q"].append(row["state_qd"].pop())
        lines[1] = json.dumps(row)
        code, err, written = self.run_on(fast_inputs, "dataset.jsonl",
                                         "\n".join(lines) + "\n")
        assert code == 2, err
        assert ("dataset.jsonl: malformed dataset line 2: state_q has shape "
                "(3,), expected (2,)") in err, err
        assert written == []

    def test_dataset_whose_every_line_splits_alike_is_rejected(self, fast_inputs):
        # five lines that each move a value of state_qd into state_q agree
        # with one another, and their width passes train-surrogate's check
        # (3 + 5N = 13 for N = 2); the first line's vectors must share a length
        lines = (fast_inputs / "dataset.jsonl").read_text().splitlines()[:5]
        for i, line in enumerate(lines):
            row = json.loads(line)
            row["state_q"].append(row["state_qd"].pop())
            lines[i] = json.dumps(row)
        code, err, written = self.run_on(fast_inputs, "dataset.jsonl",
                                         "\n".join(lines) + "\n")
        assert code == 2, err
        assert ("dataset.jsonl: malformed dataset line 1: state_qd has shape "
                "(1,), expected (3,)") in err, err
        assert written == []
