"""End-to-end CLI tests: exit codes, artifact formats, and reproducibility.

Runs use deliberately tiny configurations so the full command chain stays
fast; full-scale behavior is covered by the acceptance suite.
"""

import json
from pathlib import Path

import numpy as np
import pytest

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


def run(out, *args, seed=0):
    return main(["--out", str(out), "--seed", str(seed), *FAST, *args])


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

    def test_usage_error_missing_inputs(self, tmp_path):
        assert run(tmp_path, "train-surrogate") == 2  # no dataset yet
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
        # structurally valid config that fails at runtime: a dataset file
        # with malformed content
        assert run(tmp_path, "datagen") == 0
        (tmp_path / "dataset.jsonl").write_text("{broken\n")
        assert run(tmp_path, "train-surrogate") == 1

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize("assignment", [
        'datagen.horizon="abc"',  # a string for an int
        "datagen.horizon=5.0",  # a float for an int
        "tpo.m=true",  # a bool for an int
        'anneal.steps="400"',
        "refine.learning_rate=false",  # a bool for a float
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
        "tpo.beta=0",  # TpoConfig: beta must be positive
        'refine.init="random"',  # RefineConfig: unknown init mode
        "surrogate.batch_size=0",  # TrainConfig
        "anneal.cooling_gamma=1",  # AnnealConfig
        "plant.dt=0",  # PlantConfig
        "tpo.m=0",  # TpoConfig: no preference pairs
        "tpo.rollout_horizon=0",  # TpoConfig
        # keys no config class holds, checked at load
        "datagen.n_episodes=-3",
        "datagen.horizon=0",
        "datagen.n_param_sets=0",
        "tpo.goal=[1.2,0.8,0.0]",
        "tpo.goal=[1.2,NaN]",
        "tpo.exploration_std=-0.1",
    ])
    def test_usage_error_value_a_stage_rejects(self, tmp_path, assignment):
        # every stage's config is built at load, whatever the command
        assert main(["--out", str(tmp_path), *FAST, "--set", assignment,
                     "datagen"]) == 2
        assert not (tmp_path / "dataset.jsonl").exists()


class TestDatagen:
    def test_artifacts_and_row_count(self, tmp_path):
        assert run(tmp_path, "datagen") == 0
        for name in ("dataset.jsonl", "episodes.json", "truth.json",
                     "norm_stats.json", "manifest.json"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 3 * 4 * 6  # param sets x episodes x horizon
        first = json.loads(lines[0])
        assert tuple(first.keys()) == serialize.DATASET_KEYS

    def test_default_scale_row_count(self, tmp_path):
        # spec-scale datagen: 50 x 20 x 50 = 50,000 records; only the row
        # count matters here so trim nothing else
        assert main(["--out", str(tmp_path), "--seed", "0", "datagen"]) == 0
        n = sum(1 for _ in open(tmp_path / "dataset.jsonl"))
        assert n == 50 * 20 * 50

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
        assert "dataset" in man["artifacts"]


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
        assert run(a, "datagen", seed=1) == 0
        assert run(b, "datagen", seed=2) == 0
        assert (a / "dataset.jsonl").read_text() != \
            (b / "dataset.jsonl").read_text()

    def test_seed_zero_and_unset_agree(self, tmp_path):
        # the default run seed is 0; --seed 0 must reproduce it
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), *FAST, "datagen"]) == 0
        assert run(b, "datagen", seed=0) == 0
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
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "datagen"]) == 0
        lines = (out / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2 * 3

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datagen": {"n_param_sets": 2,
                                               "n_episodes": 2,
                                               "horizon": 3}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "--set", "datagen.horizon=4", "datagen"]) == 0
        lines = (out / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2 * 4

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surprise": 1}))
        assert main(["--config", str(cfg), "datagen"]) == 2

    def test_default_config_unmutated(self, tmp_path):
        # overrides of both a literal section (datagen) and a class-backed
        # one (tpo) must leave the module-level defaults untouched
        before = json.dumps(default_config(), sort_keys=True)
        unbacked = json.dumps(cli._UNBACKED, sort_keys=True)
        assert run(tmp_path, "--set", "tpo.goal=[0.5,0.5]", "datagen") == 0
        assert json.dumps(cli._UNBACKED, sort_keys=True) == unbacked
        assert json.dumps(default_config(), sort_keys=True) == before

    def test_default_config_hash_pinned(self):
        # the CLI keys and their defaults, read off the config classes
        assert serialize.config_hash(default_config()) == \
            "1ff95dad8c5b72f90f39990757a0afde133f9781864b367b9b07ffad1476a462"

    def test_int_accepted_for_float_key(self, tmp_path):
        assert run(tmp_path, "--set", "plant.obs_noise_std=0", "datagen") == 0


class TestPlot:
    def test_bad_header_rejected(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("x,y\n0,1\n")
        assert run(tmp_path, "plot", str(csv)) == 2

    def test_malformed_row_rejected(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("step,value\n0,1.0\nbroken\n")
        assert run(tmp_path, "plot", str(csv)) == 2

    def test_explicit_svg_path(self, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_text("step,value\n0,1.0\n1,0.5\n")
        target = tmp_path / "curve.svg"
        assert main(["--out", str(tmp_path), *FAST, "plot", str(csv),
                     "--svg", str(target)]) == 0
        assert target.read_text().startswith("<svg ")
