"""Tests for file formats: 17-significant-digit float round-trips, dataset
JSONL, episode/checkpoint/policy JSON, report CSV/markdown, and the SVG plot."""

import json

import numpy as np
import pytest

from armcal import datagen, serialize, surrogate, tpo
from armcal.identify import IdentifyReport
from armcal.plant import ParamBounds, PhysParams, PlantConfig

CFG = PlantConfig()
BOUNDS = ParamBounds()


class TestF17:
    def test_round_trips_doubles_exactly(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([
            rng.standard_normal(200),
            10.0 ** rng.uniform(-300, 300, 200) * np.sign(rng.standard_normal(200)),
            [0.0, -0.0, 1.0, np.pi, 2.0 / 3.0, 1e-308, 1.7976931348623157e308],
        ])
        for v in values:
            assert float(serialize.f17(v)) == v

    def test_deterministic_text(self):
        assert serialize.f17(0.1) == serialize.f17(0.1)
        assert serialize.f17(np.float64(2.5)) == serialize.f17(2.5)


class TestDataset:
    def make_rows(self):
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          2, 5, CFG, seed=0)
        cands = datagen.sample_params(3, BOUNDS, seed=1)
        return datagen.generate_transition_arrays(eps, cands, CFG)

    def test_line_key_order_and_json_validity(self):
        rows = self.make_rows()
        line = serialize.dataset_line(rows[0], CFG.n_joints)
        obj = json.loads(line)
        assert tuple(obj.keys()) == serialize.DATASET_KEYS
        assert len(obj["state_q"]) == CFG.n_joints

    def test_round_trip_bit_exact(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "d.jsonl"
        serialize.write_dataset(path, rows, CFG.n_joints)
        back = serialize.read_dataset(path)
        np.testing.assert_array_equal(back, rows)
        # writing the loaded rows again is byte-identical
        path2 = tmp_path / "d2.jsonl"
        serialize.write_dataset(path2, back, CFG.n_joints)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = serialize.dataset_line(self.make_rows()[0], CFG.n_joints)
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(ValueError, match="line 2"):
            serialize.read_dataset(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"f":1.0,"p":2.0}\n')
        with pytest.raises(ValueError, match="line 1"):
            serialize.read_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            serialize.read_dataset(path)


class TestEpisodes:
    def test_round_trip(self):
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          3, 6, CFG, seed=2)
        back = serialize.episodes_from_json(serialize.episodes_to_json(eps))
        assert back.source == eps.source
        assert len(back.episodes) == 3
        for e1, e2 in zip(eps.episodes, back.episodes):
            np.testing.assert_array_equal(e1.actions, e2.actions)
            np.testing.assert_array_equal(e1.q, e2.q)
            np.testing.assert_array_equal(e1.qd, e2.qd)


class TestCanonicalJson:
    def test_sorted_keys_and_float_precision(self):
        text = serialize.to_canonical_json({"b": 0.1, "a": [1.0 / 3.0]})
        assert text.index('"a"') < text.index('"b"')
        # floats survive the round trip exactly
        assert json.loads(text)["a"][0] == 1.0 / 3.0
        assert json.loads(serialize.to_canonical_json({"x": 0.1}))["x"] == 0.1

    def test_numpy_types_handled(self):
        text = serialize.to_canonical_json(
            {"x": np.float64(2.5), "n": np.int64(3), "v": np.arange(2.0)})
        doc = json.loads(text)
        assert doc == {"x": 2.5, "n": 3, "v": [0.0, 1.0]}

    def test_config_hash_stable_and_sensitive(self):
        a = {"x": 1, "y": {"z": 2}}
        assert serialize.config_hash(a) == serialize.config_hash(
            {"y": {"z": 2}, "x": 1})
        assert serialize.config_hash(a) != serialize.config_hash(
            {"x": 1, "y": {"z": 3}})
        assert len(serialize.config_hash(a)) == 64


class TestSmallDocs:
    def test_params_round_trip(self):
        p = PhysParams(1.25, 333.5, 0.875)
        back = serialize.params_from_json(serialize.params_to_json(p))
        assert back == p

    def test_bounds_round_trip(self):
        back = serialize.bounds_from_json(serialize.bounds_to_json(BOUNDS))
        assert back == BOUNDS

    def test_norm_stats_round_trip(self):
        stats = datagen.NormStats(np.arange(13.0), np.arange(1.0, 14.0))
        back = serialize.norm_stats_from_json(
            json.loads(serialize.to_canonical_json(
                serialize.norm_stats_to_json(stats))))
        np.testing.assert_array_equal(back.mean, stats.mean)
        np.testing.assert_array_equal(back.std, stats.std)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        stats = datagen.NormStats(np.random.default_rng(0).normal(size=13),
                                  np.random.default_rng(1).random(13) + 0.5)
        model = surrogate.init(surrogate.default_layer_dims(2, hidden=8), 7,
                               norm_stats=stats, bounds=BOUNDS)
        model.training_meta = {"epochs_run": 3, "final_loss": 0.125,
                               "stop_reason": "max_epochs",
                               "loss_history": [1.0, 0.5, 0.125]}
        doc = json.loads(serialize.to_canonical_json(
            serialize.checkpoint_to_json(model)))
        back = serialize.checkpoint_from_json(doc)
        assert back.layer_dims == model.layer_dims
        assert back.activation == model.activation
        assert back.rng_seed == model.rng_seed
        for w1, w2 in zip(back.weights, model.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(back.biases, model.biases):
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(back.norm_stats.mean, stats.mean)
        assert back.bounds == BOUNDS
        # loss_history is dropped from the serialized training metadata
        assert "loss_history" not in back.training_meta
        assert back.training_meta["final_loss"] == 0.125

    def test_reserialization_is_stable(self):
        model = surrogate.init(surrogate.default_layer_dims(2, hidden=4), 0,
                               norm_stats=datagen.NormStats(np.zeros(13),
                                                            np.ones(13)),
                               bounds=BOUNDS)
        t1 = serialize.to_canonical_json(serialize.checkpoint_to_json(model))
        back = serialize.checkpoint_from_json(json.loads(t1))
        t2 = serialize.to_canonical_json(serialize.checkpoint_to_json(back))
        assert t1 == t2


class TestPolicy:
    def test_round_trip(self):
        pol = tpo.init_policy(2, hidden=(4, 4), seed=3, exploration_std=0.25)
        doc = json.loads(serialize.to_canonical_json(
            serialize.policy_to_json(pol)))
        back = serialize.policy_from_json(doc)
        assert back.layer_dims == pol.layer_dims
        assert back.exploration_std == 0.25
        for w1, w2 in zip(back.weights, pol.weights):
            np.testing.assert_array_equal(w1, w2)


class TestReports:
    def reports(self):
        return [
            IdentifyReport("sa", PhysParams(1.0, 2.0, 3.0),
                           0.2245, 0.1282, 0.0963, 12888.43),
            IdentifyReport("grad", PhysParams(1.0, 2.0, 3.0),
                           0.2161, 0.1101, 0.1060, 1299.92),
            IdentifyReport("surrogate", PhysParams(1.0, 2.0, 3.0),
                           0.0012, 0.0007, 0.0005, 0.0153),
        ]

    def test_csv_header_and_rows(self):
        text = serialize.reports_to_csv(self.reports())
        lines = text.splitlines()
        assert lines[0] == serialize.REPORT_HEADER
        assert lines[1] == "sa,0.224500,0.128200,0.096300,12888.43"
        assert lines[2] == "grad,0.216100,0.110100,0.106000,1299.92"
        assert lines[3] == "surrogate,0.001200,0.000700,0.000500,0.0153"
        assert text.endswith("\n")

    def test_markdown_table(self):
        text = serialize.reports_to_markdown(self.reports())
        lines = text.splitlines()
        assert lines[0].startswith("| Method |")
        assert lines[1].startswith("|---")
        assert "| sa | 0.2245 | 0.1282 | 0.0963 | 12888.43 |" in lines[2]
        # millisecond runs keep their digits, as in the CSV
        assert "| surrogate | 0.0012 | 0.0007 | 0.0005 | 0.0153 |" in lines[4]


class TestSvg:
    def test_deterministic_and_well_formed(self):
        steps = list(range(10))
        values = [np.exp(-0.3 * s) for s in steps]
        a = serialize.curve_to_svg(steps, values, title="loss")
        b = serialize.curve_to_svg(steps, values, title="loss")
        assert a == b
        assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
        assert "polyline" in a
        assert serialize.f17(min(values)) in a
        assert serialize.f17(max(values)) in a

    def test_flat_curve_no_division_error(self):
        svg = serialize.curve_to_svg([0, 1, 2], [5.0, 5.0, 5.0])
        assert "polyline" in svg

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            serialize.curve_to_svg([], [])
