"""Tests for the block-formatted dataset writer: byte-identical to one
f17 call per float, whether or not parts of its rows repeat, written
atomically, and read back into the same rows."""

import hashlib
import json

import numpy as np
import pytest

from armcal import datagen, serialize
from armcal.plant import ParamBounds, PhysParams, PlantConfig

SPECIALS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, -1e-310, 1e16, 1e17,
            -1e17, 1.0 / 3.0, 2.0 / 3.0, 1.7976931348623157e308, 123456789.0, 1.0]


def per_float_line(row, n):
    """The dataset line as one f17 call per float, key by key."""
    def vec(values):
        return "[" + ",".join(serialize.f17(v) for v in values) + "]"
    parts = [f'"f":{serialize.f17(row[0])}', f'"p":{serialize.f17(row[1])}',
             f'"d":{serialize.f17(row[2])}']
    for i, key in enumerate(serialize.DATASET_KEYS[3:]):
        parts.append(f'"{key}":{vec(row[3 + i * n:3 + (i + 1) * n])}')
    return "{" + ",".join(parts) + "}"


def make_rows(n_joints, m=11, seed=0):
    rng = np.random.default_rng(seed)
    width = 3 + 5 * n_joints
    rows = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-20, 20, (m, width))
    k = min(len(SPECIALS), rows.size)
    rows.ravel()[:k] = SPECIALS[:k]
    return rows


class TestTemplateWriter:
    @pytest.mark.parametrize("n_joints", [1, 2, 3])
    def test_byte_identical_to_per_float_format(self, tmp_path, monkeypatch, n_joints):
        # a block size that leaves a partial last block
        monkeypatch.setattr(serialize, "DATASET_BLOCK_ROWS", 4)
        rows = make_rows(n_joints)
        expected = "".join(per_float_line(r, n_joints) + "\n" for r in rows)
        path = tmp_path / "d.jsonl"
        serialize.write_dataset(path, rows, n_joints)
        assert path.read_text() == expected
        for r in rows:
            assert serialize.dataset_line(r, n_joints) == per_float_line(r, n_joints)
        assert expected.startswith('{"f":-0,"p":0,"d":4.9406564584124654e-324,')
        assert "10000000000000000" in expected and "1e+17" in expected
        back = serialize.read_dataset(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, rows)
        assert np.signbit(back.ravel()[0])

    def test_wrong_width_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dataset rows"):
            serialize.write_dataset(tmp_path / "d.jsonl", np.zeros((3, 12)), 2)
        assert not (tmp_path / "d.jsonl").exists()


def per_float_text(rows, n):
    return "".join(per_float_line(r, n) + "\n" for r in rows)


class TestRepeatedParts:
    """A block formats each distinct (f, p, d) and state|action part once and
    reuses the texts of the block before it; the file is the per-float text
    whatever repeats, wherever the block boundaries fall."""

    def write(self, tmp_path, rows, n_joints=2):
        path = tmp_path / "d.jsonl"
        serialize.write_dataset(path, rows, n_joints)
        return path.read_bytes()

    def seeded_rows(self):
        # 60 episode steps and 12 parameter sets: each (f, p, d) repeats 60
        # times in a run and each state|action part 12 times, 60 rows apart
        cfg = PlantConfig()
        eps = datagen.make_synthetic_real(PhysParams(8.0, 300.0, 20.0), 3, 20,
                                          cfg, seed=5)
        return datagen.generate_transition_arrays(
            eps, datagen.sample_params(12, ParamBounds(), 6), cfg)

    def count_work(self, monkeypatch):
        """Rows formatted per template, and each texts map carried from one
        block to the next."""
        formatted, carried = {}, []
        format_rows, format_repeated = (serialize._format_rows,
                                        serialize._format_repeated)

        def counting_rows(template, values):
            formatted[template] = formatted.get(template, 0) + len(values)
            return format_rows(template, values)

        def recording_repeated(template, values, seen):
            texts, seen = format_repeated(template, values, seen)
            carried.append(seen)
            return texts, seen

        monkeypatch.setattr(serialize, "_format_rows", counting_rows)
        monkeypatch.setattr(serialize, "_format_repeated", recording_repeated)
        return formatted, carried

    @pytest.mark.parametrize("block_rows", [1024, 64, 7])
    def test_seeded_transition_rows(self, tmp_path, monkeypatch, block_rows):
        # the digest is the file's before the parts were cached
        monkeypatch.setattr(serialize, "DATASET_BLOCK_ROWS", block_rows)
        rows = self.seeded_rows()
        data = self.write(tmp_path, rows)
        assert data == per_float_text(rows, 2).encode()
        assert hashlib.sha256(data).hexdigest() == (
            "cd18d239728c1efe9d247d0b42edebaffbc97d4e3dcb3f3f0f06e039397f3601")

    def test_formats_each_part_once_holding_one_block(self, tmp_path,
                                                      monkeypatch):
        # the state|action parts recur 60 rows apart, within a 64-row block
        monkeypatch.setattr(serialize, "DATASET_BLOCK_ROWS", 64)
        formatted, carried = self.count_work(monkeypatch)
        rows = self.seeded_rows()
        self.write(tmp_path, rows)
        fpd, sa, nx = serialize._dataset_parts(2)
        assert formatted == {fpd: 12, sa: 60, nx: 720}
        assert all(0 < len(seen) <= 64 for seen in carried)

    def test_rows_with_no_repeats(self, tmp_path, monkeypatch):
        # the first block repeats no part, so the later blocks are formatted
        # whole lines at a time, with no part keyed or split out
        monkeypatch.setattr(serialize, "DATASET_BLOCK_ROWS", 16)
        formatted, carried = self.count_work(monkeypatch)
        rows = make_rows(2, m=50, seed=3)
        assert len(np.unique(rows[:, :3], axis=0)) == len(rows)
        assert len(np.unique(rows[:, 3:9], axis=0)) == len(rows)
        assert self.write(tmp_path, rows) == per_float_text(rows, 2).encode()
        assert set(formatted.values()) == {16}
        assert carried == [None, None]

    def test_signed_zeros_stay_distinct(self, tmp_path):
        # -0.0 == 0.0, but the two are written "-0" and "0"
        rows = np.zeros((6, 13))
        rows[1, :3] = [-0.0, 0.0, -0.0]
        rows[3, 3:9] = -0.0
        rows[4, :] = -0.0
        text = self.write(tmp_path, rows).decode()
        assert text == per_float_text(rows, 2)
        lines = text.splitlines()
        assert lines[0].startswith('{"f":0,"p":0,"d":0,"state_q":[0,0],')
        assert lines[1].startswith('{"f":-0,"p":0,"d":-0,"state_q":[0,0],')
        assert '"state_q":[-0,-0],"state_qd":[-0,-0],"action":[-0,-0],' in lines[3]
        assert lines[5] == lines[0] and lines[2] == lines[0]
        assert np.array_equal(np.signbit(serialize.read_dataset(
            tmp_path / "d.jsonl")), np.signbit(rows))

    @pytest.mark.parametrize("block_rows", [2, 4, 5])
    def test_repeats_straddle_block_boundaries(self, tmp_path, monkeypatch,
                                               block_rows):
        # (f, p, d) parts come in runs of 6 that cross block boundaries, and
        # state|action parts with period 3, so a block may meet no new part;
        # at 2 rows a block repeats no state|action part and the writer
        # formats that column row by row
        monkeypatch.setattr(serialize, "DATASET_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((42, 13))
        rows[:, :3] = rng.standard_normal((7, 3))[np.arange(42) // 6]
        rows[:, 3:9] = rng.standard_normal((3, 6))[np.arange(42) % 3]
        assert self.write(tmp_path, rows) == per_float_text(rows, 2).encode()


class _FailingFile:
    """A file whose second write raises, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrite:
    def failing_write(self, path, monkeypatch):
        monkeypatch.setattr(serialize, "DATASET_BLOCK_ROWS", 2)
        monkeypatch.setattr(serialize, "open",
                            lambda p, mode="r": _FailingFile(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            serialize.write_dataset(path, make_rows(2, m=9), 2)
        monkeypatch.undo()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "dataset.jsonl"
        self.failing_write(path, monkeypatch)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "dataset.jsonl"
        old = make_rows(2, m=3, seed=1)
        serialize.write_dataset(path, old, 2)
        before = path.read_bytes()
        self.failing_write(path, monkeypatch)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        np.testing.assert_array_equal(serialize.read_dataset(path), old)


class TestReader:
    def test_ragged_line_reports_line_number(self, tmp_path):
        rows = make_rows(2, m=2)
        short = json.loads(serialize.dataset_line(rows[1], 2))
        short["action"] = short["action"][:1]
        path = tmp_path / "d.jsonl"
        path.write_text(serialize.dataset_line(rows[0], 2) + "\n"
                        + json.dumps(short) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            serialize.read_dataset(path)

    def test_non_list_field_reports_line_number(self, tmp_path):
        obj = json.loads(serialize.dataset_line(make_rows(1, m=1)[0], 1))
        obj["next_qd"] = 1.5
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            serialize.read_dataset(path)
