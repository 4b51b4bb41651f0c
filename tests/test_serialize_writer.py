"""Tests for the block-formatted dataset writer: byte-identical to one
f17 call per float, written atomically, and read back into the same rows."""

import json

import numpy as np
import pytest

from armcal import serialize

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
