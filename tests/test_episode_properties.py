"""Property tests of the array-native Episode and its JSON round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from armcal import serialize
from armcal.datagen import Episode, EpisodeSet

# the derandomized examples are a fixed set, so a failure reproduces; the
# shape checks need fewer examples than the round trip of the values
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
CHECK = settings(PROPERTY, max_examples=15)

# finite doubles, with the values the JSON text treats specially drawn often:
# -0.0 (written as 0), subnormals, integral values (written as integers below
# 1e17 in magnitude) and the 1e17 edge (written in exponent form)
EDGE_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, -1.5e-320,
                               2.2250738585072009e-308, 1e17, -1e17,
                               99999999999999984.0, 3.0, -7.0])
VALUES = st.one_of(EDGE_VALUES,
                   st.integers(-2 ** 60, 2 ** 60).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def episodes(draw):
    t = draw(st.integers(1, 20))
    n = draw(st.integers(1, 3))
    actions = draw(arrays(np.float64, (t, n), elements=VALUES))
    q = draw(arrays(np.float64, (t + 1, n), elements=VALUES))
    qd = draw(arrays(np.float64, (t + 1, n), elements=VALUES))
    return actions, q, qd


class TestEpisodeJson:
    @PROPERTY
    @given(st.lists(episodes(), min_size=1, max_size=3))
    def test_round_trip_exact_and_redump_identical(self, drawn):
        eps = EpisodeSet(tuple(Episode(*arrs) for arrs in drawn))
        text = serialize.to_canonical_json(serialize.episodes_to_json(eps))
        back = serialize.episodes_from_json(json.loads(text))
        assert len(back.episodes) == len(drawn)
        for ep, (actions, q, qd) in zip(back.episodes, drawn):
            assert ep.actions.dtype == ep.q.dtype == ep.qd.dtype == np.float64
            assert np.array_equal(ep.actions, actions)
            assert np.array_equal(ep.q, q)
            assert np.array_equal(ep.qd, qd)
        assert serialize.to_canonical_json(serialize.episodes_to_json(back)) == text

    def test_ragged_list_rejected(self):
        doc = {"episodes": [{"actions": [[0.0, 1.0], [2.0]],
                             "observed_q": [[0.0, 0.0]] * 3,
                             "observed_qd": [[0.0, 0.0]] * 3}]}
        with pytest.raises(ValueError):
            serialize.episodes_from_json(doc)


class TestEpisodeChecks:
    @CHECK
    @given(episodes(), st.sampled_from(["actions", "q", "qd"]),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_rejected(self, arrs, name, bad, data):
        arrs = dict(zip(("actions", "q", "qd"), (a.copy() for a in arrs)))
        target = arrs[name]
        i = data.draw(st.integers(0, target.shape[0] - 1))
        j = data.draw(st.integers(0, target.shape[1] - 1))
        target[i, j] = bad
        with pytest.raises(ValueError):
            Episode(**arrs)

    @CHECK
    @given(episodes(), st.integers(-5, 5).filter(lambda k: k != 0))
    def test_q_rows_must_be_horizon_plus_one(self, arrs, extra):
        actions, q, qd = arrs
        rows = max(0, len(q) + extra)
        with pytest.raises(ValueError):
            Episode(actions, np.resize(q, (rows, q.shape[1])),
                    np.resize(qd, (rows, qd.shape[1])))

    @CHECK
    @given(episodes(), st.integers(-1, 1), st.integers(-1, 1))
    def test_qd_shape_must_match_q(self, arrs, d_rows, d_cols):
        actions, q, qd = arrs
        shape = (len(qd) + d_rows, qd.shape[1] + d_cols)
        if shape == qd.shape or min(shape) < 0:
            shape = (len(qd) + 1, qd.shape[1])
        with pytest.raises(ValueError):
            Episode(actions, q, np.zeros(shape))

    @CHECK
    @given(episodes())
    def test_valid_arrays_accepted(self, arrs):
        ep = Episode(*arrs)
        assert ep.horizon == len(arrs[0])
        assert all(a.flags.c_contiguous for a in (ep.actions, ep.q, ep.qd))
