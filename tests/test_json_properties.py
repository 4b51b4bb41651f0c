"""Property tests of the canonical JSON text: the float rule against the
format-and-reparse rule it replaced, and the checkpoint and policy round
trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from armcal import serialize, surrogate, tpo
from armcal.datagen import NormStats
from armcal.plant import ParamBounds

FLOATS = settings(max_examples=2000)

# the values whose text is special: -0.0 (written as 0), subnormals, integral
# values (integers below 1e17 in magnitude) and both sides of the 1e17 edge
EDGE_VALUES = st.sampled_from([
    -0.0, 0.0, 5e-324, -1.5e-320, 2.2250738585072009e-308, 1e17, -1e17,
    99999999999999984.0, 100000000000000016.0, 1e16, 2.0 ** 53, 2.0 ** 53 + 2,
    3.0, -7.0, 0.1, 1.7976931348623157e308])
VALUES = st.one_of(EDGE_VALUES,
                   st.integers(-10 ** 18, 10 ** 18).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([5e-324, 1.0, 3.0, 2.0 ** 53, 1e17]),
                     st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False))
# any bit pattern that is a finite double
BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


def reparse_rule(x):
    """The former rule: format as %.17g and let json parse the text back."""
    return json.loads(format(float(x), ".17g"))


def old_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestFloatRule:
    @FLOATS
    @given(st.one_of(VALUES, BIT_PATTERNS.filter(math.isfinite)))
    def test_matches_format_and_reparse(self, x):
        want = old_canonical(reparse_rule(x))
        assert serialize.to_canonical_json(x) == want
        assert serialize.to_canonical_json(np.float64(x)) == want
        assert serialize.to_canonical_json([x, {"v": x}]) == \
            old_canonical([reparse_rule(x), {"v": reparse_rule(x)}])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, x):
        for obj in (x, np.float64(x), [1.0, x], {"a": np.array([x])}):
            with pytest.raises(ValueError):
                serialize.to_canonical_json(obj)


def matrices(rows, cols):
    return arrays(np.float64, (rows, cols), elements=VALUES)


@st.composite
def layer_stacks(draw, dims):
    weights = [draw(matrices(o, i)) for i, o in zip(dims[:-1], dims[1:])]
    biases = [draw(arrays(np.float64, (o,), elements=VALUES)) for o in dims[1:]]
    return weights, biases


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.float64
        assert np.array_equal(g, w)


class TestCheckpointJson:
    DIMS = (3 + 3, 3, 2, 2)  # one joint, hidden width 3 then 2

    # one norm_stats entry per input and output column
    @given(layer_stacks(DIMS), arrays(np.float64, (8,), elements=VALUES),
           arrays(np.float64, (8,), elements=POSITIVE),
           st.integers(0, 2 ** 63 - 1), st.one_of(st.none(), VALUES))
    def test_round_trip_exact_and_redump_identical(self, layers, mean, std,
                                                   seed, final_loss):
        weights, biases = layers
        model = surrogate.MlpCheckpoint(
            self.DIMS, weights, biases, "tanh", NormStats(mean, std),
            ParamBounds(), seed,
            {"epochs_run": 3, "final_loss": final_loss, "stop_reason": "plateau",
             "loss_history": [1.0]})
        text = serialize.to_canonical_json(serialize.checkpoint_to_json(model))
        back = serialize.checkpoint_from_json(json.loads(text))
        assert back.layer_dims == self.DIMS and back.rng_seed == seed
        assert_same_arrays(back.weights, weights)
        assert_same_arrays(back.biases, biases)
        assert_same_arrays([back.norm_stats.mean, back.norm_stats.std], [mean, std])
        assert back.bounds == ParamBounds()
        assert back.training_meta["final_loss"] == final_loss
        assert serialize.to_canonical_json(serialize.checkpoint_to_json(back)) == text


class TestPolicyJson:
    DIMS = (2 * 2 + 2, 3, 2)  # two joints, one hidden layer of 3

    @given(layer_stacks(DIMS), st.floats(0.0, 10.0))
    def test_round_trip_exact_and_redump_identical(self, layers, std):
        weights, biases = layers
        policy = tpo.PolicyNet(self.DIMS, weights, biases, std)
        text = serialize.to_canonical_json(serialize.policy_to_json(policy))
        doc = json.loads(text)
        assert tuple(doc["layer_dims"]) == self.DIMS
        assert doc["exploration_std"] == std
        assert_same_arrays([np.array(W, dtype=float) for W in doc["weights"]],
                           weights)
        assert_same_arrays([np.array(b, dtype=float) for b in doc["biases"]],
                           biases)
        assert serialize.to_canonical_json(doc) == text
