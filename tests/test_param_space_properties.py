"""Property tests of the bound-scaled parameter space: ParamBounds' map
between (f, p, d) and the unit cube, and Levenberg-Marquardt holding a
collapsed coordinate at its value."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from armcal import datagen
from armcal.identify import gauss_newton_params
from armcal.plant import ParamBounds, PhysParams, PlantConfig

# 0 or a value at the scale of the arm's parameters; a normal number far
# below it would lose digits to underflow in (x - low) / span
MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))


def _off_underflow(v):
    """A point below the smallest magnitude moves to 0, the low end."""
    return 0.0 if v < 1e-6 else v


@st.composite
def bounds_and_points(draw):
    """Bounds with randomly collapsed coordinates, the collapse mask, and
    (B, 3) points inside them."""
    lows = [draw(MAGNITUDES) for _ in range(3)]
    collapsed = np.array(draw(st.lists(st.booleans(), min_size=3, max_size=3)))
    highs = [lo if c else lo + draw(MAGNITUDES) for lo, c in zip(lows, collapsed)]
    bounds = ParamBounds(lows[0], highs[0], lows[1], highs[1], lows[2], highs[2])
    n = draw(st.integers(1, 8))
    columns = [draw(st.lists(st.floats(lo, hi).map(_off_underflow),
                             min_size=n, max_size=n))
               for lo, hi in zip(lows, highs)]
    return bounds, collapsed, np.array(columns).T


class TestUnitMap:
    @given(bounds_and_points())
    def test_points_map_into_the_unit_cube(self, drawn):
        bounds, _, x = drawn
        u = bounds.to_unit(x)
        assert u.shape == x.shape
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        np.testing.assert_array_equal(bounds.to_unit(x[0]), u[0])

    @given(bounds_and_points())
    def test_collapsed_coordinate_maps_to_half_and_back_exactly(self, drawn):
        bounds, collapsed, x = drawn
        u = bounds.to_unit(x)
        assert np.all(u[:, collapsed] == 0.5)
        back = bounds.from_unit(u)
        assert np.array_equal(back[:, collapsed], x[:, collapsed])

    @given(bounds_and_points())
    def test_round_trip(self, drawn):
        bounds, _, x = drawn
        np.testing.assert_allclose(bounds.from_unit(bounds.to_unit(x)), x,
                                   rtol=1e-12, atol=0.0)


CFG = PlantConfig()
EPISODES = datagen.make_synthetic_real(PhysParams(3.0, 150.0, 9.0), 2, 10,
                                       CFG, seed=4)


class TestCollapsedFit:
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.lists(st.booleans(), min_size=3, max_size=3))
    def test_gauss_newton_holds_collapsed_coordinates(self, at, collapse):
        # sub-boxes of the default bounds, some coordinates a single point
        collapse = np.array(collapse)
        default = ParamBounds()
        point = default.from_unit(np.array(at))
        lows = np.where(collapse, point, default.lows())
        highs = np.where(collapse, point, default.highs())
        bounds = ParamBounds(lows[0], highs[0], lows[1], highs[1],
                             lows[2], highs[2])
        got, curve = gauss_newton_params(EPISODES, bounds, CFG)
        assert np.array_equal(got.as_array()[collapse], point[collapse])
        assert got.within(bounds)
        assert curve[-1] <= curve[0]
