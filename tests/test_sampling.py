import math

import numpy as np
import pytest

from maxnorm_lowrank.rng import split
from maxnorm_lowrank.sampling import (
    PointSet,
    SamplingScheme,
    sample_ball,
    sample_pair,
    sample_sphere,
)


class TestSampleBall:
    def test_membership(self):
        P = sample_ball(7, 3, 2, 1.0)
        assert np.all(np.linalg.norm(P.points, axis=1) < 1.0)
        assert P.radius_bound == 1.0

    def test_determinism(self):
        a = sample_ball(7, 1, 1, 1.0)
        b = sample_ball(7, 1, 1, 1.0)
        np.testing.assert_array_equal(a.points, b.points)

    def test_golden_values(self):
        # pins the Philox stream: identical on every platform and run
        P = sample_ball(7, 3, 2, 1.0)
        np.testing.assert_allclose(
            P.points[0], [-0.47089358035327665, 0.2846433801679915], atol=1e-15
        )

    def test_radius_distribution(self):
        # for the uniform ball, ||x||^m is Uniform(0,1); Monte-Carlo check of the mean
        P = sample_ball(7, 10**4, 3, 1.0)
        mean = (np.linalg.norm(P.points, axis=1) ** 3).mean()
        assert 0.45 <= mean <= 0.55

    def test_radius_scaling(self):
        P = sample_ball(3, 100, 4, 2.5)
        norms = np.linalg.norm(P.points, axis=1)
        assert norms.max() < 2.5
        assert P.radius_bound == 2.5

    @pytest.mark.parametrize("n,m,R", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (1, 1, -2.0),
                                       (1, 1, math.inf), (1, 1, math.nan)])
    def test_invalid_arguments(self, n, m, R):
        with pytest.raises(ValueError):
            sample_ball(0, n, m, R)


class TestSampleSphere:
    def test_unit_norms(self):
        P = sample_sphere(1, 5, 4)
        np.testing.assert_allclose(np.linalg.norm(P.points, axis=1), 1.0, atol=1e-12)

    def test_one_dimensional(self):
        P = sample_sphere(1, 2, 1)
        assert set(np.round(P.points.ravel())) <= {-1.0, 1.0}

    def test_symmetry(self):
        P = sample_sphere(2, 10**4, 3)
        assert abs(P.points[:, 0].mean()) <= 0.02

    def test_golden_values(self):
        P = sample_sphere(1, 5, 4)
        np.testing.assert_allclose(
            P.points[0],
            [0.46092036, -0.78969185, 0.02083552, -0.40435762],
            atol=1e-8,
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 1, 0)


class TestPointSet:
    def test_norm_invariant_enforced(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[2.0, 0.0]]), 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 3)), 1.0)
        with pytest.raises(ValueError):
            PointSet(np.zeros(3), 1.0)

    def test_scheme_coercion(self):
        assert SamplingScheme.coerce("symmetric") is SamplingScheme.SYMMETRIC
        assert SamplingScheme.coerce(SamplingScheme.INDEPENDENT) is SamplingScheme.INDEPENDENT
        with pytest.raises(ValueError):
            SamplingScheme.coerce("bogus")


def _recording_draw(calls):
    """A point drawer that records the stream of every draw."""
    def draw(stream):
        calls.append(stream)
        return sample_ball(stream, 5, 3, 1.0)
    return draw


class TestSamplePair:
    def test_symmetric_reuses_x_and_draws_once(self):
        streams, calls = split(3, 2), []
        X, Y = sample_pair("symmetric", streams, _recording_draw(calls))
        assert Y is X
        assert calls == [streams[0]]
        np.testing.assert_array_equal(X.points, sample_ball(streams[0], 5, 3, 1.0).points)

    def test_independent_draws_each_side_from_its_stream(self):
        streams, calls = split(3, 2), []
        X, Y = sample_pair(SamplingScheme.INDEPENDENT, streams, _recording_draw(calls))
        assert calls == [streams[0], streams[1]]
        np.testing.assert_array_equal(X.points, sample_ball(streams[0], 5, 3, 1.0).points)
        np.testing.assert_array_equal(Y.points, sample_ball(streams[1], 5, 3, 1.0).points)
