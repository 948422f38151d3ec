import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


# The rows and offsets of an unbounded 3-D body with an interior (its
# Chebyshev margin reaches the 1e6 cap).  With presolve on, HiGHS reports the
# LP max x_0 over it infeasible rather than unbounded.
PRESOLVE_QUIRK_BODY = ([[-0.68, 0.18, 0.03], [0.15, -1.7, -1.01],
                        [-0.39, -1.0, -0.92], [-0.13, -0.54, -0.33]],
                       [-0.87, 0.23, 0.81, -2.04])


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


def bounded_random_polytope(rng, d, extra=8, spread=1.0):
    """A bounded polytope: a box plus random outward half-spaces."""
    from quanthelly import HPolytope

    R = 1.0 + spread
    U = rng.normal(size=(extra, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    offs = rng.uniform(0.4, R, size=extra)
    A = np.vstack([np.eye(d), -np.eye(d), U])
    b = np.concatenate([np.full(2 * d, R), offs])
    return HPolytope(A, b)
