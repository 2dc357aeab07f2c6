import numpy as np
import pytest

from linkarea.rng import Lcg64


@pytest.mark.parametrize("seed", [0, 1, 4, 994922, 2 ** 64 - 1])
@pytest.mark.parametrize("n", [1, 2, 1000, 20000])
def test_uniform_array_is_the_scalar_sequence(seed, n):
    scalar, batched = Lcg64(seed), Lcg64(seed)
    scalar.uniform(), batched.uniform()  # start mid-stream
    lo, hi = -0.5, 2.0 * np.pi
    want = np.array([lo + (hi - lo) * scalar.uniform() for _ in range(n)])
    got = batched.uniform_array(n, lo, hi)
    assert got.tobytes() == want.tobytes()
    assert batched._state == scalar._state
    assert batched.uniform() == scalar.uniform()


def test_uniform_array_of_nothing_leaves_the_state():
    rng = Lcg64(3)
    assert rng.uniform_array(0, 0.0, 1.0).shape == (0,)
    assert rng.uniform() == Lcg64(3).uniform()
