# linkarea first: importing it pins OpenBLAS to one thread, which numpy
# reads when it loads (see linkarea/__init__.py)
import linkarea as la
import numpy as np
import pytest

from linkarea import optimize as opt


@pytest.fixture(scope="session")
def hopf():
    return la.hopf_link()


@pytest.fixture(scope="session")
def separated10():
    return la.separated_link(1.0)


@pytest.fixture(scope="session")
def separated15():
    return la.separated_link(1.5)


@pytest.fixture(scope="session")
def separated19():
    return la.separated_link(1.9)


@pytest.fixture(scope="session")
def parallel():
    return la.parallel_circles_link(1.0, 1.0)


@pytest.fixture(scope="session")
def perturbed02():
    return la.perturbed_hopf_link(0.2, 0)


@pytest.fixture(scope="session")
def spline64(perturbed02):
    """perturbed02 sampled at 64 nodes per component, as a samples4 (spline) link."""
    s = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    return la.Link2(la.SampledCurve(perturbed02.c1.point(s)),
                    la.SampledCurve(perturbed02.c2.point(s)))


@pytest.fixture(scope="session")
def small_catalogue(hopf, separated10, perturbed02):
    return {"hopf": hopf, "separated_1.0": separated10, "perturbed_hopf_0.2_s0": perturbed02}


@pytest.fixture(scope="session")
def descent_result():
    """Shared descent run from the perturbed-Hopf start (also used by acceptance)."""
    import time
    start = la.perturbed_hopf_link(0.1, 0)
    v0 = opt.encode_link(start)
    t0 = time.perf_counter()
    result = opt.minimize(v0, steps=2000, stop_below=5e-4)
    result.elapsed_s = time.perf_counter() - t0
    return result


def random_unit4(rng):
    while True:
        v = np.array([rng.normal() for _ in range(4)])
        n = np.linalg.norm(v)
        if n > 0.1:
            return v / n
