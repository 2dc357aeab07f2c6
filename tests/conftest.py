# linkarea first: importing it pins OpenBLAS to one thread, which numpy
# reads when it loads (see linkarea/__init__.py)
import linkarea as la
import numpy as np
import pytest

from linkarea import minkowski as mk
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
    return la.parallel_circles_link()


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


def lk1_component(kind, factor=1.0, huge=False):
    """A component entry of the kind, its numbers times factor: the Hopf link's
    first component (fourier4, samples4 at 16 nodes) or a circle in R^3
    (samples3); huge makes the first number 10^400, which json writes as an
    integer literal beyond the double range."""
    s = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    circle = la.hopf_link().c1
    field, values = {"fourier4": ("coefficients", circle.coeffs),
                     "samples4": ("nodes", circle.point(s)),
                     "samples3": ("nodes", np.stack([3 + np.cos(s), np.sin(s), 0 * s], 1))}[kind]
    values = (factor * values).tolist()
    if huge:
        values[0][0] = 10 ** 400
    return {"kind": kind, field: values}


def torus_curve_link(p, q, r):
    """The torus curve (R cos ps, R sin ps, r cos qs, r sin qs), R = sqrt(1 - r^2),
    with its core circle (0, 0, cos t, sin t); mode k's cos and sin coefficients
    sit in columns 2k - 1 and 2k."""
    big = np.sqrt(1.0 - r * r)
    curve = np.zeros((4, 2 * max(p, q) + 1))
    curve[0, 2 * p - 1] = curve[1, 2 * p] = big
    curve[2, 2 * q - 1] = curve[3, 2 * q] = r
    core = np.zeros((4, 3))
    core[2, 1] = core[3, 2] = 1.0
    return la.Link2(la.FourierCurve(curve), la.FourierCurve(core)), big


def random_unit4(rng):
    while True:
        v = np.array([rng.normal() for _ in range(4)])
        n = np.linalg.norm(v)
        if n > 0.1:
            return v / n


#: position of each index pair (i, j) among the ten wedge coordinates
PAIR_INDEX = {ij: k for k, ij in enumerate(mk.PAIRS)}


# reference routes of the Minkowski algebra, independent of its coordinate
# forms: the inner product of R^5, the determinant form of inner10 and the
# quadratic relations that vanish exactly on decomposable 2-vectors


def inner5(u, v):
    """Indefinite inner product of two vectors in R^5 (broadcasts)."""
    return np.sum(np.asarray(u, dtype=float) * mk.ETA5 * np.asarray(v, dtype=float), axis=-1)


def inner10_det(x, y, xp, yp):
    """Determinant form of mk.inner10(mk.wedge(x, y), mk.wedge(xp, yp))."""
    return -(inner5(x, xp) * inner5(y, yp) - inner5(x, yp) * inner5(y, xp))


#: the 4-subsets of the indices, one relation each
_QUADS = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]


def plucker_residuals(p):
    """The five Plücker relations of the 2-vectors p (broadcasts); for each
    4-subset (a, b, c, d), -(p_ab p_cd - p_ac p_bd + p_ad p_bc)."""
    p = np.asarray(p, dtype=float)

    def at(i, j):
        return p[..., PAIR_INDEX[(i, j)]]

    return np.stack([-(at(a, b) * at(c, d) - at(a, c) * at(b, d) + at(a, d) * at(b, c))
                     for a, b, c, d in _QUADS], axis=-1)
