import numpy as np
import pytest

from rmep.model import EquationBlock, MepProblem, RmepProblem

EPS = float(np.finfo(float).eps)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_problem(rng, m, n, k, square=False):
    """Random dense complex problem with k blocks of shape m x n."""
    blocks = []
    for _ in range(k):
        a = crandn(rng, m, n)
        bs = tuple(crandn(rng, m, n) for _ in range(k))
        blocks.append(EquationBlock(a=a, b=bs))
    cls = MepProblem if square else RmepProblem
    return cls(blocks=tuple(blocks))


def match_multisets(left, right):
    """Greedy-pair two equal-length complex point sets; returns max pair distance.

    Distance between rows is the max absolute difference over components.
    """
    left = np.atleast_2d(np.asarray(left, dtype=np.complex128))
    right = np.atleast_2d(np.asarray(right, dtype=np.complex128))
    if left.shape[0] == 1 and left.shape[1] > 1 and right.shape[0] > 1:
        left = left.T
        right = right.T
    assert left.shape == right.shape
    n = left.shape[0]
    cost = np.max(np.abs(left[:, None, :] - right[None, :, :]), axis=2)
    used_l = np.zeros(n, bool)
    used_r = np.zeros(n, bool)
    worst = 0.0
    for flat in np.argsort(cost, axis=None):
        i, j = divmod(int(flat), n)
        if used_l[i] or used_r[j]:
            continue
        used_l[i] = used_r[j] = True
        worst = max(worst, cost[i, j])
        if used_l.all():
            break
    return worst


@pytest.fixture(scope="session")
def sl_solution_n30():
    """Shared n1 = n2 = 30 solve of the built-in Sturm-Liouville system.

    The 900x900 pencil solve takes ~30 s; several tests consume it.
    """
    from rmep.spectral import builtin_sturm_liouville, discretize
    from rmep.tsvd import solve_complete

    spec = builtin_sturm_liouville(n1=30, n2=30)
    disc = discretize(spec)
    tuples = solve_complete(disc.problem, seed=0)
    return spec, disc, tuples
