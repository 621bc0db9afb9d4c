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


def shared_b_problem():
    """Square k = 2 problem whose blocks share (B_1, B_2), so D_0 is singular:
    two finite and two infinite tuples."""
    rng = np.random.default_rng(0)
    b1, b2 = crandn(rng, 2, 2), crandn(rng, 2, 2)
    return MepProblem(blocks=tuple(EquationBlock(a=crandn(rng, 2, 2), b=(b1, b2)) for _ in range(2)))


def pencil_vector_error(problem, t):
    """Largest distance, up to phase, of t's vectors from numpy's smallest
    right singular vectors of gamma A_i - sum_s alpha_s B_is."""
    worst = 0.0
    for blk, x in zip(problem.blocks, t.vectors):
        pencil = t.value.gamma * blk.a - sum(a * b for a, b in zip(t.value.alphas, blk.b))
        v = np.linalg.svd(pencil)[2][-1].conj()
        overlap = np.vdot(v, x)
        worst = max(worst, float(np.linalg.norm(x - v * overlap / abs(overlap))))
    return worst


def match_multisets(left, right):
    """Greedy-pair two equal-length complex point sets; returns max pair distance.

    Points are rows; 1-D input is a set of scalars.  Distance between rows is
    the max absolute difference over components.
    """
    left = np.asarray(left, dtype=np.complex128)
    right = np.asarray(right, dtype=np.complex128)
    left = left.reshape(-1, 1) if left.ndim == 1 else left
    right = right.reshape(-1, 1) if right.ndim == 1 else right
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
