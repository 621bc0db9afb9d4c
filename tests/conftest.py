import contextlib
import ctypes
import importlib
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rmep.model import EquationBlock, MepProblem, RmepProblem

EPS = float(np.finfo(float).eps)

# With CI set (GitHub Actions sets it), the property tests draw the same
# examples on every run and print the blob that replays a failure, so a
# failure in the workflow reproduces locally under CI=1.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def _bundled_openblas(package):
    """The setter of the thread count of the OpenBLAS that a package's wheel
    bundles (it returns the previous count), if the process has loaded that
    library, else None."""
    root = Path(importlib.import_module(package).__file__).parent
    for path in [*root.parent.glob(f"{package}.libs/libscipy_openblas*"), *root.glob(".dylibs/libscipy_openblas*")]:
        try:
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        set_ = lib.openblas_set_num_threads_local
        set_.argtypes, set_.restype = [ctypes.c_int], ctypes.c_int
        return set_
    return None


def cpu_per_wall(work):
    """Process CPU time over wall time of work(): above 1 when a second
    thread, such as a spinning BLAS worker, ran alongside."""
    time.sleep(0.5)  # the workers of earlier BLAS calls stop spinning
    wall, cpu = time.perf_counter(), time.process_time()
    work()
    return (time.process_time() - cpu) / (time.perf_counter() - wall)


@contextlib.contextmanager
def openblas_pools(numpy_threads, scipy_threads, canary, tries=5):
    """Run the body with the thread counts of the OpenBLAS pools that numpy
    and scipy bundle set as given, and yield the canary's CPU/wall: the best
    of up to `tries` runs of canary(), a call that leaves the two-thread
    pool's workers spinning while the other pool's one thread works.

    Skips the calling test where the two pools cannot be told apart: one of
    the packages bundles no OpenBLAS, or no run shows the spin in CPU time
    (canary below 1.5).  On a shared host the canary varies from run to
    run, so the best run counts and one low reading does not skip."""
    pools = _bundled_openblas("numpy"), _bundled_openblas("scipy")
    if None in pools:
        pytest.skip("numpy or scipy bundles no OpenBLAS: there are no two pools to tell apart")
    before = [set_(threads) for set_, threads in zip(pools, (numpy_threads, scipy_threads))]
    try:
        best = 0.0
        for _ in range(tries):
            best = max(best, cpu_per_wall(canary))
            if best >= 1.5:
                break
        else:
            pytest.skip(f"a spinning pool does not show in CPU time here: canary CPU/wall {best:.2f} < 1.5, "
                        f"best of {tries} runs")
        yield best
    finally:
        for set_, threads in zip(pools, before):
            set_(threads)


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


def frobenius_distance(problem, blocks):
    """sum_i ||S^_i - S_i||_F^2 between the problem's blocks and `blocks`,
    summed matrix by matrix over A_i and every B_is with numpy alone."""
    total = 0.0
    for blk, pblk in zip(problem.blocks, blocks, strict=True):
        for mat, pmat in zip((blk.a,) + blk.b, (pblk.a,) + pblk.b, strict=True):
            total += float(np.sum(np.abs(pmat - mat) ** 2))
    return total


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
