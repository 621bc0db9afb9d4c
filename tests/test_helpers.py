import numpy as np

from conftest import frobenius_distance, match_multisets


def test_match_multisets_scalar_sets_ignore_order():
    values = np.array([1.0 + 2.0j, -3.0, 0.5j, 4.0])
    assert match_multisets(values, values[[2, 0, 3, 1]]) == 0.0
    assert match_multisets(list(values), list(values[::-1])) == 0.0
    assert match_multisets(values, values + np.array([0, 0, 1e-3, 0])) > 0.0


def test_frobenius_distance_sums_every_matrix():
    from rmep.model import EquationBlock, RmepProblem

    p = RmepProblem(blocks=(EquationBlock(a=[[2.0], [0.0]], b=([[1.0], [0.0]],)),))
    moved = (EquationBlock(a=[[2.0], [3.0]], b=([[1.0], [4.0j]],)),)
    assert frobenius_distance(p, p.blocks) == 0.0
    assert frobenius_distance(p, moved) == 25.0
