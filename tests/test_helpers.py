import numpy as np

from conftest import match_multisets


def test_match_multisets_scalar_sets_ignore_order():
    values = np.array([1.0 + 2.0j, -3.0, 0.5j, 4.0])
    assert match_multisets(values, values[[2, 0, 3, 1]]) == 0.0
    assert match_multisets(list(values), list(values[::-1])) == 0.0
    assert match_multisets(values, values + np.array([0, 0, 1e-3, 0])) > 0.0
