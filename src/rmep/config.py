"""Central numerical configuration.

All tolerances in the package are expressed as multiples of the double
precision machine epsilon times a norm scale of the data involved.  The
multipliers and hard thresholds live here so there is a single knob for
every module.
"""

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class NumericsConfig:
    """Tolerance and size settings shared by all solvers.

    gamma_threshold    -- below this, a homogeneous eigenvalue is treated as
                          infinite instead of dividing alpha by gamma.
    hermitian_rtol     -- allowed relative asymmetry before a matrix is
                          rejected as non-Hermitian.
    singular_pair_rtol -- multiple of eps*scale under which both homogeneous
                          coordinates of a pencil eigenvalue are flagged as a
                          singular-pencil artifact.
    kron_cap           -- maximum rows or columns of any dense Kronecker
                          product (the operator determinants grow as the
                          product of the block sizes).
    cond_threshold     -- largest condition number of the leading operator
                          determinant for which the plain pencil is solved
                          directly; beyond it a random shift is used.
    weight_trials      -- random shift weights drawn before giving up.
    irregular_rcond    -- reciprocal condition number below which a shifted
                          combination counts as numerically singular.
    stagnation_kkt     -- normalized KKT residual above which a converged-by-
                          objective alternating run is reported as stagnated.
    attainment_margin  -- margin under 1.0 required of the leading V-block
                          spectral norm before the truncation certificate is
                          marked attained.
    """

    eps: float = EPS
    gamma_threshold: float = 1e-12
    hermitian_rtol: float = 1e-10
    singular_pair_rtol: float = 1e3 * EPS
    kron_cap: int = 20_000
    cond_threshold: float = 1e12
    weight_trials: int = 8
    irregular_rcond: float = EPS
    stagnation_kkt: float = 1e-4
    attainment_margin: float = 1e-10


DEFAULT = NumericsConfig()
