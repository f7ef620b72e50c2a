"""Independent reference amplification used to cross-check the grid kernel.

This is the original one-vector formula, written with scalar arithmetic.
Its bounds are spelled out here rather than imported from the package
under test.
"""

from __future__ import annotations

import math

import numpy as np

AMP_FLOOR = 0.5
AMP_CAP = math.sqrt(0.99)


def brute_amplify(v, target: int) -> np.ndarray:
    """Boost the target amplitude and rescale the rest of the vector.

    The target's magnitude becomes min(max(10 * |a|, 0.5), sqrt(0.99)); the
    other amplitudes shrink in proportion to their previous squared values
    (or share the residual uniformly if they were all zero).  A target at or
    above the cap leaves the vector unchanged.  Signs are preserved.
    """
    v = np.asarray(v, dtype=np.float64)
    amp = v[target]
    a = abs(amp)
    if a >= AMP_CAP:
        return v.copy()
    boosted = min(max(10.0 * a, AMP_FLOOR), AMP_CAP)
    residual = 1.0 - boosted * boosted
    sq = v * v
    others = float(np.sum(sq)) - sq[target]
    if others > 0.0:
        out = v * math.sqrt(residual / others)
    else:
        out = np.full_like(v, math.sqrt(residual / (v.size - 1)))
    out[target] = -boosted if amp < 0 else boosted
    return out
