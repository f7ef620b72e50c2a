"""Independent reference sampler used to cross-check observation's kernel.

This is inverse-transform sampling of one vector, written with scalar
arithmetic: the cumulative squares are summed left to right, one element
at a time.
"""

from __future__ import annotations


def brute_sample(v, u: float) -> int:
    """Draw one basis index from amplitudes ``v`` with the uniform ``u``.

    The result is the smallest index whose cumulative squared amplitude
    reaches ``u`` times the vector's total.  When that threshold is 0 (a
    draw of 0, or a product that underflows) it is the first index whose
    squared amplitude is nonzero, so a zero-probability state is never
    drawn.  At least one squared amplitude must be nonzero.
    """
    running, cum = 0.0, []
    for a in v:
        running += float(a) * float(a)
        cum.append(running)
    threshold = float(u) * cum[-1]
    for i, c in enumerate(cum):
        if c > 0.0 and c >= threshold:
            return i
    raise ValueError("every squared amplitude is zero")
