"""Distance of a rotation number from low-denominator rationals: the tests
that compare growth against brute force pick energies away from them."""

import math


def resonance_gap(theta: float, qmax: int = 50) -> float:
    """min over 1 <= q <= qmax of dist(q theta, Z)/q: closeness to low rationals."""
    best = math.inf
    for q in range(1, qmax + 1):
        x = q * theta
        d = abs(x - round(x)) / q
        if d < best:
            best = d
    return best
