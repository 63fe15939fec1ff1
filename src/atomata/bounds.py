"""Closed-form upper bounds on atom quotient complexities."""

from math import comb


def max_atom_complexity(n: int, r: int) -> int:
    """Largest possible quotient complexity of an atom with r complemented
    quotients, for a language with n quotients.

    2^n - 1 at r = 0 and r = n; in between,
    1 + sum over k = 1..r, h = k+1..k+n-r of C(n,h) * C(h,k).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"r must be in 0..{n}, got {r}")
    if r == 0 or r == n:
        return 2**n - 1
    return 1 + sum(
        comb(n, h) * comb(h, k)
        for k in range(1, r + 1)
        for h in range(k + 1, k + n - r + 1)
    )


def max_over_r(n: int) -> tuple[int, int]:
    """(argmax, max) of max_atom_complexity over r = 0..n; ties go to smaller r."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    best_r, best = 0, max_atom_complexity(n, 0)
    for r in range(1, n + 1):
        v = max_atom_complexity(n, r)
        if v > best:
            best_r, best = r, v
    return best_r, best
