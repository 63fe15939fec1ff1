"""Closed-form upper bounds on atom quotient complexities."""

# `atomata bounds N` refuses a larger N: the numbers have up to about N/2 digits,
# N = 1,000 takes 0.6 s for 460 KB of output, 2,000 takes 6.5 s (2 cores, Python 3.11)
MAX_BOUNDS_N = 1000


def max_atom_complexities(n: int) -> list[int]:
    """``max_atom_complexity(n, r)`` for r = 0..n, in O(n^2) integer operations.

    As C(n,h)·C(h,k) = C(n,k)·C(n-k,h-k), the double sum for 0 < r < n is
    1 + sum over m = t..n-1 of C(n,m)·(S(m,t) - 1), with t = n - r and
    S(m,t) = sum over j <= t of C(m,j); S(m+1,t) = 2·S(m,t) - C(m,t)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    binom, pascal, sums, acc = 1, [1], [1], [0] * n  # C(n,m), C(m,t), S(m,t), acc[t]
    for m in range(n):
        for t in range(1, m + 1):
            acc[t] += binom * (sums[t] - 1)
        binom = binom * (n - m) // (m + 1)
        sums = [2 * s - c for s, c in zip(sums, pascal)] + [2 << m]
        pascal = [a + b for a, b in zip(pascal + [0], [0] + pascal)]
    return [2**n - 1] + [1 + acc[n - r] for r in range(1, n)] + [2**n - 1]


def max_atom_complexity(n: int, r: int) -> int:
    """Largest possible quotient complexity of an atom with r complemented
    quotients, for a language with n quotients.

    2^n - 1 at r = 0 and r = n; in between,
    1 + sum over k = 1..r, h = k+1..k+n-r of C(n,h) * C(h,k)
    (computed as in ``max_atom_complexities``).
    """
    if not 0 <= r <= n:
        raise ValueError(f"r must be in 0..{n}, got {r}")
    return max_atom_complexities(n)[r]


def max_over_r(n: int) -> tuple[int, int]:
    """(argmax, max) of max_atom_complexity over r = 0..n; ties go to smaller r."""
    row = max_atom_complexities(n)
    return row.index(max(row)), max(row)
