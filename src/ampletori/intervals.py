"""Certified logarithms as integers on a dyadic grid.

`log_grid(a, b, bits)` encloses ln(a/b) between two integers lo ≤ hi ≤
lo + 2 read on the grid 2^-bits. The log embedding (units) reads it at
each S-prime and at the integer enclosures of |A(α)|² (realsplit). The
logs come from an atanh series summed in fixed point on Python integers,
with a proven error bound; ln 2 is one such series, cached per grid. No
floating point and no Fraction is made anywhere.
"""

from __future__ import annotations

from functools import lru_cache


def _atanh_fixed(num: int, den: int, q: int, stop: int) -> tuple[int, int]:
    """(total, err) with |atanh(num/den)·2^q − total| ≤ err, for 0 ≤ num/den ≤ 1/2.

    Sums the series in fixed point on the grid 2^-q until the odd power of
    z falls to `stop` (in units of 2^-q) or below.
    """
    x = (num << q) // den  # z = (x + δ)·2^-q with 0 ≤ δ < 1, and x ≤ 2^(q-1)
    y = (x * x) >> q  # (x·2^-q)² ∈ [y, y + 1)·2^-q, at most 1/4
    total, t, k = 0, x, 0
    while t > stop:
        total += t // (2 * k + 1)
        t = (t * y) >> q
        k += 1
    # The bound, in units of 2^-q. Let X_j = (x·2^-q)^(2j+1)·2^q, so
    # X_0 = t_0 = x and atanh(x·2^-q)·2^q = Σ_j X_j/(2j+1).
    # - Powers: 0 ≤ X_j − t_j < 2 for every j. By induction, as
    #   t_{j+1} = ⌊t_j·y·2^-q⌋ > t_j·y·2^-q − 1 and X_{j+1} = X_j·(x·2^-q)²,
    #   X_{j+1} − t_{j+1} < (X_j − t_j)·1/4 + t_j·2^-q + 1 < 1/2 + 1/2 + 1.
    # - Terms: each summed ⌊t_j/(2j+1)⌋ is below X_j/(2j+1) by less than
    #   2/(2j+1) + 1 ≤ 5/3 (by 0 at j = 0), so the k of them by less than 2k.
    # - Tail: Σ_{j≥k} X_j/(2j+1) ≤ X_k/(1 − 1/4) < (4/3)·(t + 2).
    # - Rounding z to x: atanh is increasing with atanh′ = 1/(1 − s²) ≤ 4/3
    #   on [0, 1/2], so 0 ≤ atanh(z)·2^q − atanh(x·2^-q)·2^q < 4/3.
    # Hence 0 ≤ atanh(z)·2^q − total < 2k + (4/3)·(t + 3) ≤ err.
    return total, 2 * k + (4 * t + 14) // 3


def _atanh_grid(num: int, den: int, p: int) -> tuple[int, int]:
    """Integers lo ≤ hi ≤ lo + 2 with lo·2^-p ≤ atanh(num/den) ≤ hi·2^-p.

    Needs den > 0 and |num/den| ≤ 1/2. The series runs on the grid 2^-q,
    q = p + g, and stops once the odd power is at most 2^(g-3). The powers
    fall as t_k ≤ 2^(q-1-2k), so it sums k ≤ (p + 3)/2 terms and
    2·err ≤ 4k + 2^g/3 + 10 ≤ 2^g (as 2^g > 32p): [total ± err] is at most
    one step 2^-p wide, two once rounded outward.
    """
    if 2 * abs(num) > den:
        raise ValueError("atanh series needs |z| <= 1/2")
    if num == 0:
        return 0, 0
    g = p.bit_length() + 5
    total, err = _atanh_fixed(abs(num), den, p + g, 1 << (g - 3))
    lo, hi = (total - err) >> g, -(-(total + err) >> g)
    return (lo, hi) if num > 0 else (-hi, -lo)


@lru_cache(maxsize=32)
def _ln2_grid(p: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) as integers lo ≤ hi ≤ lo + 2 on the grid 2^-p."""
    return _atanh_grid(1, 3, p + 1)


def log_grid(a: int, b: int, bits: int) -> tuple[int, int]:
    """Integers lo ≤ hi ≤ lo + 2, lo·2^-bits ≤ ln(a/b) ≤ hi·2^-bits, for a, b > 0.

    a/b = 2^e·m with m in [2/3, 4/3), and ln(a/b) = e·ln 2 + 2 atanh(z) with
    z = (m−1)/(m+1), |z| ≤ 1/5. Both parts are summed on the grid 2^-p,
    p = bits + 4 + bit_length(|e|), where ln 2 and atanh(z) are each at
    most two steps wide. The sum is at most 2|e| + 4 < 2^(p-bits) steps wide,
    so rounded outward to the grid 2^-bits it is at most two of those.
    e, m and every floor taken depend on a/b only, not on a common factor.
    """
    if a <= 0 or b <= 0:
        raise ValueError("log of a non-positive rational")
    e = a.bit_length() - b.bit_length()  # 2^(e-1) < a/b < 2^(e+1)
    if e >= 0:
        b <<= e
    else:
        a <<= -e
    # m = a/b lies in (1/2, 2)
    if 3 * a < 2 * b:
        a, e = 2 * a, e - 1
    elif 3 * a >= 4 * b:
        b, e = 2 * b, e + 1
    p = bits + 4 + abs(e).bit_length()
    l_lo, l_hi = _ln2_grid(p)
    if e < 0:
        l_lo, l_hi = l_hi, l_lo
    s_lo, s_hi = _atanh_grid(a - b, a + b, p)
    return (e * l_lo + 2 * s_lo) >> (p - bits), -(-(e * l_hi + 2 * s_hi) >> (p - bits))
