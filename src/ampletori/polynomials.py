"""Exact univariate polynomial arithmetic over Z and F_p.

Polynomials are dense lists of coefficients in ascending degree (degrees in
play are at most 8, so sparse storage would buy nothing). A `QPoly` holds
int coefficients; over F_p they are ints reduced mod p. Every polynomial
the program handles is monic integral: the defining factors, the quartic's
cubic resolvent, the cyclotomic Φ_m^k and the characteristic polynomials of
order elements. The zero polynomial is rejected with an explicit error
wherever the operation is meaningless for it, never handled by convention.

A monic factor's invariants run on its integer coefficients: the
discriminant (a cached Bareiss determinant), squarefreeness (disc ≠ 0), the
split prime, p-adic roots, squarefree roots and irreducibility over Q.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterable, Sequence

from . import linalg
from .errors import CompositeModulusError, NonMonicError, ZeroPolynomialError

Coeffs = tuple[int, ...]
MEMO_SIZE = 256  # the bound of every module memo: the most recently used values kept


def _integer(c) -> int:
    """c as an int: an int itself, an integral Fraction its numerator."""
    if type(c) is int:
        return c
    if getattr(c, "denominator", None) == 1:
        return c.numerator
    raise ValueError(f"coefficient {c} is not an integer")


def _strip(coeffs: Sequence[int]) -> Coeffs:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPoly:
    """Polynomial with int coefficients, ascending degree.

    The constructor reads an integral Fraction as its numerator and raises
    ValueError for any other value that is not an int.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs: Coeffs = _strip([_integer(c) for c in coeffs])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return not self.is_zero() and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "QPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "QPoly(" + " + ".join(terms) + ")"

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPoly(out)

    def __pow__(self, k: int) -> "QPoly":
        result = QPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def reduce_mod(self, p: int) -> list[int]:
        """Coefficients reduced mod p."""
        return fp_strip([c % p for c in self.coeffs])


@functools.lru_cache(maxsize=MEMO_SIZE)
def discriminant(f: QPoly) -> int:
    """disc(f) = (−1)^{n(n−1)/2}·Res(f, f′) for monic f of degree n ≥ 1.

    Res(f, f′) is the Bareiss determinant of the (2n−1)² Sylvester matrix
    of f and f′, all in integers (Cohen, GTM 138, §3.3). Cached per
    polynomial (QPoly hashes its coefficients).
    """
    if f.degree < 1:
        raise ZeroPolynomialError("discriminant needs degree >= 1")
    if not f.is_monic():
        raise NonMonicError("discriminant is only defined here for monic input")
    n = f.degree
    top = list(f.coeffs[::-1])  # descending, as Sylvester rows run
    der = [(n - k) * c for k, c in enumerate(top[:-1])]
    rows = [[0] * i + top + [0] * (n - 2 - i) for i in range(n - 1)]
    res = linalg._det(rows + [[0] * i + der + [0] * (n - 1 - i) for i in range(n)])
    return -res if n * (n - 1) // 2 % 2 else res


def squarefree_root(g: QPoly) -> tuple[QPoly, int] | None:
    """(g₀, m) with g = g₀^m and g₀ squarefree, for monic g of degree n ≥ 1;
    None when g is no power of a squarefree polynomial.

    For m | n, smallest first, g₀ is read off g's top coefficients. Read
    backwards, g and g₀ are G = 1 + g_(n−1)·y + … and H = 1 + c_1·y + …
    with H^m = G; the coefficient of y^j in H^m is m·c_j plus a polynomial
    in c_1..c_(j−1), so each c_j takes one exact division by m (g₀ is
    integral by Gauss's lemma). Only m = the common multiplicity of g's
    irreducible factors can give a squarefree g₀.
    """
    n, top = g.degree, g.coeffs[::-1]
    for m in (m for m in range(1, n + 1) if not n % m):
        h = [1]
        for j in range(1, n // m + 1):
            power = (QPoly(h) ** m).coeffs
            c, rest = divmod(top[j] - (power[j] if j < len(power) else 0), m)
            if rest:
                break
            h.append(c)
        else:
            g0 = QPoly(h[::-1])
            if g0**m == g and discriminant(g0):
                return g0, m
    return None


# ---------------------------------------------------------------------------
# F_p polynomial arithmetic (int lists, ascending degree)
# ---------------------------------------------------------------------------

FpPoly = list[int]


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin, valid far beyond the sizes used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def strip_primes(n: int, primes: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """Divide out the given primes; returns (cofactor, exponents)."""
    n = abs(n)
    exps = {p: 0 for p in primes}
    for p in primes:
        while n and n % p == 0:
            n //= p
            exps[p] += 1
    return n, exps


def is_s_number(n: int, s_primes: tuple[int, ...]) -> bool:
    """True iff n = ±∏ p^{a_p} over the S-primes (a unit of Z[1/S] in Z)."""
    return n != 0 and strip_primes(n, s_primes)[0] == 1


def fp_strip(a: Sequence[int]) -> FpPoly:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_add(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return fp_strip(out)


def fp_sub(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    return fp_add(a, [(-c) % p for c in b], p)


def fp_mul(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return fp_strip(out)


def fp_divmod(a: FpPoly, b: FpPoly, p: int) -> tuple[FpPoly, FpPoly]:
    if not b:
        raise ZeroPolynomialError("division by zero polynomial")
    rem = list(a)
    db, da = len(b) - 1, len(rem) - 1
    if da < db:
        return [], fp_strip(rem)
    inv = pow(b[-1], -1, p)
    quot = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = rem[k + db] * inv % p
        quot[k] = c
        if c:
            for j, cb in enumerate(b):
                rem[k + j] = (rem[k + j] - c * cb) % p
    return fp_strip(quot), fp_strip(rem)


def fp_mod(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    return fp_divmod(a, b, p)[1]


def fp_gcd(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    while b:
        a, b = b, fp_mod(a, b, p)
    return fp_monic(a, p) if a else a


def fp_monic(a: FpPoly, p: int) -> FpPoly:
    if not a:
        raise ZeroPolynomialError("zero polynomial cannot be made monic")
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_pow_mod(base: FpPoly, e: int, mod: FpPoly, p: int) -> FpPoly:
    result = [1]
    base = fp_mod(base, mod, p)
    while e:
        if e & 1:
            result = fp_mod(fp_mul(result, base, p), mod, p)
        base = fp_mod(fp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def fp_derivative(a: FpPoly, p: int) -> FpPoly:
    return fp_strip([i * c % p for i, c in enumerate(a)][1:])


def _fp_squarefree_decomposition(f: FpPoly, p: int) -> list[tuple[FpPoly, int]]:
    """List of (squarefree g_i, multiplicity m_i) with f = ∏ g_i^{m_i}, monic."""
    f = fp_monic(f, p)
    if len(f) - 1 == 0:
        return []
    d = fp_derivative(f, p)
    if not d:
        # f = h(x^p) = (h*(x))^p over the prime field
        h = fp_strip([f[i] for i in range(0, len(f), p)])
        return [(g, m * p) for g, m in _fp_squarefree_decomposition(h, p)]
    out: list[tuple[FpPoly, int]] = []
    c = fp_gcd(f, d, p)
    w = fp_divmod(f, c, p)[0]
    m = 1
    while len(w) - 1 > 0:
        y = fp_gcd(w, c, p)
        z = fp_divmod(w, y, p)[0]
        if len(z) - 1 > 0:
            out.append((z, m))
        w = y
        c = fp_divmod(c, y, p)[0]
        m += 1
    if len(c) - 1 > 0:
        # c holds the factors of p-divisible multiplicity, with their full
        # multiplicity intact; the recursive call resolves the x^p structure
        out.extend(_fp_squarefree_decomposition(c, p))
    return out


def _distinct_degree(f: FpPoly, p: int) -> list[tuple[FpPoly, int]]:
    """Split squarefree monic f into products of irreducibles of equal degree."""
    out = []
    h = [0, 1]  # x
    rest = f
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = fp_pow_mod(h, p, rest, p)
        g = fp_gcd(fp_sub(h, [0, 1], p), rest, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            rest = fp_divmod(rest, g, p)[0]
            h = fp_mod(h, rest, p)
    if len(rest) - 1 > 0:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree_split(f: FpPoly, d: int, p: int, rng: random.Random) -> list[FpPoly]:
    """Cantor–Zassenhaus equal-degree factorization of squarefree monic f."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        h = [rng.randrange(p) for _ in range(n)]
        h = fp_strip(h)
        if len(h) - 1 < 1:
            continue
        g = fp_gcd(h, f, p)
        if 0 < len(g) - 1 < n:
            pass  # lucky split
        elif p == 2:
            # trace map T(h) = h + h^2 + ... + h^(2^(d-1))
            t = list(h)
            acc = list(h)
            for _ in range(d - 1):
                acc = fp_pow_mod(acc, 2, f, p)
                t = fp_add(t, acc, p)
            g = fp_gcd(t, f, p)
            if not (0 < len(g) - 1 < n):
                continue
        else:
            e = (p**d - 1) // 2
            w = fp_pow_mod(h, e, f, p)
            g = fp_gcd(fp_sub(w, [1], p), f, p)
            if not (0 < len(g) - 1 < n):
                continue
        rest = fp_divmod(f, g, p)[0]
        return _equal_degree_split(g, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def _value(poly: Sequence[int], x: int, m: int) -> int:
    """poly(x) mod m, by Horner's rule."""
    acc = 0
    for a in reversed(poly):
        acc = (acc * x + a) % m
    return acc


def _fp_roots(g: FpPoly, p: int) -> list[int]:
    """The roots in F_p of monic g, a product of distinct linear factors, in
    increasing order: by Horner evaluation at every residue when
    p·deg g ≤ 10^4, else by the seeded equal-degree split."""
    n = len(g) - 1
    if 1 < n and p * n <= 10**4:
        return list(itertools.islice((r for r in range(p) if not _value(g, r, p)), n))
    return sorted(-h[0] % p for h in _equal_degree_split(g, 1, p, _seeded_rng(g, p))) if n else []


def _seeded_rng(fp: FpPoly, p: int) -> random.Random:
    """The Cantor–Zassenhaus randomness for f mod p, a function of (f mod p, p).

    A str seed is hashed by random itself (SHA-512), the same in every process."""
    return random.Random("factor:%d:" % p + ",".join(map(str, fp)))


def factor_mod_p(f: QPoly | Sequence[int], p: int) -> list[tuple[FpPoly, int]]:
    """Factor f mod p into monic irreducibles with multiplicities.

    Distinct-degree then equal-degree splitting (Cantor–Zassenhaus), with the
    CZ randomness seeded from (the part being split, p), and only when a
    part needs splitting; linear factors come from their roots
    (`_fp_roots`). Factors are sorted by (degree, coefficients), so the
    seed moves the trial count, never the answer.
    """
    if not is_prime(p):
        raise CompositeModulusError(f"{p} is not prime")
    if isinstance(f, QPoly):
        fp = f.reduce_mod(p)
    else:
        fp = fp_strip([c % p for c in f])
    if not fp:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if len(fp) - 1 == 0:
        return []
    result: list[tuple[FpPoly, int]] = []
    for sqfree, mult in _fp_squarefree_decomposition(fp, p):
        for part, d in _distinct_degree(sqfree, p):
            if d == 1:
                irreducibles = [[-r % p, 1] for r in _fp_roots(part, p)]
            else:
                irreducibles = _equal_degree_split(part, d, p, _seeded_rng(part, p))
            result.extend((fp_monic(g, p), mult) for g in irreducibles)
    result.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return result


# ---------------------------------------------------------------------------
# Integers and irreducibility over Q
# ---------------------------------------------------------------------------


def is_square_integer(n: int) -> bool:
    """True iff n is a perfect square (negative numbers are not)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------------
# p-adic roots at a split prime, and irreducibility over Q
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=MEMO_SIZE)
def split_prime(f: QPoly, avoid: int = 1) -> int:
    """The smallest prime p ∤ disc(f)·avoid modulo which f splits into linear factors.

    f is monic integral and squarefree, so f mod p is squarefree and it
    splits exactly when x^p ≡ x modulo (f, p). Such primes exist and have
    density 1/|Gal(f)| (Chebotarev), so the search grows with the Galois group.
    """
    disc, coeffs = discriminant(f), f.coeffs
    if not disc:
        raise ValueError(f"{f!r} is not squarefree")
    p = 1
    while True:
        p += 1
        if not disc * avoid % p or not is_prime(p):
            continue
        fp = [c % p for c in coeffs]
        if fp_pow_mod([0, 1], p, fp, p) == fp_mod([0, 1], fp, p):
            return p


def padic_roots(f: QPoly, p: int, q: int) -> list[int]:
    """The roots of monic integral f modulo q = p^k above its roots modulo p.

    The roots modulo p are those of gcd(x^p − x, f) over F_p (`_fp_roots`).
    Every one must be simple (p ∤ disc f): Newton's iteration, doubling the
    precision at each step, lifts each to the unique root of f in Z_p above
    it (Hensel). Ordered by residue modulo p.
    """
    c = f.coeffs
    dc, fp = [i * a for i, a in enumerate(c)][1:], [a % p for a in c]
    out = []
    for r in _fp_roots(fp_gcd(fp_sub(fp_pow_mod([0, 1], p, fp, p), [0, 1], p), fp, p), p):
        m = p
        while m < q:
            m = min(m * m, q)
            r = (r - _value(c, r, m) * pow(_value(dc, r, m), -1, m)) % m
        out.append(r)
    return out


def _linear_product(roots: Iterable[int], q: int) -> list[int]:
    """∏ (x − r) over the roots, ascending coefficients modulo q."""
    h = [1]
    for r in roots:
        h = [(a - r * b) % q for a, b in zip([0] + h, h + [0])]
    return h


def _mul_mod_monic(a: Sequence, b: Sequence, f: Sequence[int]) -> list:
    """The deg f coefficients of a·b mod the monic integral f, all lists
    ascending; integer coefficients stay integers, rational ones rational."""
    d, prod = len(f) - 1, [0] * max(len(a) + len(b) - 1, len(f) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):  # x^k = x^(k−d)·(x^d − f)
        for t in range(d):
            prod[k - d + t] -= prod[k] * f[t]
    return prod[:d]


def _symmetric_residue(a: int, q: int) -> int:
    """The representative of a mod q in (−q/2, q/2]."""
    a %= q
    return a - q if 2 * a > q else a


def cauchy_bound(f: QPoly) -> int:
    """1 + max|a_k| over k < n, above |α| for every complex root α of monic integral f."""
    return 1 + max((abs(c) for c in f.coeffs[:-1]), default=0)


def _integer_roots(f: QPoly) -> list[int]:
    """The integer roots of monic integral squarefree f, in increasing order.

    They are below the Cauchy bound B of f, so at the smallest prime p ∤
    disc f each lies among f's roots in Z_p lifted past p^k > 2B and read
    in (−p^k/2, p^k/2].
    """
    disc, p = discriminant(f), 2
    while not disc % p or not is_prime(p):
        p += 1
    q = p
    while q <= 2 * cauchy_bound(f):
        q *= p
    c = f.coeffs
    roots = (_symmetric_residue(r, q) for r in padic_roots(f, p, q))
    return sorted(r for r in roots if not sum(a * r**k for k, a in enumerate(c)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def is_irreducible_q(f: QPoly) -> bool:
    """Decide irreducibility over Q for monic integral f, in every degree.

    A squarefree f has n distinct roots in Z_p at p = split_prime(f), and a
    monic factor of degree m ≤ n/2 over Z is the product of m of them. Its
    coefficients are at most C(m, j)·‖f‖₂ < 2^n·‖f‖₂ (Mignotte), so the
    roots are lifted to p^k > 2^(n+1)·‖f‖₂, and the product of every subset
    of at most n/2 of them, read in (−p^k/2, p^k/2], is tried as a factor
    (Zassenhaus recombination; Cohen, GTM 138, §3.5). Below degree 4 an
    integer root is the only possible factor, so that decides alone.
    """
    if f.is_zero() or f.degree < 1:
        return False
    if not f.is_monic():
        raise NonMonicError("irreducibility test expects a monic integral polynomial")
    n = f.degree
    if not discriminant(f):  # monic: squarefree exactly when disc f ≠ 0
        return False
    if n <= 3:  # a proper factor would include a linear one
        return n == 1 or not _integer_roots(f)
    p = split_prime(f)
    bound, q = 2 ** (n + 1) * (math.isqrt(sum(c**2 for c in f.coeffs)) + 1), p
    while q <= bound:
        q *= p
    c, roots = f.coeffs, padic_roots(f, p, q)
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(roots, size):
            h = [_symmetric_residue(a, q) for a in _linear_product(subset, q)]
            rem = list(c)
            for k in range(n - size, -1, -1):  # f mod the monic h, over Z
                lead = rem[k + size]
                for j, a in enumerate(h):
                    rem[k + j] -= lead * a
            if not any(rem):
                return False
    return True
