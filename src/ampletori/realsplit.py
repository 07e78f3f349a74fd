"""Certified root disks of a monic integral polynomial: the archimedean
places of the log embedding.

`root_disks` approximates every complex root by Durand–Kerner (Weierstrass)
iteration on Gaussian fixed-point integers and certifies the result with
Smith's inclusion theorem (B. T. Smith, J. ACM 17, 1970): for distinct
centres z_1..z_n of a monic f of degree n, the disks

    |z − z_i| ≤ n·|f(z_i) / ∏_{j≠i} (z_i − z_j)|

cover the roots, and a union of m of them that meets no other disk holds
exactly m roots. So n pairwise disjoint disks hold one root each. The
centres are closed under conjugation. A disk centred on the real axis is
its own mirror image, so its one root is real. An upper disk misses its
mirror, so its root is not real, and the two hold a conjugate pair. So the
real-centred disks count the real roots, which gives the signature.
`abs_square_on_disk` then encloses |A(α)|² for the root α in a disk.
Everything is integer arithmetic.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import AmpleToriError, NonMonicError
from .linalg import IntVec, _int_vec
from .polynomials import MEMO_SIZE, QPoly, cauchy_bound

DOUBLINGS = 6  # working-precision doublings before root_disks gives up
STEPS = 100  # Weierstrass sweeps per working precision at most


class RealSplitError(AmpleToriError):
    module = "realsplit"


class RootDisk(NamedTuple):
    """The closed disk |z − (re + i·im)·2^-shift| ≤ radius·2^-shift."""

    re: int
    im: int
    radius: int
    shift: int


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _horner_exact(coeffs: list[int], x: int, y: int, p: int) -> tuple[int, int]:
    """f(z)·2^(np) for z = (x + iy)·2^-p and f = Σ coeffs[k]·z^k of degree n."""
    ax, ay = coeffs[-1], 0
    for t, c in enumerate(reversed(coeffs[:-1]), 1):
        ax, ay = ax * x - ay * y + (c << (t * p)), ax * y + ay * x
    return ax, ay


def _weierstrass(coeffs: list[int], zs: list[tuple[int, int]], p: int) -> None:
    """Gauss–Seidel Weierstrass sweeps on the centres zs, in units of 2^-p.

    Stops once no correction exceeds 16 units, or after STEPS sweeps.
    """
    n, one = len(zs), 1 << p
    for _ in range(STEPS):
        largest = 0
        for i, (x, y) in enumerate(zs):
            fx, fy = one, 0
            for c in reversed(coeffs[:-1]):
                fx, fy = ((fx * x - fy * y) >> p) + (c << p), (fx * y + fy * x) >> p
            dx, dy = one, 0
            for j, (u, v) in enumerate(zs):
                if j != i:
                    u, v = x - u, y - v
                    dx, dy = (dx * u - dy * v) >> p, (dx * v + dy * u) >> p
            den = dx * dx + dy * dy
            if den == 0:  # coincident centres: step off by one unit
                zs[i] = (x + 1, y + 1)
                largest = one
                continue
            wx = ((fx * dx + fy * dy) << p) // den
            wy = ((fy * dx - fx * dy) << p) // den
            zs[i] = (x - wx, y - wy)
            largest = max(largest, abs(wx), abs(wy))
        if largest <= 16:
            return


def _certify(coeffs, zs, r1: int, p: int, bits: int) -> tuple[RootDisk, ...] | None:
    """Smith disks on zs made conjugation-closed, if each radius is ≤ 2^-bits
    and all n are pairwise disjoint; else None."""
    n = len(zs)
    by_height = sorted(zs, key=lambda z: abs(z[1]))
    upper = [z for z in by_height[r1:] if z[1] > 0]
    if 2 * len(upper) != n - r1:
        return None
    # upper centres by decreasing real part, then |z|²; real parts are
    # rounded to the grid 2^(2-bits) first, so that two equal ones, each
    # known to within 2^-bits, compare equal
    grid = p - bits + 2
    upper.sort(key=lambda z: (-((z[0] + (1 << (grid - 1))) >> grid), z[0] ** 2 + z[1] ** 2))
    real = sorted((x, 0) for x, _ in by_height[:r1])
    centres = real + upper + [(x, -y) for x, y in upper]
    radii = []
    for i, (x, y) in enumerate(centres[: r1 + len(upper)]):
        fx, fy = _horner_exact(coeffs, x, y, p)
        dx, dy = 1, 0
        for j, (u, v) in enumerate(centres):
            if j != i:
                u, v = x - u, y - v
                dx, dy = dx * u - dy * v, dx * v + dy * u
        den = dx * dx + dy * dy
        if den == 0:
            return None
        # (radius·2^p)² = n²·|f(z)·2^(np)|² / |∏(z − z_j)·2^((n-1)p)|²
        radius = _ceil_sqrt(-(-n * n * (fx * fx + fy * fy) // den))
        if radius > 1 << (p - bits):
            return None
        radii.append(radius)
    radii += radii[r1:]
    for i in range(n):
        for j in range(i + 1, n):
            (x, y), (u, v) = centres[i], centres[j]
            if (x - u) ** 2 + (y - v) ** 2 <= (radii[i] + radii[j]) ** 2:
                return None
    return tuple(RootDisk(x, y, r, p) for (x, y), r in zip(centres, radii[: r1 + len(upper)]))


@functools.lru_cache(maxsize=MEMO_SIZE)
def root_disks(f: QPoly, bits: int) -> tuple[RootDisk, ...]:
    """One certified disk of radius ≤ 2^-bits per archimedean place of f.

    f is monic integral and squarefree. The disks centred on the real axis
    come first, in increasing order, one per real root; then one disk above
    the axis per conjugate pair, by decreasing real part and then increasing
    |z|². Each holds exactly one root of f, and no two meet (nor does an
    upper disk meet a mirror image). The real-root count r1 is not given:
    every r1 ≡ n (mod 2) is tried, and a wrong one never certifies, since a
    real-centred disk's root is real and an upper disk's is not. The start
    points are R·((4 + 9i)/10)^k with R the Cauchy bound of f. When the
    disks do not certify, the working precision doubles, up to DOUBLINGS
    times; then RealSplitError names f and the precision. Memoized per
    (f, bits): the disks are deterministic in them (fixed start points,
    exact integer iteration), and a tuple of NamedTuples cannot be edited.
    """
    if not f.is_monic():
        raise NonMonicError(f"root disks need a monic integral polynomial, not {f!r}")
    coeffs = f.coeffs
    n = len(coeffs) - 1
    p = bits + 2 * n + 16
    bound = cauchy_bound(f)
    zs, gx, gy = [], 1, 0
    for k in range(n):
        zs.append(((bound * gx << p) // 10**k, (bound * gy << p) // 10**k))
        gx, gy = 4 * gx - 9 * gy, 9 * gx + 4 * gy
    for _ in range(DOUBLINGS):
        _weierstrass(coeffs, zs, p)
        for r1 in range(n % 2, n + 1, 2):
            disks = _certify(coeffs, zs, r1, p, bits)
            if disks is not None:
                return disks
        zs = [(x << p, y << p) for x, y in zs]
        p *= 2
    raise RealSplitError(f"could not certify root disks of {f!r} at {p // 2} bits")


def abs_square_on_disk(a: IntVec, disk: RootDisk) -> tuple[int, int, int]:
    """Integers (lo, hi, scale), lo/scale ≤ |A(α)|² ≤ hi/scale for every α in
    the disk, for A with coefficients a = (ints, den), put in lowest terms.

    With z the centre and R the radius,
    |A(α) − A(z)| ≤ E = R·Σ k|a_k|(|z| + R)^(k−1), so |A(α)| lies within E
    of |A(z)|, whose square is exact. The lower end is 0 unless |A(z)| > E.
    """
    ints, e = _int_vec(*a)
    d = len(ints) - 1
    while d >= 0 and not ints[d]:
        d -= 1
    if d < 0:
        return 0, 0, 1
    p, rho = disk.shift, disk.radius
    # A(z)·e·2^(dp) and E·e·2^(dp), with |z|·2^p + R·2^p ≤ m
    gx, gy = _horner_exact(ints[: d + 1], disk.re, disk.im, p)
    m = _ceil_sqrt(disk.re**2 + disk.im**2) + rho
    err, mk = 0, 1
    for k in range(1, d + 1):
        err += k * abs(ints[k]) * mk << ((d - k) * p)
        mk *= m
    err *= rho
    sq = gx * gx + gy * gy
    cross = 2 * err * _ceil_sqrt(sq)
    lo = max(sq + err * err - cross, 0) if sq > err * err else 0
    return lo, sq + err * err + cross, (e << (d * p)) ** 2
