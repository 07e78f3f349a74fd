"""Root disks and |A(α)|² enclosures against mpmath roots."""

import math
import random
from fractions import Fraction

import mpmath
import numpy
import pytest

from ampletori import realsplit, units
from ampletori.errors import AmpleToriError, InvalidUnitSystemError, NonMonicError
from ampletori.etale import EtaleAlgebra
from ampletori.polynomials import QPoly, discriminant
from ampletori.realsplit import RealSplitError, RootDisk, _certify, abs_square_on_disk, root_disks
from ampletori.units import assemble_unit_system, build_log_embedding, verify_unit_system

from oracles import oracle_count_real_roots
from test_memos import fresh_memos

SPECIAL = [
    (1, 1, 1, 1, 1),  # zeta5
    (1, 0, 0, 0, 1),  # zeta8
    (1, 0, 3, 0, 1),  # x^4 + 3x^2 + 1: both upper roots on the imaginary axis
    (1, -1, 1, 0, 1),  # the three totally complex quartics of the benchmark
    (1, 1, 2, 0, 1),
    (1, 0, 1, -1, 1),
]
MP_PREC = 700  # bits; far past every disk's centre grid at 256 bits
ORACLE_ERROR = mpmath.mpf(2) ** (100 - MP_PREC)  # the oracle's own error, far below 2^-shift


def _polynomials():
    rng = random.Random(20261018)
    out = list(SPECIAL)
    while len(out) < 200 + len(SPECIAL):
        n = rng.randint(1, 6)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(n)) + (1,)
        if discriminant(QPoly(coeffs)):  # monic: squarefree exactly when disc ≠ 0
            out.append(coeffs)
    return out


POLYNOMIALS = _polynomials()


def _oracle_roots(coeffs):
    """numpy's roots, polished by Newton steps at doubling mpmath precision.

    Checked: n roots, pairwise far apart, each with |f| below 2^-(MP_PREC-80).
    """
    cs = [int(c) for c in reversed(coeffs)]
    ds = [k * c for k, c in zip(range(len(cs) - 1, 0, -1), cs)]
    roots = [mpmath.mpc(complex(r)) for r in numpy.roots(cs)]
    prec = 53
    while prec < MP_PREC:
        prec = min(2 * prec, MP_PREC)
        with mpmath.workprec(prec):
            roots = [r - mpmath.polyval(cs, r) / mpmath.polyval(ds, r) for r in roots]
    with mpmath.workprec(MP_PREC):
        roots = [r - mpmath.polyval(cs, r) / mpmath.polyval(ds, r) for r in roots]
        assert all(abs(mpmath.polyval(cs, r)) < mpmath.mpf(2) ** (80 - MP_PREC) for r in roots)
        assert all(abs(a - b) > 2**-20 for i, a in enumerate(roots) for b in roots[:i])
    return roots


@pytest.fixture(scope="module")
def mp_roots():
    return {c: _oracle_roots(c) for c in POLYNOMIALS}


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _encloses(got, value) -> bool:
    """Whether the integers (lo, hi, scale) enclose value: lo/scale ≤ value ≤ hi/scale."""
    lo, hi, scale = got
    slack = ORACLE_ERROR * (1 + value)
    return mpmath.mpf(lo) / scale <= value + slack and value - slack <= mpmath.mpf(hi) / scale


def _abs_square(a, disk):
    """abs_square_on_disk at the rational coefficients a, as (ints, den);
    the same A scaled by 6 over 6 must give the same integers."""
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    got = abs_square_on_disk((ints, den), disk)
    assert abs_square_on_disk(([6 * c for c in ints], 6 * den), disk) == got
    return got


def _all_disks(disks, r1):
    """The disks and the mirror images of the upper ones."""
    return list(disks) + [RootDisk(d.re, -d.im, d.radius, d.shift) for d in disks[r1:]]


def _holds(disk, root) -> bool:
    unit = mpmath.mpf(2) ** -disk.shift
    return abs(root - mpmath.mpc(disk.re, disk.im) * unit) <= disk.radius * unit + ORACLE_ERROR


@pytest.mark.parametrize("bits", [64, 256])
def test_each_root_lies_in_exactly_one_certified_disk(mp_roots, bits):
    with mpmath.workprec(MP_PREC):
        for coeffs in POLYNOMIALS:
            f = QPoly(coeffs)
            r1 = oracle_count_real_roots(f)
            disks = root_disks(f, bits)
            assert len(disks) == (f.degree + r1) // 2
            assert sum(1 for d in disks if d.im == 0) == r1
            assert all(d.im > 0 for d in disks[r1:])
            assert all(d.radius <= 1 << (d.shift - bits) for d in disks)
            everything = _all_disks(disks, r1)
            for root in mp_roots[coeffs]:
                assert sum(_holds(d, root) for d in everything) == 1, (coeffs, root)


def test_disk_order_follows_real_part_then_modulus(mp_roots):
    with mpmath.workprec(MP_PREC):
        for coeffs in SPECIAL:
            f = QPoly(coeffs)
            disks = root_disks(f, 64)
            upper = sorted(
                (r for r in mp_roots[coeffs] if r.imag > 0),
                key=lambda r: (-mpmath.nint(r.real * 2**40), abs(r)),
            )
            for d, root in zip(disks, upper):
                assert _holds(d, root), coeffs


@pytest.mark.parametrize("bits", [64, 256])
def test_abs_square_on_disk_encloses_the_value_at_the_root(mp_roots, bits):
    rng = random.Random(bits)
    with mpmath.workprec(MP_PREC):
        for coeffs in POLYNOMIALS[::4]:
            f = QPoly(coeffs)
            for disk in root_disks(f, bits):
                a = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in coeffs[1:]]
                root = next(r for r in mp_roots[coeffs] if _holds(disk, r))
                value = abs(sum(_mp(c) * root**k for k, c in enumerate(a))) ** 2
                got = _abs_square(a, disk)
                assert _encloses(got, value)
                lo, hi, scale = got  # (hi − lo)/scale ≤ 2^-(bits/2)·(1 + hi/scale)
                assert (hi - lo) << (bits // 2) <= scale + hi


def _disk_cases():
    """Random disks and polynomials, then sharp cases: positive coefficients
    on a centre right of 1, where |A(z + R) − A(z)| nearly meets the bound."""
    rng = random.Random(7)
    for _ in range(60):
        shift = rng.choice([20, 64])
        disk = RootDisk(
            rng.randint(-3 << shift, 3 << shift),
            rng.randint(-3 << shift, 3 << shift),
            rng.randint(1, 1 << (shift - 6)),
            shift,
        )
        degree = rng.randint(0, 4)
        yield disk, [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(degree + 1)]
    for degree in range(1, 6):
        yield RootDisk(5 << 19, 0, 1 << 14, 20), [Fraction(k + 1, 3) for k in range(degree + 1)]


def test_abs_square_on_disk_encloses_every_point_of_the_disk():
    # any disk, not only a root's: the bound must hold on the whole boundary
    with mpmath.workprec(MP_PREC):
        for disk, a in _disk_cases():
            got = _abs_square(a, disk)
            unit = mpmath.mpf(2) ** -disk.shift
            centre, radius = mpmath.mpc(disk.re, disk.im) * unit, disk.radius * unit
            for t in range(16):
                w = centre + radius * mpmath.expjpi(mpmath.mpf(t) / 8)
                value = abs(sum(_mp(c) * w**k for k, c in enumerate(a))) ** 2
                assert _encloses(got, value), (disk, a, t)


def test_a_wrong_real_root_count_never_certifies():
    # converged centres: the certified ones, and the same with every real
    # centre lifted off the axis by one unit, as Weierstrass sweeps leave them
    for coeffs in POLYNOMIALS:
        f = QPoly(coeffs)
        n, r1 = f.degree, oracle_count_real_roots(f)
        disks = root_disks(f, 64)
        shift = disks[0].shift
        upper = [(d.re, d.im) for d in disks[r1:]]
        real = [(d.re, 0) for d in disks[:r1]]
        lifted = [(x, (-1) ** k) for k, (x, _) in enumerate(real)]
        for centres in (real, lifted):
            zs = centres + upper + [(x, -y) for x, y in upper]
            assert _certify(coeffs, zs, r1, shift, 64) == disks, coeffs
            for wrong in range(n + 1):
                if wrong != r1:
                    assert _certify(coeffs, zs, wrong, shift, 64) is None, (coeffs, wrong)


# x⁴ − 2(2^20·x − 1)²: a Mignotte polynomial, two real roots about 2^-58
# apart, so its 1-bit disks certify only after doublings, on a finer grid
# than its 64-bit ones
MIGNOTTE = (-2, 1 << 22, -(1 << 41), 0, 1)


def _mp_polyroots(coeffs):
    return mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=2 * MP_PREC)


def test_root_disks_do_not_depend_on_a_memoized_coarse_entry(monkeypatch, mp_roots):
    # at more bits the start points are the 1-bit centres: the same disks
    # whether (f, 1) was memoized first or is computed on the way
    cases = SPECIAL + POLYNOMIALS[::10] + [MIGNOTTE]
    fresh_memos(monkeypatch, realsplit.root_disks)
    cold = {c: realsplit.root_disks(QPoly(c), 64) for c in cases}
    fresh_memos(monkeypatch, realsplit.root_disks)
    coarse = {c: realsplit.root_disks(QPoly(c), 1) for c in cases}
    assert {c: realsplit.root_disks(QPoly(c), 64) for c in cases} == cold
    assert coarse[MIGNOTTE][0].shift > cold[MIGNOTTE][0].shift  # shifted right
    with mpmath.workprec(MP_PREC):
        for c in cases:
            r1 = oracle_count_real_roots(QPoly(c))
            roots = _mp_polyroots(c) if c == MIGNOTTE else mp_roots[c]
            for disk in _all_disks(cold[c], r1):
                assert sum(_holds(disk, root) for root in roots) == 1, (c, disk)


def test_large_coefficients_certify_within_the_sweep_bound():
    # x³ + x − (10³⁰⁰ + 3): the starts come in from the Cauchy bound over
    # more than STEPS sweeps, about n per bit of the largest coefficient
    coeffs = (-(10**300 + 3), 1, 0, 1)
    disks = root_disks(QPoly(coeffs), 64)
    assert [d.im == 0 for d in disks] == [True, False]
    with mpmath.workprec(MP_PREC):
        for disk in _all_disks(disks, 1):
            assert sum(_holds(disk, root) for root in _mp_polyroots(coeffs)) == 1


# the degree 2–4 fields of the benchmark's families and of examples 5.1–5.4
LOG_FIELDS = [
    (-3, 0, 1), (-13, -1, 1), (1, 0, 1), (1, 1, 1),
    (-1, 1, 0, 1), (-1, -1, 0, 1), (1, -3, -1, 1), (1, -4, 0, 1),
    (2, 1, -4, -1, 1), (5, 0, -5, 0, 1), (1, -16, 20, -8, 1),
    (1, -1, 1, 0, 1), (1, 1, 2, 0, 1), (1, 0, 1, -1, 1),
]


@pytest.mark.parametrize("bits", units.PRECISION_LADDER)
def test_archimedean_log_balls_hold_the_log_at_the_root(bits):
    # a real column holds log|σ(u)|, a complex one 2·log|σ(u)|, on the grid
    # 2^-(bits+2); the root is the one in the column's disk
    rng = random.Random(bits)
    with mpmath.workprec(MP_PREC):
        for coeffs in LOG_FIELDS:
            e, roots = EtaleAlgebra([QPoly(coeffs)]), _oracle_roots(coeffs)
            elements = [(tuple(rng.randint(-6, 6) for _ in range(e.n)), 1) for _ in range(5)]
            elements = [u for u in elements if any(u[0])]
            emb = build_log_embedding(e, elements, (), bits)
            disks = root_disks(QPoly(coeffs), bits)
            r1 = sum(col.kind == "real" for col in emb.columns)
            unit = mpmath.mpf(2) ** -(bits + 2)
            for u, row in zip(elements, emb.rows):
                ints, den = e.to_power(u)
                for col, (m, r) in zip(emb.columns, row):
                    disk = disks[col.index + (0 if col.kind == "real" else r1)]
                    root = next(z for z in roots if _holds(disk, z))
                    value = mpmath.log(abs(sum(c * root**k for k, c in enumerate(ints))) / den)
                    value *= 1 if col.kind == "real" else 2
                    assert abs(value - m * unit) <= r * unit + ORACLE_ERROR, (coeffs, u, col)


def test_archimedean_log_closes_the_upper_end_of_a_wide_enclosure():
    # A = x on the disk |z − 3/2| ≤ 1/4: |A|² is enclosed in [lo, hi]/scale
    # with hi/lo near 2, so the upper end must reach past ln(lo/scale) by
    # more than the one series at the lower end holds
    disk, col = RootDisk(3 << 20, 0, 1 << 19, 21), units.LogColumn("real", 0, 0)
    lo, hi, scale = abs_square_on_disk(((0, 1), 1), disk)
    assert 2 * hi > 3 * lo > 0
    for bits in units.PRECISION_LADDER:
        m, r = units._archimedean_log(col, lambda b: disk, ((0, 1), 1), bits)
        unit = mpmath.mpf(2) ** -(bits + 2)
        with mpmath.workprec(MP_PREC):
            assert (m - r) * unit <= mpmath.log(mpmath.mpf(lo) / scale) / 2
            assert (m + r) * unit >= mpmath.log(mpmath.mpf(hi) / scale) / 2


def test_a_repeated_root_names_the_polynomial_and_precision():
    named = r"degree-4 polynomial with 2-bit coefficients at \d+ bits"
    with pytest.raises(RealSplitError, match=named) as info:
        root_disks(QPoly([1, 0, 2, 0, 1]), 64)
    assert isinstance(info.value, AmpleToriError) and info.value.module == "realsplit"


def test_a_polynomial_that_is_not_monic_integral_is_refused():
    with pytest.raises(NonMonicError, match="monic integral"):
        root_disks(QPoly([-1, 0, 2]), 64)
    with pytest.raises(ValueError, match="not an integer"):  # a non-integral one is never made
        QPoly([Fraction(1, 2), 0, 1])


def test_a_zero_factor_component_names_its_column_and_precision(monkeypatch):
    def no_disks(*args):
        raise AssertionError("root disks computed for an element with no log")

    monkeypatch.setattr(units, "root_disks", no_disks)
    e = EtaleAlgebra([QPoly([-2, 0, 1]), QPoly([-3, 0, 1])])
    zero_in_second = ((1, 0, 0, 0), 1)
    with pytest.raises(InvalidUnitSystemError, match=r"is zero at real\(1\.0\)"):
        build_log_embedding(e, [zero_in_second], (), 64)


def test_zeta5_unit_rank_certified_through_complex_columns():
    zeta5 = EtaleAlgebra([QPoly([1, 1, 1, 1, 1])])
    system = assemble_unit_system(zeta5, (), 3)
    assert system.torsion_order == 10
    assert system.rank == 1
    cert = verify_unit_system(system)
    assert cert.rank == 1
    assert all(col.startswith("complex") for col in cert.minor_columns)
    # generalized product formula with the certified complex columns
    emb = build_log_embedding(zeta5, list(system.free_generators), (), 64)
    for row in emb.rows:
        assert abs(sum(m for m, _ in row)) <= sum(r for _, r in row)


def test_zeta8_unit_rank_certified():
    zeta8 = EtaleAlgebra([QPoly([1, 0, 0, 0, 1])])
    system = assemble_unit_system(zeta8, (), 3)
    assert system.torsion_order == 8
    cert = verify_unit_system(system)
    assert cert.rank == 1  # r1 + r2 - 1 = 0 + 2 - 1
