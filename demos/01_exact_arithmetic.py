"""Exact polynomial arithmetic: discriminants, root disks, p-adic lifts, factoring.

Everything runs over exact integers or F_p; no floating point
enters a computation, so every printed number rests on a certificate (the
decimals below only display exact values).
"""

from fractions import Fraction

from ampletori import QPoly, discriminant, factor_mod_p, signature
from ampletori.polynomials import padic_roots
from ampletori.realsplit import root_disks

cubic = QPoly([-1, 1, 0, 1])  # x^3 + x - 1
quartic = QPoly([1, -16, 20, -8, 1])  # x^4 - 8x^3 + 20x^2 - 16x + 1
gauss = QPoly([1, 0, 1])  # x^2 + 1

print("defining polynomials")
print("  cubic   :", cubic)
print("  quartic :", quartic)
print("  gauss   :", gauss)

print("\ndiscriminants (ramified primes divide these)")
print("  disc cubic   =", discriminant(cubic), " (so 31 is the only bad prime)")
print("  disc quartic =", discriminant(quartic), " = 2^8 * 3^2")
print("  disc gauss   =", discriminant(gauss))

print("\nsignatures from certified root disks (one disjoint disk per root)")
for name, f in (("cubic", cubic), ("quartic", quartic), ("gauss", gauss)):
    sig = signature(f)
    print(f"  {name:7s}: {sig.r1} of {f.degree} disks on the real axis -> signature ({sig.r1}, {sig.r2})")

print("\nthe quartic's four real roots, each in a disk of radius <= 2^-20:")
for disk in root_disks(quartic, 20):
    centre = Fraction(disk.re, 1 << disk.shift)
    print(f"  root within 2^-20 of {float(centre):.7f}")

print("\nroots in Z_7 lifted by Newton's iteration (Hensel):")
print("  x^2 - 2 mod 7^8:", padic_roots(QPoly([-2, 0, 1]), 7, 7**8))


print("\nfactorization over F_p (distinct-degree + equal-degree splitting)")
for p in (2, 3, 5, 13):
    factors = factor_mod_p(gauss, p)
    pretty = " * ".join(
        "(" + " + ".join(f"{c}x^{i}" if i else str(c) for i, c in enumerate(g) if c) + ")"
        + (f"^{m}" if m > 1 else "")
        for g, m in factors
    )
    split = "split" if len(factors) == 2 else "inert"
    print(f"  x^2+1 mod {p:2d} = {pretty}   [{split}]")
