"""Unit groups and S-units: searches, certified independence, norm-one parts.

Independence of a unit system is certified through integer balls enclosing
the log embedding: some maximal square minor's midpoint determinant must
exceed the bound on how far the balls can move it. Finite places contribute
exact valuation columns, so S-units whose archimedean absolute values are
all 1 are still certifiable. Elements are (integer coordinates, denominator)
pairs; they are converted to rational coordinates where they are printed.
"""

from fractions import Fraction

from ampletori import EtaleAlgebra, QPoly
from ampletori.etale import coordinates, element
from ampletori.units import (
    UnitSystem,
    assemble_unit_system,
    build_log_embedding,
    dirichlet_rank,
    norm_one_subgroup,
    search_units,
    torsion_units,
    verify_unit_system,
)
from ampletori.places import signature
from ampletori.serialize import matrix_to_json

gauss = EtaleAlgebra([QPoly([1, 0, 1])])
cubic = EtaleAlgebra([QPoly([-1, 1, 0, 1])])


def ints(u):
    return tuple(int(c) for c in coordinates(u))


def rational(torsion):
    gen, order = torsion
    return coordinates(gen), order


print("torsion units (exhaustive box search + exact powering):")
print("  Q[i]  :", rational(torsion_units(gauss)), "(i, of order 4)")
print("  cubic :", rational(torsion_units(cubic)), "(only -1 in a field with a real embedding)")

print("\nexpected free ranks (Dirichlet):")
print("  cubic, S = {}    :", dirichlet_rank(signature(cubic.factors[0])))
print("  Q[i], S = {5}    :", dirichlet_rank(signature(gauss.factors[0]), (2,)))

print("\nelements of norm 5 in Z[i], coordinate box 3:")
print(" ", [ints(u) for u in search_units(gauss, 3, (), {Fraction(5)})])

print("\nassembling the S-unit system of Z[1/5][i] from the box:")
system = assemble_unit_system(gauss, (5,), 3)
print("  torsion:", ints(system.torsion_generator), "order", system.torsion_order)
print("  free   :", [ints(g) for g in system.free_generators])

cert = verify_unit_system(system)
print("  certified rank", cert.rank, "via minor columns", cert.minor_columns)
print("  caveat:", cert.caveats[0])

emb = build_log_embedding(gauss, list(system.free_generators), (5,), 64)
print("\nlog embedding columns:", [c.label() for c in emb.columns])
print("row sums contain 0 (product formula):")
for u, row in zip(system.free_generators, emb.rows):
    # entries are balls (m ± r)·2^-(bits+2), so the sum is (Σm ± Σr)·2^-(bits+2)
    mid, rad = sum(m for m, _ in row), sum(r for _, r in row)
    assert abs(mid) <= rad
    width = Fraction(rad, 1 << (emb.precision + 1))
    print(f"  {ints(u)}: interval around 0 of width {float(width):.2e}")

print("\nnorm-one subgroup (kernel of the norm character, Smith normal form):")
norm_one = norm_one_subgroup(system)
g = norm_one.free_generators[0]
print("  free generator:", tuple(str(c) for c in coordinates(g)), "= (4+3i)/5")
print("  as a matrix:", matrix_to_json(gauss.regular_rep(g)))

print("\na deliberately dependent system returns an exact relation witness:")
u = element([2, 1])
dep = UnitSystem(gauss, element([0, 1]), 4, [u, gauss.mul(u, u)], (5,))
print(" ", verify_unit_system(dep).describe())

print("\ntotally imaginary fields certify through complex places alone:")
zeta5 = EtaleAlgebra([QPoly([1, 1, 1, 1, 1])])
sys5 = assemble_unit_system(zeta5, (), 3)
cert5 = verify_unit_system(sys5)
print("  Q(zeta_5): torsion order", sys5.torsion_order,
      ", free generator", ints(sys5.free_generators[0]),
      "= 1 + zeta_5, certified rank", cert5.rank, "via", cert5.minor_columns)
