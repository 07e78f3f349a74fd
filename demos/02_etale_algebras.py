"""Étale algebras, orders, and the regular representation into matrices.

The regular representation is the bridge from number theory to matrix
groups: a unit of the order becomes an integer matrix of determinant ±1,
and the multiplication map is a ring homomorphism, so group relations among
units turn into exact matrix identities. Elements are kept in one integer
form, (integer coordinates, common denominator); `element` and
`coordinates` convert from and to rational coordinates.
"""

from fractions import Fraction

from ampletori import EtaleAlgebra, QPoly, linalg
from ampletori.etale import coordinates, element
from ampletori.serialize import matrix_to_json

cubic = EtaleAlgebra([QPoly([-1, 1, 0, 1])])  # Q[x]/(x^3 + x - 1), power basis
gauss = EtaleAlgebra([QPoly([1, 0, 1])])  # Q[i], basis (1, i)

x = cubic.generator(0)
print("multiplication by x in the cubic order (columns = images of basis):")
for row in matrix_to_json(cubic.regular_rep(x)):
    print("  ", row)
print("norm(x) =", Fraction(*cubic.norm(x)), " trace(x) =", Fraction(*cubic.trace(x)))
print("charpoly(pi(x)) equals the defining polynomial:", cubic.charpoly(x) == cubic.factors[0])

print("\nx is a unit; its inverse is 1 + x^2:")
print("  x^{-1} coords:", [str(c) for c in coordinates(cubic.inverse(x))])
print("  x * x^{-1} == 1:", cubic.mul(x, cubic.inverse(x)) == cubic.one())

i = gauss.generator(0)
print("\nmultiplication by i in Z[i]:", matrix_to_json(gauss.regular_rep(i)))

g = element([Fraction(4, 5), Fraction(3, 5)])  # (4+3i)/5
print("(4+3i)/5 has matrix", matrix_to_json(gauss.regular_rep(g)))
print("  norm:", Fraction(*gauss.norm(g)), " integral:", gauss.element_is_integral(g), "(a 5-unit, not a unit)")

print("\norder verification with witnesses:")
print("  power basis of the cubic:", cubic.is_order())
bad = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, Fraction(1, 2)]]))
ok, witness = bad.is_order()
print("  basis (1, i/2):", ok, "->", witness["reason"], "value", witness["value"])
z2i = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]]))
print("  basis (1, 2i):", z2i.is_order(), "(Z[2i] is a genuine non-maximal order)")
