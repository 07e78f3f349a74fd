"""Tori from étale algebras and the S-ampleness decision.

A torus is S-ample when (i) its global rank matches the center of the
ambient group, (ii) it is cocompact in its centralizer at every place of S
(structural for maximal tori), and (iii) every proper subtorus drops rank
at some place of S. Subtori are enumerated by their dimension vectors:
how many copies of each irreducible component of the cocharacter module
they hold.
"""

from ampletori import EtaleAlgebra, QPoly
from ampletori.places import INF
from ampletori.serialize import certificate_to_json, dumps, replay_certificate
from ampletori.torus import (
    PlaceSet,
    build_torus,
    decompose_module,
    global_rank,
    is_s_ample,
    local_rank,
)

gauss = EtaleAlgebra([QPoly([1, 0, 1])])
cubic = EtaleAlgebra([QPoly([-1, 1, 0, 1])])
quartic = EtaleAlgebra([QPoly([1, -16, 20, -8, 1])])

print("cocharacter modules (zero-sum subspace for SL):")
for name, e in (("Q[i]", gauss), ("cubic", cubic), ("quartic", quartic)):
    t = build_torus(e, "SL")
    comps = ", ".join(f"{c.character}({c.dim})" for c in decompose_module(t))
    print(f"  {name:8s} dim {t.dim}: {comps}")

print("\nranks:")
t = build_torus(gauss, "SL")
print("  Q[i] in SL_2: global", global_rank(t), " rk_R =", local_rank(t, INF), " rk_Q5 =", local_rank(t, 5))

print("\nverdicts:")
for s in (PlaceSet(True, ()), PlaceSet(True, (5,))):
    cert = is_s_ample(t, s)
    print(f"  Q[i], S = {{{s}}}: {cert.verdict}")
cert = is_s_ample(build_torus(cubic, "SL"), PlaceSet(True, ()))
print("  cubic, S = {inf}:", cert.verdict, "(one real embedding makes it noncompact at inf)")

print("\nthe certificate replays from its own stored witnesses:")
cert = is_s_ample(t, PlaceSet(True, (5,)))
print("  stored verdict:", cert.verdict, "| replayed:", replay_certificate(cert))
print("  serialized certificate (excerpt):")
payload = certificate_to_json(cert)
print("   ", dumps({k: payload[k] for k in ("verdict", "local_ranks", "condition_i")}).strip())

print("\nsplit and anisotropic parts:")
print("  Q[i] global: split dim", global_rank(t), ", anisotropic dim", t.dim - global_rank(t))
split = local_rank(build_torus(quartic, "SL"), INF)
print("  quartic at inf: split dim", split, "(totally real, trivial decomposition group)")
