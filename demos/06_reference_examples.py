"""The four bundled reference constructions, end to end.

Each golden file pins a request and the exact generator matrices the
pipeline must emit. Three reproduce bit-exactly; the fourth (the totally
real quartic in SL_4) is printed in an unstated basis of its order, so the
suite discovers a GL_4(Z) change of basis realizing the imported matrices
and verifies every relation against it.
"""

import json

from ampletori import EtaleAlgebra, QPoly, linalg
from ampletori.conjugacy import find_simultaneous_conjugator
from ampletori.etale import coordinates
from ampletori.pipeline import PipelineRequest, corpus_dir, run_pipeline, verify_paper_examples
from ampletori.serialize import matrix_to_json

print("reproduction rows (also available via `ampletori verify-paper`):")
for row in verify_paper_examples():
    print(f"  example {row['example']}: {'PASS' if row['pass'] else 'FAIL'} ({row['detail']})")
    for c in row["caveats"]:
        print(f"    caveat: {c}")

print("\nthe 3x3 construction in detail (a rank-one torus in SL_3(Z)):")
report = run_pipeline(
    PipelineRequest.from_json(
        {
            "algebra": {"factors": [["-1", "1", "0", "1"]]},
            "ambient": "SL",
            "places": "inf",
            "unit_source": {"search": {"coord_bound": 3}},
        }
    )
)
print("  verdict:", report.verdict)
print("  generator:", matrix_to_json(report.generators.torus_gens[0]))
print("  (no torsion and no normalizer: the automorphism group is trivial,")
print("   and -1 has norm -1 in an odd-degree field)")

print("\nchange-of-basis discovery for the quartic example:")
quartic = EtaleAlgebra([QPoly([1, -16, 20, -8, 1])])
golden = json.loads((corpus_dir() / "ex52.json").read_text())
units = [linalg.matrix([[int(x) for x in row] for row in m]) for m in golden["imported"]["torus"]]
autos = [linalg.matrix([[int(x) for x in row] for row in m]) for m in golden["imported"]["normalizer"]]
found = find_simultaneous_conjugator(quartic, units, autos)
print("  conjugator found:", found is not None, "| transposed convention:", found.transposed)
print("  the imported generators are the units with power-basis coordinates:")
for u, target in zip(found.unit_elements, ("g1", "g2", "g3")):
    print(f"    {target} <-> {tuple(int(c) for c in coordinates(u))}")
print("  discovered order basis (rows, in power coordinates):")
for row in matrix_to_json(found.discovered_basis):
    print("   ", row)
