"""Localizing a misprint and deriving its correction.

The bundled mu08 table is transcribed verbatim from its source, and verbatim
it fails the degeneration identity in exactly three residual components.
Because each residual is affine in any single matrix entry, the failing
cells overdetermine the fix; solving the residual equations recovers the
corrected entry, which is bundled as an erratum and applied only on request.
Run me with:  python demos/03_localize_and_correct.py
"""

from filicert import (ScalarMatrix, SubspaceSpec, certificate_matrix, deform,
                      go_cocycle, DeformationSpec, load_corpus,
                      structure_constants, verify_degeneration)
from filicert.deformation import solve_certificate_cell

corpus = load_corpus()
alg = corpus["mu08"]
mu = structure_constants(alg)
block = alg.deformation
ideal = SubspaceSpec(block.ideal)
derivation = ScalarMatrix.diagonal(block.diagonal)
mu_t = deform(mu, go_cocycle(DeformationSpec(mu, ideal, block.outside, derivation)))

print("verbatim transcription:")
g = certificate_matrix(alg, corrected=False)
report = verify_degeneration(mu_t, g, reciprocal=True)
for failure in report.stages["eq1"].failures:
    for k, value in enumerate(failure.residual, 1):
        if not value.is_zero():
            print(f"  residual at pair {failure.indices}, component {k}: {value}")

print("\nsolving the residual equations for the suspect cell g[2,4]:")
fixed = solve_certificate_cell(mu, ideal, block.outside, derivation, g, (2, 4),
                               reciprocal=True)
print("  printed value:", g.rows[1][3])
print("  forced value: ", fixed)

print("\nbundled erratum:")
erratum = alg.errata[0]
print(f"  entry = {erratum.target}")
print(f"  corrected = {erratum.corrected}")

g_fixed = certificate_matrix(alg, corrected=True)
report = verify_degeneration(mu_t, g_fixed, reciprocal=True)
print("\ncorrected transcription: eq1",
      "pass" if report.stages["eq1"].ok else "FAIL")
