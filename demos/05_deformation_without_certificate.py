"""A valid linear deformation that ships without a degeneration certificate.

Taking mu17 with the derivation diag(0, 1, ..., 1) on the standard ideal
yields a perfectly valid linear deformation (2-cocycle, Lie bracket, Jacobi
for the whole family), but no conjugating family g_t is bundled for it, and
its non-existence is an assertion this toolkit does not attempt to check.
Run me with:  python demos/05_deformation_without_certificate.py
"""

from filicert import (counterexample_spec, deform, go_cocycle, jacobi_check,
                      cocycle_check, load_corpus, RationalAlgebra,
                      structure_constants)
from filicert.invariants import derived_series, lower_central_series

corpus = load_corpus()
mu = structure_constants(corpus["mu17"])
spec = counterexample_spec(mu)
phi = go_cocycle(spec)
mu_t = deform(mu, phi)

print("derivation diagonal:", [str(spec.derivation.rows[k][k]) for k in range(7)])
print("cocycle:", cocycle_check(mu, phi))
print("bracket:", jacobi_check(phi).ok)
print("jacobi of the family:", jacobi_check(mu_t).ok)

print("\nweight-0 direction: mu_D(Y1, Y2) =",
      [str(s) for s in phi.bracket(1, 2)])

for t in (1, 2, -1):
    algebra = RationalAlgebra.from_structure(mu_t, t=t)
    print(f"family at t={t}: lcs {lower_central_series(algebra)}, "
          f"derived {derived_series(algebra)}")

print("\nno certificate is bundled for this deformation; whether one exists")
print("is asserted in the negative by its source and is not checked here.")
