"""Walk one degeneration certificate through the verification pipeline.

Each bundled algebra file carries a filiform bracket mu, a codimension-1
ideal with a diagonal derivation D, and a matrix family g_t.  The toolkit
rebuilds the linear deformation mu_t = mu + t*mu_D and checks, as exact
polynomial identities, that g_t conjugates the deformation at t = 1 onto the
whole family.  The checks run in two steps: `check_deformation` runs the
stages that depend only on (mu, D), once, and `run_certificate_checks` the
ones that depend on g, for as many candidate certificates as there are.
Run me with:  python demos/02_verify_certificate.py
"""

from filicert import (Scalar, ScalarMatrix, SubspaceSpec, certificate_matrix,
                      check_deformation, load_corpus, run_certificate_checks,
                      structure_constants)

corpus = load_corpus()
alg = corpus["mu11"]
mu = structure_constants(alg)
g = certificate_matrix(alg)
block = alg.deformation

print("algebra:", alg.name, " dimension:", alg.dim)
print("bracket entries:")
for (i, j), column in sorted(mu.entries.items()):
    terms = [f"{c}*Y{k}" for k, c in enumerate(column, 1) if not c.is_zero()]
    print(f"  [Y{i}, Y{j}] = {' + '.join(terms)}")

# step 1: the stages of (mu, D), and the family mu_t they build
deformation = check_deformation(mu, SubspaceSpec(block.ideal), block.outside,
                                ScalarMatrix.diagonal(block.diagonal))
print("\ndeformed bracket sample: [Y1, Y5] becomes",
      " + ".join(f"({c})*Y{k}" for k, c in enumerate(deformation.mu_t.bracket(1, 5), 1)
                 if not c.is_zero()))

# step 2: the stages of the certificate g, against the checked deformation
report = run_certificate_checks(alg.name, deformation, g)
print("\nstage verdicts:")
for stage, result in report.stages.items():
    note = f"  [{result.note}]" if result.note else ""
    print(f"  {stage:10s} {'pass' if result.ok else 'FAIL'}{note}")
print("\noverall:", "PASS" if report.passed else "FAIL")
print("det(g_t) =", g.det(), " (a Laurent unit: invertible for every t != 0)")

# a second candidate for the same deformation reuses step 1
rows = [list(row) for row in g.rows]
rows[2][0] = rows[2][0] + Scalar.t_power(2)
candidate = run_certificate_checks(alg.name, deformation,
                                   ScalarMatrix(tuple(map(tuple, rows))))
print("\nwith t^2 added to g[3,1]: failing stages", candidate.failing_stages())
