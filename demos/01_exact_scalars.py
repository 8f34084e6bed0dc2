"""Tour of the exact scalar kernel.

Everything in this package computes in Q[alpha][t, 1/t]: sparse Laurent
polynomials in t whose coefficients are polynomials in alpha over exact
rationals.  Run me with:  python demos/01_exact_scalars.py
"""

from fractions import Fraction

from filicert import Scalar, ScalarMatrix
from filicert.scalar import ALPHA, T, ZERO

# Scalars are built from the generators t and alpha and exact rationals.
p1 = Scalar.term(Fraction(-8, 5), 1) * (T ** 4 - 1)
print("a certificate polynomial:  p1 =", p1)

# All arithmetic is exact; nothing is ever rounded.
p2 = Scalar.term(Fraction(-1, 5), 1) * (T ** 4 - 1)
print("p1 - 2*4*p2 =", p1 - 8 * p2, "(exact cancellation)")

# Laurent exponents are first-class: 1/t times t is exactly 1.
print("t^-1 * t =", Scalar.t_power(-1) * T)

# Substituting rational values, one symbol at a time, is a ring homomorphism.
print("p1 at t=2:", p1.eval_t(2))
print("(t^2 + alpha) at t=3, alpha=1/2:", (T ** 2 + ALPHA).eval_t(3).eval_alpha(Fraction(1, 2)))

# Partial substitution keeps the other symbol alive.
mixed = T * ALPHA + T ** 2
print("t*alpha + t^2 at t=2, alpha symbolic:", mixed.eval_t(2))

# A characteristic polynomial is the tuple of its coefficients, x^k at index k.
char = ScalarMatrix.diagonal([T, T ** 2, T ** 3]).char_poly()
print("char poly of diag(t, t^2, t^3), constant term first:", ", ".join(map(str, char)))
print("  evaluated at x = t:", sum((c * T ** k for k, c in enumerate(char)), ZERO))
