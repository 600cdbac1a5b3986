"""Coefficient and functional bounds against the oracle corpus.

Every bound is checked two ways here: the closed-form calculator on one
side, members generated independently from Schwarz polynomials on the
other.  The rotation seed w(z) = z attains the first coefficient bound
exactly; everything else stays strictly below.

Run:  python3 demos/coefficient_bounds_gallery.py
"""
import numpy as np

from qstarlike import (
    JanowskiParams,
    QContext,
    SchwarzPoly,
    coeff_bound,
    fekete_szego_bound,
    member_matrix,
    schwarz_corpus,
    schwarz_to_member,
    third_functional_bound,
)

ctx = QContext(1, 0.5, 0.0)
jp = JanowskiParams(1.0, -1.0)
corpus = schwarz_corpus(ks=(1, 2, 3), seeds_per_k=25)
M = member_matrix(corpus, ctx, jp, order=8)

print(f"coefficient bounds vs. {M.shape[0]} oracle members (p=1, q=0.5, half-plane target):")
print("   n      bound        observed max   slack")
for n in range(1, 7):
    bound = coeff_bound(n, ctx, jp)
    observed = np.max(np.abs(M[:, n]))
    print(f"   {n}   {bound:12.6f}   {observed:12.6f}   {bound - observed:10.3e}")

print("\nsharpness: the rotation seed w(z) = z attains the first bound:")
f = schwarz_to_member(SchwarzPoly((1.0,)), ctx, jp, order=3)
print(f"   |a_2| = {abs(f.series.coeffs[1]):.12f}  vs bound {coeff_bound(1, ctx, jp):.12f}")

print("\nquadratic (Fekete-Szego type) functional over a lambda sweep:")
print("   lambda    bound      observed max")
for lam in (-2.0, -1.0, 0.0, 1.0, 2.0, 1j):
    bound = fekete_szego_bound(lam, ctx, jp)
    observed = np.max(np.abs(M[:, 2] - lam * M[:, 1] ** 2))
    print(f"   {str(lam):>6}   {bound:9.5f}   {observed:9.5f}")

print("\nthird-coefficient functional bound and its validity region:")
for b in (-1.0, -0.5, -0.25):
    jb = JanowskiParams(1.0, b)
    print(f"   B = {b:+.2f}: bound = {third_functional_bound(ctx, jb):.6f}")
print("   (the closed form is derived for B <= -1/4; at larger B the seed")
print("    w(z) = z^3 exceeds it, so the calculator must not be read as a")
print("    guarantee there -- see tests/test_bounds.py)")
