"""Membership testing and the q-Bernardi integral transform.

Three tests of strictly increasing subtlety decide whether a series belongs
to the family: a coefficient-sum sufficiency criterion, boundary sampling
of the subordination modulus, and a convolution nonvanishing scan.  The
demo runs all three on a certified member and on a crafted non-member,
then cross-checks the two faces of the q-Bernardi operator.

Run:  python3 demos/membership_and_bernardi.py
"""
import numpy as np

from qstarlike import (
    BernardiParams,
    JanowskiParams,
    NormalizedMember,
    QContext,
    SchwarzPoly,
    TruncSeries,
    bernardi_jackson,
    bernardi_series,
    boundary_sample_test,
    convolution_test,
    evaluate,
    schwarz_to_member,
    sufficiency_test,
    verdict_to_json,
)

ctx = QContext(1, 0.5, 0.0)
jp = JanowskiParams(1.0, -1.0)


def show(name, member, r=0.5):
    print(f"\n{name}:")
    for label, verdict in (
        ("sufficiency", sufficiency_test(member, jp)),
        ("boundary   ", boundary_sample_test(member, jp, r=r, m=360)),
        ("convolution", convolution_test(member, jp)),
    ):
        print(f"   {label}  {verdict_to_json(verdict)}")


# a small certified member: all three tests agree
tiny = schwarz_to_member(SchwarzPoly((0.05 + 0.02j, 0.03)), ctx, jp, order=8)
show("small oracle member (passes everything)", tiny)

# a larger member: the coefficient criterion is only sufficient, so its
# Fail proves nothing -- the analytic tests still pass
w = SchwarzPoly((0.2 + 0.1j, 0.15))
good = schwarz_to_member(w, ctx, jp, order=8)
show("larger oracle member (sufficiency is blind here, analytic tests pass)", good)

# a crafted non-member: |a_2| = 5 exceeds the coefficient bound 4
bad = NormalizedMember(ctx, TruncSeries(1, [1, 5] + [0] * 7))
show("crafted non-member z + 5 z^2", bad, r=0.9)

print("\nq-Bernardi transform, series form vs. Jackson q-integral form:")
bp = BernardiParams(1.0, ctx)
transformed = bernardi_series(good, bp)
for z in (0.3, 0.25j, -0.2 + 0.35j):
    series_val = evaluate(transformed, z)
    jackson_val = bernardi_jackson(good, bp, z)
    print(f"   z = {z}:  series {series_val:.10f}   gap {abs(series_val - jackson_val):.2e}")

print("\nthe transform shrinks every coefficient by [eta+p,q]/[eta+p+n,q]:")
print("   before:", np.round(good.series.coeffs[:4], 4))
print("   after: ", np.round(transformed.coeffs[:4], 4))
