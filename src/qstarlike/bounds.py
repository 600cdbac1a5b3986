"""Closed-form coefficient and functional bounds, and the functionals they cap.

Everything here is a pure calculator: given a QContext and JanowskiParams it
returns the constant side of an inequality; the observed side comes from a
concrete series (usually an oracle-generated member).  Where each constant
is attained over the class (measured on the CLI grid, see the acceptance
tests):

* coeff_bound(n): by the member of w(z) = z whenever B = -1, for every n;
  for B > -1 only at n = 1, the product bound being strict from n = 2 on.
* fekete_szego_bound: everywhere, by the larger of the members of w = z
  and w = z^2.
* third_functional_bound (B <= -1/4): by none of w = z, z^2, z^3, which
  reach at most 0.217, 0 and 0.471 of it.
"""
from __future__ import annotations

import math

import numpy as np

from .classify import JanowskiParams
from .operators import _bernardi_numbers, _lambda_row, bernardi_factors, lambda_coeff, lambda_table
from .qarith import QContext, _prefix, q_number, q_numbers
from .series import NormalizedMember

__all__ = [
    "BOUND_TOL",
    "psi",
    "psi_values",
    "coeff_bound",
    "coeff_bounds",
    "fekete_szego_bound",
    "fekete_szego_value",
    "third_functional_value",
    "third_functional_bound",
    "bernardi_coeff_bound",
    "bernardi_coeff_bounds",
    "bernardi_fekete_bound",
    "member_majorant",
]

#: Absolute tolerance for bound-vs-observed comparisons at double precision.
BOUND_TOL = 1e-9


def psi(n: int, ctx: QContext) -> float:
    """psi_n = [p,q] / ([n+p,q] - [p,q]).

    The denominator is evaluated through the exact identity
    [n+p,q] - [p,q] = q^p [n,q], which avoids cancellation as q -> 1-.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return float(psi_values(ctx, int(n))[-1])


def psi_values(ctx: QContext, order: int) -> np.ndarray:
    """psi_1 .. psi_order from one q-number table, read-only and shared."""
    return _prefix(_psi_row, (ctx.p, ctx.q), order)


def _psi_row(pq: tuple[int, float], size: int) -> np.ndarray:
    p, q = pq
    qn = q_numbers(max(p, size), q)
    return qn[p] / (q**p * qn[1 : size + 1])


def coeff_bound(n: int, ctx: QContext, jp: JanowskiParams) -> float:
    """Growth cap for |a_(p+n)| over the whole class.

    n = 1: (A-B) psi_1 / Lambda_(p+1); for n >= 2 the same with the product
    prod_(t<n) (1 + (A-B) psi_t), each factor being 1 + (A-B) psi_t since
    [p,q](A-B) / ([p+t,q] - [p,q]) = (A-B) psi_t.  Entry n of coeff_bounds,
    so it raises the same ValueError when the bound overflows.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return float(coeff_bounds(ctx, jp, int(n))[-1])


def coeff_bounds(ctx: QContext, jp: JanowskiParams, order: int) -> np.ndarray:
    """coeff_bound(n) for n = 1 .. order, read-only and shared.

    Entry n starts at (A-B) psi_n / Lambda_n and takes the factors
    1 + (A-B) psi_t in the order t = 1, 2, ..., n-1, strictly left to right.
    Raises ValueError, naming the first such n, when a bound (or Lambda)
    overflows.
    """
    out = _prefix(_bound_row, (ctx, jp), order)
    if out.size and not math.isfinite(out[-1]):
        n = int(np.argmin(np.isfinite(out))) + 1
        raise ValueError(f"the coefficient bound overflows at n = {n} for {ctx}, {jp}")
    return out


def _bound_row(key: tuple[QContext, JanowskiParams], size: int) -> np.ndarray:
    """coeff_bound(1 .. size), with every entry from the first non-finite
    one on (an overflowing bound, or NaN where Lambda overflowed) set to
    inf, so that a prefix is finite exactly when its last entry is."""
    ctx, jp = key
    span = jp.A - jp.B
    psis = psi_values(ctx, size)
    # the raw row: lambda_table refuses a Lambda that overflows past the request
    lam = _prefix(_lambda_row, ctx, size)
    with np.errstate(over="ignore"):
        out = span * psis / lam
        for t, factor in enumerate((1.0 + span * psis[:-1]).tolist(), start=1):
            out[t:] *= factor
    finite = np.isfinite(out) & np.isfinite(lam)
    if not finite.all():
        out[int(np.argmin(finite)) :] = math.inf
    return out


def fekete_szego_bound(lam: complex, ctx: QContext, jp: JanowskiParams) -> float:
    """Cap for |a_(p+2) - lam a_(p+1)^2| over the class, lam complex.

    The brace in the source inequality is read as max{1, |upsilon|}; any
    other reading makes the underlying quadratic-coefficient lemma unusable.
    """
    span = jp.A - jp.B
    psi1, psi2 = psi_values(ctx, 2).tolist()
    lam1, lam2 = lambda_table(ctx, 2).values.tolist()
    upsilon = (jp.B - span * psi1) + (lam2 * psi1**2 / (lam1**2 * psi2)) * span * complex(lam)
    return span * psi2 / lam2 * max(1.0, abs(upsilon))


def fekete_szego_value(f: NormalizedMember, lam: complex) -> float:
    """|a_(p+2) - lam a_(p+1)^2| for a concrete series."""
    if f.series.trunc_order < 2:
        raise ValueError("series must retain at least two coefficients past the lead")
    a1 = f.series.coeffs[1]
    a2 = f.series.coeffs[2]
    return abs(a2 - complex(lam) * a1 * a1)


def third_functional_value(f: NormalizedMember, ctx: QContext | None = None) -> float:
    """The third-coefficient functional
    |a_(p+3) - ((q+2)/(q^2+q+1)) (L1 L2 / L3) a_(p+2) a_(p+1) + (1/[3,q]) (L1^3 / L3) a_(p+1)^3|

    with L_n the kernel coefficients of the active convention.  The two
    rational factors are exactly psi_3 (1/psi_1 + 1/psi_2) and psi_3 / psi_1,
    which is what collapses the functional onto the cubic-coefficient lemma.
    """
    ctx = ctx or f.ctx
    if f.series.trunc_order < 3:
        raise ValueError("series must retain at least three coefficients past the lead")
    q = ctx.q
    a1, a2, a3 = f.series.coeffs[1], f.series.coeffs[2], f.series.coeffs[3]
    l1, l2, l3 = lambda_table(ctx, 3).values.tolist()
    c2 = (q + 2.0) / (q * q + q + 1.0)
    c3 = 1.0 / q_number(3, q)
    return abs(a3 - c2 * (l1 * l2 / l3) * a2 * a1 + c3 * (l1**3 / l3) * a1**3)


def third_functional_bound(ctx: QContext, jp: JanowskiParams) -> float:
    """(A-B) (4(2B-1)^2 + 1) / (8 Lambda_(p+3)) psi_3.

    4(2B-1)^2 + 1 = 16B^2 - 16B + 5 identically.  The derivation behind this
    constant needs B <= -1/4; for larger B the formula undershoots and the
    inequality can fail (see tests for a concrete witness).
    """
    span = jp.A - jp.B
    factor = (4.0 * (2.0 * jp.B - 1.0) ** 2 + 1.0) / 8.0
    return span * factor * psi(3, ctx) / lambda_coeff(3, ctx)


def bernardi_coeff_bound(n: int, bp, jp: JanowskiParams) -> float:
    """coeff_bound(n) shrunk by the Bernardi factor [eta+p,q]/[eta+p+n,q]:
    entry n of bernardi_coeff_bounds."""
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return float(bernardi_coeff_bounds(bp, jp, int(n))[-1])


def bernardi_coeff_bounds(bp, jp: JanowskiParams, order: int) -> np.ndarray:
    """bernardi_coeff_bound(n) for n = 1 .. order; raises the ValueError of
    coeff_bounds when a bound overflows."""
    return bernardi_factors(bp, order)[1:] * coeff_bounds(bp.ctx, jp, order)


def bernardi_fekete_bound(sigma: complex, bp, jp: JanowskiParams) -> float:
    """Cap for |b_(p+2) - sigma b_(p+1)^2| after the Bernardi transform.

    Equals ([eta+p,q]/[eta+p+2,q]) * fekete_szego_bound at the effective
    lam = sigma [eta+p,q][eta+p+2,q]/[eta+p+1,q]^2.
    """
    e0, e1, e2 = _bernardi_numbers(bp, 2).tolist()
    effective = complex(sigma) * e0 * e2 / (e1 * e1)
    return (e0 / e2) * fekete_szego_bound(effective, bp.ctx, jp)


def member_majorant(ctx: QContext, jp: JanowskiParams, safety: float = 1.05) -> tuple[float, float]:
    """Geometric envelope (c, s) with coeff_bound(n) <= c * s^(n+p) for all n >= 1.

    s is the asymptotic step ratio of the bound sequence times a safety
    margin; c is the maximum of bound_n / s^(n+p) over a scan long enough
    that the stepwise ratio has settled below s (asserted on the scan tail).
    Intended as the majorant argument of series.tail_bound for class members.
    """
    span = jp.A - jp.B
    q, p = ctx.q, ctx.p
    scan = 384
    # psi_n decreases to [p,q](1-q)/q^p, so the bound's step ratio tends
    # to 1 + span*psi_inf
    psi_inf = q_number(p, q) * (1.0 - q) / q**p
    s = safety * (1.0 + span * psi_inf)
    log_s = math.log(s)
    # log bound_n for n = 1 .. scan + 1, from the head and factors that
    # coeff_bounds folds; in log space the scan cannot overflow
    psis = psi_values(ctx, scan + 1)
    log_bound = np.log(span * psis / lambda_table(ctx, scan + 1).values)
    log_bound[1:] += np.cumsum(np.log1p(span * psis[:-1]))
    c = float(np.max(np.exp(log_bound - (np.arange(1, scan + 2) + p) * log_s)))
    if not np.all(np.diff(log_bound[-17:]) < log_s):
        raise ValueError("majorant ratio not dominant after scan; increase safety")
    return c, s
