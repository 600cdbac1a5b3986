"""Membership machinery for the Janowski-type q-starlike family.

Three tests with strictly ordered strength:

* sufficiency_test — a coefficient-sum criterion.  Pass proves membership,
  Fail proves nothing.
* boundary_sample_test — samples the subordination modulus on a circle.
  Fail (beyond the truncation allowance) certifies non-membership; Pass is
  evidence only.
* convolution_test — scans a family of convolution functionals for zeros
  inside the disk.  A zero hit is non-membership evidence.

On any input the three may not contradict each other in the direction
sufficiency Pass => boundary Pass => convolution Pass.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import apply_L, lambda_table, q_derivative
from .qarith import LambdaConvention, QContext, q_number, q_numbers
from .series import NormalizedMember, TruncSeries, evaluate, ratio, scaled, shifted, tail_bound

__all__ = [
    "ZERO_TOL",
    "JanowskiParams",
    "VerdictKind",
    "MembershipVerdict",
    "SamplePoleError",
    "SamplingSpec",
    "janowski_value",
    "sufficiency_test",
    "corollary_reduction",
    "boundary_sample_test",
    "convolution_test",
    "subordination_modulus",
    "verdict_to_json",
]

#: |value| below this counts as a zero hit in the convolution scan; grid search
#: cannot certify an exact zero, and this sits far above double-precision noise.
ZERO_TOL = 1e-7

#: Allowance values are clamped here so margins stay finite.
_BIG_ALLOWANCE = 1e9


@dataclass(frozen=True)
class JanowskiParams:
    """Target-domain pair (A, B) with -1 <= B < A <= 1."""

    A: float
    B: float

    def __post_init__(self) -> None:
        if not (-1.0 <= self.B < self.A <= 1.0):
            raise ValueError(f"need -1 <= B < A <= 1, got A={self.A}, B={self.B}")

    @property
    def span(self) -> float:
        return self.A - self.B


class VerdictKind(enum.Enum):
    SUFFICIENCY_PASS = "SufficiencyPass"
    SUFFICIENCY_FAIL = "SufficiencyFail"
    BOUNDARY_PASS = "BoundaryPass"
    BOUNDARY_FAIL = "BoundaryFail"
    CONVOLUTION_PASS = "ConvolutionPass"
    CONVOLUTION_FAIL = "ConvolutionFail"


@dataclass(frozen=True)
class MembershipVerdict:
    """Test outcome; margin is the signed slack (negative exactly on Fail).

    Fail verdicts carry a witness: a sample point for the analytic tests, the
    dominating term index for the coefficient test.
    """

    kind: VerdictKind
    margin: float
    witness: complex | int | None = None

    @property
    def passed(self) -> bool:
        return self.kind in (
            VerdictKind.SUFFICIENCY_PASS,
            VerdictKind.BOUNDARY_PASS,
            VerdictKind.CONVOLUTION_PASS,
        )


def verdict_to_json(v: MembershipVerdict) -> dict:
    if v.witness is None:
        witness = None
    elif isinstance(v.witness, (int, np.integer)):
        witness = int(v.witness)
    else:
        w = complex(v.witness)
        witness = [w.real, w.imag]
    return {"kind": v.kind.value, "margin": v.margin, "witness": witness}


class SamplePoleError(ValueError):
    """A sample point sat on (or numerically at) a pole, or a value there was
    not finite; carries the point."""

    def __init__(self, message: str, witness: complex):
        super().__init__(f"{message} (witness z = {witness})")
        self.witness = witness


def janowski_value(z: complex, jp: JanowskiParams) -> complex:
    """(1 + A z)/(1 + B z); the pole at z = -1/B lies outside the open disk."""
    den = 1.0 + jp.B * np.asarray(z, dtype=complex)
    if np.any(den == 0.0):
        raise ZeroDivisionError("evaluation at the pole z = -1/B")
    out = (1.0 + jp.A * np.asarray(z, dtype=complex)) / den
    if np.asarray(z).shape == ():
        return complex(out)
    return out


def sufficiency_test(f: NormalizedMember, jp: JanowskiParams) -> MembershipVerdict:
    """Coefficient-sum criterion applied to the truncated series.

    Pass means sum_n Lambda_(n+p) ([n+p,q](1-B) - [p,q](1-A)) |a_(n+p)|
    stays within [p,q](A-B); margin is the unused headroom.  Because only
    retained coefficients enter, Pass is sufficient for the truncation and
    Fail carries the index of the dominating term.
    """
    ctx = f.ctx
    q, p = ctx.q, ctx.p
    order = f.series.trunc_order
    qn = q_numbers(p + order, q)
    qp = float(qn[p])
    rhs = qp * jp.span
    if order == 0:
        return MembershipVerdict(VerdictKind.SUFFICIENCY_PASS, rhs, None)
    lam = lambda_table(ctx, order).values
    weights = qn[p + 1 :] * (1.0 - jp.B) - qp * (1.0 - jp.A)
    terms = lam * weights * np.abs(f.series.coeffs[1:])
    lhs = float(terms.sum())
    margin = rhs - lhs
    if lhs <= rhs:
        return MembershipVerdict(VerdictKind.SUFFICIENCY_PASS, margin, None)
    return MembershipVerdict(VerdictKind.SUFFICIENCY_FAIL, margin, int(np.argmax(terms)) + 1)


def corollary_reduction(f: NormalizedMember, jp: JanowskiParams) -> MembershipVerdict:
    """Independent code path for the p = 1, mu = 0 reduction of the criterion.

    Checks sum_(j>=2) ([j,q](1-B) - 1 + A) |a_j| <= A - B directly, without
    kernel coefficients; must return the same margin as sufficiency_test
    whenever both apply.
    """
    ctx = f.ctx
    if ctx.p != 1 or ctx.mu != 0 or ctx.lambda_convention is not LambdaConvention.LIMIT_CONSISTENT:
        raise ValueError("reduction requires p = 1, mu = 0, limit-consistent kernel")
    q = ctx.q
    lhs = 0.0
    best, best_j = -math.inf, 1
    for j in range(2, f.series.trunc_order + 2):
        term = (q_number(j, q) * (1.0 - jp.B) - 1.0 + jp.A) * abs(f.series.coeffs[j - 1])
        lhs += term
        if term > best:
            best, best_j = term, j - 1
    margin = jp.span - lhs
    if lhs <= jp.span:
        return MembershipVerdict(VerdictKind.SUFFICIENCY_PASS, margin, None)
    return MembershipVerdict(VerdictKind.SUFFICIENCY_FAIL, margin, best_j)


def _strictly_negative(margin: float) -> float:
    # Fail margins are negative by contract; a modulus that saturates at
    # exactly 1 in double precision would otherwise report 0
    if margin == 0.0:
        return -5e-324
    return margin


def _h_series(f: NormalizedMember, h_order: int | None, default_order: int):
    """h = z d_q(L f) / ([p,q] L f) by series division, and its divisor [p,q] L f.

    h_order None expands to max(order of L f, default_order); an overflowing
    expansion comes back non-finite, and `_h_values` turns that into a
    SamplePoleError.
    """
    ctx = f.ctx
    lf = apply_L(f)
    num = shifted(q_derivative(lf, ctx.q), 1)
    den = scaled(lf, q_number(ctx.p, ctx.q))
    if h_order is None:
        h_order = max(lf.trunc_order, default_order)
    return ratio(num, den, order=h_order), den


def _h_values(h: TruncSeries, zs: np.ndarray) -> np.ndarray:
    """h at the samples; raises SamplePoleError at the first non-finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        hv = evaluate(h, zs)
    finite = np.isfinite(hv)
    if not finite.all():
        bad = zs.reshape(-1)[int(np.argmin(finite.reshape(-1)))]
        raise SamplePoleError("h(z) is not finite; its series expansion overflowed", complex(bad))
    return hv


def subordination_modulus(
    f: NormalizedMember,
    jp: JanowskiParams,
    z,
    h_order: int | None = None,
) -> np.ndarray:
    """The sampled modulus |(h - 1)/(A - B h)| with h = z d_q(L f)/([p,q] L f).

    For a member this equals |w(z)| < 1; values are computed from the series
    expansion of h (no truncation allowance applied here).  Raises
    SamplePoleError when h is not finite at a sample.
    """
    h, _ = _h_series(f, h_order, 48)
    hv = _h_values(h, np.asarray(z, dtype=complex))
    return np.abs(hv - 1.0) / np.abs(jp.A - jp.B * hv)


def _min_order_for_tau(r: float, span: float, target: float) -> int:
    # smallest N with span * r^(N+1) / (1-r) <= target
    n = math.ceil(math.log(target * (1.0 - r) / span) / math.log(r)) - 1
    return min(max(n, 4), 512)


def _eq7_moduli(h: TruncSeries, jp: JanowskiParams, zs: np.ndarray, tau: float):
    """Subordination moduli |(h-1)/(A - B h)| at the samples, with the
    per-sample allowance that a truncation error of size tau can induce."""
    hv = _h_values(h, zs)
    den = jp.A - jp.B * hv
    if np.any(np.abs(den) < 1e-14 * (1.0 + np.abs(hv))):
        bad = zs[int(np.argmin(np.abs(den)))]
        raise SamplePoleError("vanishing denominator A - B h(z)", complex(bad))
    v = np.abs(hv - 1.0) / np.abs(den)
    if not np.isfinite(v).all():
        bad = zs[int(np.argmin(np.isfinite(v)))]
        raise SamplePoleError("h(z) is not finite; its series expansion overflowed", complex(bad))
    guard = np.abs(den) - abs(jp.B) * tau
    # guard^2 overflowing to inf (a zero allowance) or underflowing to 0 (an
    # infinite one, clamped below) are the intended limits
    with np.errstate(over="ignore", divide="ignore"):
        allowance = np.where(guard > 0.0, jp.span * tau / np.maximum(guard, 1e-300) ** 2, np.inf)
    return v, np.minimum(allowance, _BIG_ALLOWANCE)


def boundary_sample_test(
    f: NormalizedMember,
    jp: JanowskiParams,
    r: float = 0.9,
    m: int = 720,
    h_order: int | None = None,
    tau_target: float = 0.01,
) -> MembershipVerdict:
    """Sample the subordination modulus at m equispaced points on |z| = r.

    h = z d_q(L f) / ([p,q] L f) is expanded by series division to h_order
    (default: enough that the membership-conditional tail allowance drops
    below tau_target).  Were f a member, h's coefficients would be bounded
    by A - B, so the discarded tail at radius r is at most
    (A-B) r^(order+1)/(1-r); the verdict budgets for it on both sides:

    * Pass needs every modulus + allowance < 1 (honest about truncation),
    * a sample with modulus - allowance >= 1 certifies non-membership,
    * anything between is reported as Fail with margin near zero.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if m < 8:
        raise ValueError("need at least 8 samples")
    h, den = _h_series(f, h_order, _min_order_for_tau(r, jp.span, tau_target))
    zs = r * np.exp(2j * np.pi * np.arange(m) / m)
    den_vals = evaluate(den, zs)
    den_abs = np.abs(den_vals)
    if den_abs.min() <= 1e-13 * den_abs.max():
        raise SamplePoleError(
            "L f vanishes on the sample circle", complex(zs[int(np.argmin(den_abs))])
        )

    tau = tail_bound(h, r, coeff=jp.span, growth=1.0)
    v, allowance = _eq7_moduli(h, jp, zs, tau)
    hi = v + allowance
    lo = v - allowance
    max_hi = float(hi.max())
    if max_hi < 1.0:
        return MembershipVerdict(VerdictKind.BOUNDARY_PASS, 1.0 - max_hi, None)
    if lo.max() >= 1.0:
        j = int(np.argmax(lo))
        margin = 1.0 - float(lo[j])
        return MembershipVerdict(VerdictKind.BOUNDARY_FAIL, _strictly_negative(margin), complex(zs[j]))
    j = int(np.argmax(hi))
    return MembershipVerdict(VerdictKind.BOUNDARY_FAIL, _strictly_negative(1.0 - max_hi), complex(zs[j]))


@dataclass(frozen=True)
class SamplingSpec:
    """Disk sampling grid for the convolution scan: circles radii x angles."""

    radii: tuple[float, ...] = tuple(np.arange(1, 20) * 0.05)
    angles: int = 360

    def __post_init__(self) -> None:
        if not self.radii or not all(0.0 < r < 1.0 for r in self.radii):
            raise ValueError("radii must lie strictly inside (0, 1)")
        if self.angles < 4:
            raise ValueError("need at least 4 angles")

    def points(self) -> np.ndarray:
        circle = np.exp(2j * np.pi * np.arange(self.angles) / self.angles)
        return (np.asarray(self.radii)[:, None] * circle[None, :]).ravel()


def _membership_sums(rows: np.ndarray, ctx: QContext, jp: JanowskiParams, zs: np.ndarray):
    """P, Q and D at the samples zs, for each coefficient row c of L f.

    D = sum c_k z^k is L f / z^p and E = sum [k+p,q] c_k z^k is
    z d_q(L f) / z^p; P = E - [p,q] D and Q = B E - A [p,q] D.  So
    P + e^(i theta) Q carries (1 + B e^(i theta))[k+p,q] - [p,q](1 + A e^(i theta))
    at z^k: it is (1/z^p)(L f * k_theta) for the membership kernel k_theta.
    """
    order = rows.shape[1] - 1
    qn = q_numbers(ctx.p + order, ctx.q)
    qp = qn[ctx.p]
    # row by row: complex ** and multiply.accumulate are several times slower
    powers = np.empty((order + 1, zs.size), dtype=complex)
    powers[0] = 1.0
    for k in range(order):
        np.multiply(powers[k], zs, out=powers[k + 1])
    D, E = np.split(np.concatenate([rows, rows * qn[ctx.p :]]) @ powers, 2)
    return E - qp * D, jp.B * E - (jp.A * qp) * D, D


def _convolution_scan(
    coeff_rows: np.ndarray,
    ctx: QContext,
    jp: JanowskiParams,
    zspec: SamplingSpec,
):
    """Min over the sampled disk of min(||P| - |Q||, |D|), per coefficient row of L f.

    ||P| - |Q|| is the exact minimum over theta of |P + e^(i theta) Q|.  The
    theta family misses a zero of D = L f / z^p whenever B > -1 (there it is
    E (1 + B e^(i theta))), so |D| is scanned alongside.  Vectorized across
    rows so corpus sweeps share the power matrix; convolution_test is the
    single-row wrapper.
    """
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=complex))
    zs = zspec.points()
    P, Q, D = _membership_sums(rows, ctx, jp, zs)
    values = np.minimum(np.abs(np.abs(P) - np.abs(Q)), np.abs(D))
    idx = np.argmin(values, axis=1)
    return values[np.arange(rows.shape[0]), idx], zs[idx]


def convolution_test(
    f: NormalizedMember,
    jp: JanowskiParams,
    zspec: SamplingSpec | None = None,
) -> MembershipVerdict:
    """Scan the membership convolution functionals for zeros inside the sampled disk.

    f is a member exactly when (1/z^p)(L f * k_theta) has no zero in the disk
    for any theta, with k_theta carrying (1 + B e^(i theta))[k+p,q] -
    [p,q](1 + A e^(i theta)) at z^(k+p), and L f / z^p has none either.  The
    functional is P(z) + e^(i theta) Q(z) from two theta-free sums, so its
    minimum over theta is ||P| - |Q|| exactly; the minimum of that and
    |L f / z^p| over the samples of zspec is recorded.  Any minimum below
    ZERO_TOL is a zero hit and yields ConvolutionFail with the sample as
    witness; margin is min - ZERO_TOL.
    """
    zspec = zspec or SamplingSpec()
    lf = apply_L(f)
    mins, wits = _convolution_scan(lf.coeffs[None, :], f.ctx, jp, zspec)
    min_abs = float(mins[0])
    margin = min_abs - ZERO_TOL
    if min_abs < ZERO_TOL:
        return MembershipVerdict(VerdictKind.CONVOLUTION_FAIL, margin, complex(wits[0]))
    return MembershipVerdict(VerdictKind.CONVOLUTION_PASS, margin, None)
