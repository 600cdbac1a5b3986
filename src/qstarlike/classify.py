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

import cmath
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
    "DEGENERATE_KERNEL",
    "janowski_value",
    "sufficiency_test",
    "corollary_reduction",
    "boundary_sample_test",
    "convolution_kernel",
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


def subordination_modulus(
    f: NormalizedMember,
    jp: JanowskiParams,
    z,
    h_order: int | None = None,
) -> np.ndarray:
    """The sampled modulus |(h - 1)/(A - B h)| with h = z d_q(L f)/([p,q] L f).

    For a member this equals |w(z)| < 1; values are computed from the series
    expansion of h (no truncation allowance applied here).
    """
    ctx = f.ctx
    lf = apply_L(f)
    num = shifted(q_derivative(lf, ctx.q), 1)
    den = scaled(lf, q_number(ctx.p, ctx.q))
    if h_order is None:
        h_order = max(lf.trunc_order, 48)
    h = ratio(num, den, order=h_order)
    zs = np.asarray(z, dtype=complex)
    hv = evaluate(h, zs)
    return np.abs(hv - 1.0) / np.abs(jp.A - jp.B * hv)


def _min_order_for_tau(r: float, span: float, target: float) -> int:
    # smallest N with span * r^(N+1) / (1-r) <= target
    n = math.ceil(math.log(target * (1.0 - r) / span) / math.log(r)) - 1
    return min(max(n, 4), 512)


def _eq7_moduli(h: TruncSeries, jp: JanowskiParams, zs: np.ndarray, tau: float):
    """Subordination moduli |(h-1)/(A - B h)| at the samples, with the
    per-sample allowance that a truncation error of size tau can induce."""
    hv = evaluate(h, zs)
    den = jp.A - jp.B * hv
    if np.any(np.abs(den) < 1e-14 * (1.0 + np.abs(hv))):
        bad = zs[int(np.argmin(np.abs(den)))]
        raise SamplePoleError("vanishing denominator A - B h(z)", complex(bad))
    v = np.abs(hv - 1.0) / np.abs(den)
    finite = np.isfinite(hv) & np.isfinite(v)
    if not finite.all():
        bad = zs[int(np.argmin(finite))]
        raise SamplePoleError("h(z) is not finite; its series expansion overflowed", complex(bad))
    guard = np.abs(den) - abs(jp.B) * tau
    # an infinite guard^2 is the intended limit: it gives a zero allowance
    with np.errstate(over="ignore"):
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
    ctx = f.ctx
    lf = apply_L(f)
    num = shifted(q_derivative(lf, ctx.q), 1)
    den = scaled(lf, q_number(ctx.p, ctx.q))
    if h_order is None:
        h_order = max(lf.trunc_order, _min_order_for_tau(r, jp.span, tau_target))
    h = ratio(num, den, order=h_order)

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


#: The theta-independent degenerate kernel pair, always tested in addition
#: to the theta family.
DEGENERATE_KERNEL: tuple[complex, complex] = (0.0 + 0.0j, 1.0 + 0.0j)


def _kernel_denominator(jp: JanowskiParams, ctx: QContext) -> tuple[float, float]:
    # [p,q] and d = [p,q] A - B, the common denominator of every kernel pair
    qp = q_number(ctx.p, ctx.q)
    d = qp * jp.A - jp.B
    if d == 0.0:
        raise ValueError("kernel undefined: [p,q] A = B")
    return qp, d


def convolution_kernel(theta: float, jp: JanowskiParams, ctx: QContext) -> tuple[complex, complex]:
    """The pair (N_theta, L_theta) parameterizing the convolution functional."""
    qp, d = _kernel_denominator(jp, ctx)
    phase = cmath.exp(-1j * theta)
    return (qp - 1.0) * phase / d, (phase + qp * jp.A) / d


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


def _kernel_weights(jp: JanowskiParams, ctx: QContext, order: int) -> np.ndarray:
    """Rows wP, wQ and 1 over offsets 0..order.

    With e = e^(-i theta), the pair of convolution_kernel puts
    (N+1)[n+1,q] - qL[n,q] = wP_n + e wQ_n at offset n; the degenerate pair
    (0, 1) puts [n+1,q] - q[n,q] = 1 there.
    """
    qp, d = _kernel_denominator(jp, ctx)
    q = ctx.q
    qn = q_numbers(order + 1, q)
    return np.stack(
        [
            qn[1:] - (q * qp * jp.A / d) * qn[:-1],
            ((qp - 1.0) * qn[1:] - q * qn[:-1]) / d,
            np.ones(order + 1),
        ]
    )


def _convolution_scan(
    coeff_rows: np.ndarray,
    ctx: QContext,
    jp: JanowskiParams,
    theta_grid: int,
    zspec: SamplingSpec,
):
    """Min |functional| over the (theta, z) grid for each coefficient row of L f.

    The functional of angle theta is e^(i theta)(B - [p,q]A) z^(p-1) times
    P(z) + e^(-i theta) Q(z), where P and Q are the row summed against wP and
    wQ of _kernel_weights; the degenerate pair gives the plain sum D(z).  The
    modulus depends on theta only through cos(theta - theta*) with
    theta* = arg(-Q conj(P)), so at each z the grid minimum lies at one of
    the two grid angles bracketing theta*, and only those two are evaluated.
    Vectorized across rows so corpus sweeps share the power matrix;
    convolution_test is the single-row wrapper.
    """
    if theta_grid < 1:
        raise ValueError("need at least one theta sample")
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=complex))
    n_rows, order = rows.shape[0], rows.shape[1] - 1
    _, d = _kernel_denominator(jp, ctx)
    weights = _kernel_weights(jp, ctx, order)

    zs = zspec.points()
    # row by row: complex ** and multiply.accumulate are several times slower
    powers = np.empty((order + 1, zs.size), dtype=complex)
    powers[0] = 1.0
    for k in range(order):
        np.multiply(powers[k], zs, out=powers[k + 1])
    sums = (weights[:, None, :] * rows[None, :, :]).reshape(3 * n_rows, order + 1) @ powers
    P, Q, D = sums.reshape(3, n_rows, zs.size)
    gain = abs(d) * np.abs(zs) ** (ctx.p - 1)

    phases = np.exp(-2j * np.pi * np.arange(theta_grid) / theta_grid)
    # theta* = arg(Q) - arg(P) + pi; the product Q conj(P) could overflow
    turns = (np.angle(Q) - np.angle(P)) / (2.0 * np.pi) + 0.5
    below = np.floor(turns * theta_grid).astype(int) % theta_grid
    above = (below + 1) % theta_grid
    grid = np.minimum(np.abs(P + phases[below] * Q), np.abs(P + phases[above] * Q)) * gain
    degenerate = np.abs(D) * gain

    # ties go to the theta grid, which precedes the degenerate pair
    at = np.arange(n_rows)
    g_idx = np.argmin(grid, axis=1)
    d_idx = np.argmin(degenerate, axis=1)
    g_min, d_min = grid[at, g_idx], degenerate[at, d_idx]
    use_degenerate = d_min < g_min
    best = np.where(use_degenerate, d_min, g_min)
    witness = zs[np.where(use_degenerate, d_idx, g_idx)]
    return best, witness


def convolution_test(
    f: NormalizedMember,
    jp: JanowskiParams,
    theta_grid: int = 64,
    zspec: SamplingSpec | None = None,
) -> MembershipVerdict:
    """Scan the convolution functionals for zeros inside the sampled disk.

    For each of theta_grid equispaced angles (plus the degenerate pair N=0,
    L=1) the kernel ((N+1) z^p - q L z^(p+1)) / ((1-z)(1-qz)) is
    Hadamard-multiplied with L f, divided by z and scaled, and the minimum
    |value| over the (theta, z) grid is recorded.  The kernel never becomes
    a series: its coefficient (N+1)[n+1,q] - qL[n,q] is affine in
    e^(-i theta) with closed-form weights over the q-number table, so each
    functional is P(z) + e^(-i theta) Q(z) from two theta-free sums, and at
    each z only the two grid angles bracketing the continuous minimiser are
    evaluated.  That gives the grid minimum (not the exact minimum over
    theta).  Any minimum below ZERO_TOL is a zero hit and yields
    ConvolutionFail with the sample as witness; margin is min - ZERO_TOL.
    """
    zspec = zspec or SamplingSpec()
    lf = apply_L(f)
    mins, wits = _convolution_scan(lf.coeffs[None, :], f.ctx, jp, theta_grid, zspec)
    min_abs = float(mins[0])
    margin = min_abs - ZERO_TOL
    if min_abs < ZERO_TOL:
        return MembershipVerdict(VerdictKind.CONVOLUTION_FAIL, margin, complex(wits[0]))
    return MembershipVerdict(VerdictKind.CONVOLUTION_PASS, margin, None)
