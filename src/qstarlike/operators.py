"""q-difference and convolution operators, classical limits, q-Bernardi integral.

The central object is the kernel Phi_p(q, mu; z) = z^p + sum Lambda_(n+p) z^(n+p)
and the operator L f = Phi_p * f (Hadamard product).  As q -> 1- with the
limit-consistent normalization, L reduces to the classical Ruscheweyh
convolution with z^p / (1-z)^(mu+1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qarith import LambdaConvention, QContext, _prefix, q_number_real, q_numbers, q_numbers_real
from .series import NormalizedMember, TruncSeries, evaluate, hadamard

__all__ = [
    "LambdaTable",
    "BernardiParams",
    "q_derivative",
    "lambda_coeff",
    "lambda_table",
    "phi_kernel",
    "bernardi_factors",
    "apply_L",
    "ruscheweyh_classical",
    "bernardi_series",
    "bernardi_jackson",
    "JACKSON_CUTOFF",
]

#: Jackson sums stop once q^k drops below this, or at an explicit term cap.
JACKSON_CUTOFF = 1e-12

#: Most Jackson terms evaluated per array pass; bounds the memory as q -> 1-.
_JACKSON_CHUNK = 1 << 14


def q_derivative(f: TruncSeries, q: float) -> TruncSeries:
    """Termwise q-difference: c_k z^k -> [k, q] c_k z^(k-1).

    Agrees with the quotient (f(z) - f(qz)) / (z (1 - q)) at every point.
    """
    scaled = q_numbers(f.lead + f.coeffs.size - 1, q)[f.lead :] * f.coeffs
    if f.lead >= 1:
        return TruncSeries(f.lead - 1, scaled)
    if scaled.size == 1:
        return TruncSeries(0, [0.0])
    return TruncSeries(0, scaled[1:])


def lambda_coeff(n: int, ctx: QContext) -> float:
    """Kernel coefficient Lambda at offset n >= 1 past the leading exponent.

    LIMIT_CONSISTENT: [mu+1, q]_n / [n, q]!  (tends to the binomial
    coefficients of (1-z)^-(mu+1) as q -> 1-, matching the stated kernel
    limit; equals 1 identically when mu = 0).
    PAPER_LITERAL: [mu+1, q]_(n+p) / [n+p, q]!  (shifted indexing; does not
    reproduce the classical limit, kept behind the flag for comparison).
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return float(lambda_table(ctx, int(n)).values[-1])


@dataclass(frozen=True)
class LambdaTable:
    """Precomputed kernel coefficients Lambda_(p+1) .. Lambda_(p+N), all positive.

    values is read-only.  A one-dimensional float array whose memory no one
    can write to (a shared table) is kept as given, anything else is copied.
    """

    ctx: QContext
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        owner = arr if arr.base is None else arr.base
        frozen = isinstance(owner, np.ndarray) and not owner.flags.writeable
        if arr.ndim != 1 or arr.flags.writeable or not frozen:
            arr = arr.reshape(-1).copy()
            arr.setflags(write=False)
        if arr.size and not (arr > 0.0).all():
            raise ValueError("kernel coefficients must be positive")
        object.__setattr__(self, "values", arr)


def lambda_table(ctx: QContext, order: int) -> LambdaTable:
    """Lambda values for offsets n = 1 .. order, read-only and shared.

    One cumulative product of the factor ratios [mu+j,q]/[j,q], j = 1 .. m
    (m = n, or n + p under PAPER_LITERAL): the separate Pochhammer and
    factorial products overflow long before the factorwise ratios do (and
    at mu = 0 every factor is exactly 1).  Raises ValueError, naming the
    first such n, when a coefficient overflows (large mu with q near 1).
    """
    values = _prefix(_lambda_row, ctx, order)
    if values.size and values[-1] == math.inf:
        n = int(np.argmax(values == math.inf)) + 1
        raise ValueError(f"the kernel coefficient Lambda overflows at n = {n} for {ctx}")
    return LambdaTable(ctx, values)


def _lambda_row(ctx: QContext, size: int) -> np.ndarray:
    """Lambda at offsets 1 .. size.  Every factor is finite and positive, so
    once an entry overflows to inf so do all after it."""
    shift = ctx.p if ctx.lambda_convention is LambdaConvention.PAPER_LITERAL else 0
    m = size + shift
    ratios = q_numbers_real(ctx.mu + np.arange(1.0, m + 1), ctx.q) / q_numbers(m, ctx.q)[1:]
    with np.errstate(over="ignore"):
        return np.multiply.accumulate(ratios)[shift:]


def phi_kernel(ctx: QContext, order: int) -> TruncSeries:
    """The kernel series z^p + sum_(n>=1) Lambda_(n+p) z^(n+p), truncated."""
    coeffs = np.empty(order + 1, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1:] = lambda_table(ctx, order).values
    return TruncSeries(ctx.p, coeffs)


def apply_L(f: NormalizedMember) -> TruncSeries:
    """L f = Phi_p * f: termwise scaling by Lambda, leading coefficient kept at 1."""
    kernel = phi_kernel(f.ctx, f.series.trunc_order)
    return hadamard(kernel, f.series)


def ruscheweyh_classical(f: TruncSeries, mu: float) -> TruncSeries:
    """Classical convolution with z^p / (1-z)^(mu+1): factor (mu+1)_n / n! at offset n.

    Independent limit oracle for apply_L; uses ordinary Pochhammer products.
    """
    if not mu > -1.0:
        raise ValueError(f"mu must exceed -1, got {mu}")
    out = np.array(f.coeffs, dtype=complex)
    fac = 1.0
    for n in range(1, out.size):
        fac *= (mu + n) / n
        out[n] *= fac
    return TruncSeries(f.lead, out)


@dataclass(frozen=True)
class BernardiParams:
    """Integral-averaging parameter eta > -p for the q-Bernardi operator."""

    eta: float
    ctx: QContext

    def __post_init__(self) -> None:
        if not float(self.eta) + self.ctx.p > 0.0:
            raise ValueError(f"eta must exceed -p = {-self.ctx.p}, got {self.eta}")


def bernardi_factors(bp: BernardiParams, order: int) -> np.ndarray:
    """The q-Bernardi scaling [eta+p,q]/[eta+p+n,q] of offset n, for n = 0 .. order."""
    ctx = bp.ctx
    e = q_numbers_real(bp.eta + ctx.p + np.arange(order + 1.0), ctx.q)
    return e[0] / e


def bernardi_series(f: NormalizedMember, bp: BernardiParams) -> TruncSeries:
    """Series form of the q-Bernardi transform: scale offset n by [eta+p,q]/[eta+p+n,q]."""
    factors = bernardi_factors(bp, f.series.trunc_order)
    return TruncSeries(bp.ctx.p, factors * f.series.coeffs)


def bernardi_jackson(
    f: NormalizedMember,
    bp: BernardiParams,
    z: complex,
    terms: int | None = None,
) -> complex:
    """Jackson-integral form: ([eta+p,q]/z^eta) * integral_0^z t^(eta-1) f(t) d_q t.

    The q-integral is the sum z (1-q) sum_k q^k g(q^k z) with g(t) = t^(eta-1) f(t)
    over every k with q^k >= JACKSON_CUTOFF: log(JACKSON_CUTOFF)/log(q) terms,
    about 27.6 / (1 - q) near q = 1, where bernardi_series is the practical
    form.  An explicit `terms` also stops the sum after that many terms.
    Non-integer eta uses principal powers, which are exact along the ray
    t = q^k z.  The terms decay like q^(k(eta+p)), so for eta + p < 1 (only
    a non-integer eta gets there) the cutoff would truncate the sum
    visibly; that range raises ValueError.
    """
    if terms is not None and terms < 1:
        raise ValueError("terms must be positive")
    eta = float(bp.eta)
    integral_eta = eta.is_integer()
    ctx = bp.ctx
    if eta + ctx.p < 1.0:
        raise ValueError(
            f"the Jackson sum truncates for eta + p < 1 (eta = {eta}, p = {ctx.p}); "
            "use bernardi_series"
        )
    z = complex(z)
    if z == 0.0:
        return 0.0 + 0.0j
    q = ctx.q
    exponent = int(eta) - 1 if integral_eta else eta - 1.0
    remaining = math.inf if terms is None else int(terms)
    # the cutoff keeps q^k for k <= log(cutoff)/log(q); one term more lets the
    # first pass see where the kept terms stop, and should rounding in the
    # repeated products keep that one too, the loop goes on
    wanted = math.floor(math.log(JACKSON_CUTOFF) / math.log(q)) + 2
    total = 0.0 + 0.0j
    first = 1.0
    while remaining > 0:
        # q^k by repeated multiplication, continuing from the previous chunk
        size = int(min(remaining, _JACKSON_CHUNK, wanted))
        steps = np.full(size, q)
        steps[0] = first
        qk = np.multiply.accumulate(steps)
        qk = qk[qk >= JACKSON_CUTOFF]
        t = qk * z
        total += np.sum(qk * t**exponent * evaluate(f.series, t))
        if qk.size < size:
            break
        remaining -= size
        wanted = wanted - size if wanted > size else _JACKSON_CHUNK
        first = qk[-1] * q
    jackson = z * (1.0 - q) * total
    if integral_eta:
        zpow = z ** int(eta)
    else:
        zpow = z**eta
    return q_number_real(eta + ctx.p, q) * jackson / zpow
