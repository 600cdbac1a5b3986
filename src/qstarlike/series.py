"""Truncated power series with complex coefficients.

A TruncSeries holds the coefficients of z^lead .. z^(lead+N); it is the
universal representation for every function this package manipulates.
Series values are immutable after construction, so they can be shared
freely across threads.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .qarith import QContext

__all__ = [
    "COMPLEX_DTYPE",
    "TruncSeries",
    "NormalizedMember",
    "hadamard",
    "ratio",
    "evaluate",
    "tail_bound",
    "save_series",
    "load_series",
]

#: Single global precision choice for all series arithmetic.
COMPLEX_DTYPE = np.complex128


@dataclass(frozen=True, eq=False)
class TruncSeries:
    """Coefficients c_lead .. c_(lead+N); entry j carries exponent lead + j."""

    lead: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.lead != int(self.lead) or self.lead < 0:
            raise ValueError(f"lead must be a nonnegative integer, got {self.lead!r}")
        object.__setattr__(self, "lead", int(self.lead))
        arr = np.array(self.coeffs, dtype=COMPLEX_DTYPE, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a series needs at least one coefficient")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def trunc_order(self) -> int:
        """Number of retained terms beyond the leading exponent."""
        return self.coeffs.size - 1

    def __repr__(self) -> str:
        return f"TruncSeries(lead={self.lead}, order={self.trunc_order})"


@dataclass(frozen=True)
class NormalizedMember:
    """A candidate function z^p + a_(p+1) z^(p+1) + ...: lead p, unit leading coefficient."""

    ctx: QContext
    series: TruncSeries

    def __post_init__(self) -> None:
        if self.series.lead != self.ctx.p:
            raise ValueError(
                f"leading exponent {self.series.lead} does not match valence p={self.ctx.p}"
            )
        if self.series.coeffs[0] != 1.0 + 0.0j:
            raise ValueError("leading coefficient must be exactly 1")


def hadamard(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Coefficientwise product matched by exponent (convolution product)."""
    if f.lead != g.lead:
        raise ValueError(
            f"incompatible valence: leading exponents {f.lead} and {g.lead} differ"
        )
    n = min(f.trunc_order, g.trunc_order)
    return TruncSeries(f.lead, f.coeffs[: n + 1] * g.coeffs[: n + 1])


def ratio(f: TruncSeries, g: TruncSeries, order: int | None = None) -> TruncSeries:
    """Series h with h g = f (ordinary series product) up to the truncation order.

    By default the result is truncated at min(f.trunc_order, g.trunc_order),
    the deepest order the operands' known coefficients support.  Passing
    `order` extends the division beyond that; this is only meaningful when
    both operands are exact polynomials (no unknown tail), in which case the
    quotient's coefficients are exact to any order.

    The solve runs with numpy's overflow and invalid-value warnings off: an
    overflowing quotient comes back with non-finite coefficients instead,
    which `classify.boundary_sample_test` turns into a SamplePoleError.
    """
    if g.coeffs[0] == 0.0:
        raise ZeroDivisionError("denominator has zero leading coefficient")
    if f.lead < g.lead:
        raise ValueError("ratio would need a negative leading exponent")
    if order is None:
        order = min(f.trunc_order, g.trunc_order)
    fc = np.zeros(order + 1, dtype=COMPLEX_DTYPE)
    gc = np.zeros(order + 1, dtype=COMPLEX_DTYPE)
    fc[: min(order + 1, f.coeffs.size)] = f.coeffs[: order + 1]
    gc[: min(order + 1, g.coeffs.size)] = g.coeffs[: order + 1]
    h = np.empty(order + 1, dtype=COMPLEX_DTYPE)
    g0 = gc[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(order + 1):
            acc = fc[k]
            if k:
                acc = acc - np.dot(gc[1 : k + 1], h[k - 1 :: -1])
            h[k] = acc / g0
    return TruncSeries(f.lead - g.lead, h)


def evaluate(f: TruncSeries, z):
    """Horner evaluation of the truncated polynomial at z (scalar or ndarray)."""
    zz = np.asarray(z, dtype=COMPLEX_DTYPE)
    acc = np.full(zz.shape, f.coeffs[-1], dtype=COMPLEX_DTYPE)
    for c in f.coeffs[-2::-1]:
        acc = acc * zz + c
    out = acc * zz**f.lead
    if zz.shape == ():
        return complex(out)
    return out


def tail_bound(f: TruncSeries, r: float, coeff: float, growth: float) -> float:
    """Upper bound on the discarded tail |sum_(k>lead+N) c_k z^k| for |z| <= r.

    The caller certifies the geometric majorant |c_k| <= coeff * growth^k for
    every exponent k beyond the truncation (for class members the growth rate
    comes from the coefficient-bound product formula; see bounds.member_majorant).
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if coeff < 0.0 or growth < 0.0:
        raise ValueError("majorant parameters must be nonnegative")
    if coeff == 0.0:
        return 0.0
    x = growth * r
    if x >= 1.0:
        raise ValueError(
            f"majorant ratio {growth} times radius {r} reaches 1: tail unbounded"
        )
    first = f.lead + f.trunc_order + 1
    return coeff * x**first / (1.0 - x)


def save_series(f: TruncSeries, dest) -> None:
    """Write {"lead": int, "coeffs": [[re, im], ...]}; round-trips bit-exactly."""
    obj = {"lead": f.lead, "coeffs": [[c.real, c.imag] for c in f.coeffs]}
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
    else:
        json.dump(obj, dest)
        dest.write("\n")


def load_series(src) -> TruncSeries:
    """Inverse of save_series; rejects NaN and infinite coefficients."""
    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = json.load(src)
    coeffs = [complex(re, im) for re, im in obj["coeffs"]]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("series coefficients must be finite")
    return TruncSeries(int(obj["lead"]), coeffs)
