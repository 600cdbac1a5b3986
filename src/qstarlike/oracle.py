"""Ground-truth member generator and the quadratic/cubic coefficient lemmas.

A certified Schwarz polynomial w (w(0) = 0, sum |w_j| <= 1, hence |w(z)| < 1
on the open disk) is pushed through the subordination identity

    z d_q(L f) / ([p,q] L f) = (1 + A w(z)) / (1 + B w(z))

by equating coefficients: the resulting recursion determines a_(p+1), ...
uniquely, so the generated series is a class member by construction, up to
truncation.  These members are the independent oracle for every bound.

The sum-certificate is conservative (it excludes part of the Schwarz class)
but exact and cheap, which is what an oracle needs.
"""
from __future__ import annotations

import cmath
import functools
import json
import os
import threading
from dataclasses import dataclass

import mpmath
import numpy as np

from .bounds import psi_values
from .classify import JanowskiParams
from .operators import lambda_table
from .qarith import LambdaConvention, QContext
from .series import NormalizedMember, TruncSeries

__all__ = [
    "SchwarzPoly",
    "random_schwarz",
    "janowski_expand",
    "schwarz_to_member",
    "lemma2_check",
    "schwarz_corpus",
    "member_matrix",
    "dump_corpus",
    "load_corpus",
    "subordination_roundtrip_error",
]

_CERT_TOL = 1e-12


@dataclass(frozen=True)
class SchwarzPoly:
    """w(z) = w_1 z + ... + w_k z^k with the certificate sum |w_j| <= 1."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("need at least one coefficient")
        if not all(cmath.isfinite(c) for c in cs):
            raise ValueError(f"Schwarz coefficients must be finite, got {cs}")
        total = sum(abs(c) for c in cs)
        if total > 1.0 + _CERT_TOL:
            raise ValueError(f"certificate violated: sum |w_j| = {total} > 1")
        object.__setattr__(self, "coeffs", cs)

    def padded(self, k: int) -> tuple[complex, ...]:
        return self.coeffs + (0.0 + 0.0j,) * max(0, k - len(self.coeffs))


def random_schwarz(k: int, seed: int) -> SchwarzPoly:
    """k complex coefficients rescaled so sum |w_j| hits a uniform draw in (0, 1].

    Deterministic per seed: identical seeds give bit-identical polynomials.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    target = 1.0 - rng.uniform()
    total = np.sum(np.abs(raw))
    return SchwarzPoly(tuple(raw * (target / total)))


def _schwarz_matrix(ws, order: int) -> np.ndarray:
    # row i holds w_0 = 0, w_1 .. w_order of the i-th polynomial (zero-padded)
    W = np.zeros((len(ws), order + 1), dtype=complex)
    for i, w in enumerate(ws):
        spill = min(order, len(w.coeffs))
        W[i, 1 : spill + 1] = w.coeffs[:spill]
    return W


def _janowski_rows(W: np.ndarray, jp: JanowskiParams) -> np.ndarray:
    """Row-batched series division (1 + A w)/(1 + B w): d_0 = 1, d_1 .. d_N per row.

    One row-wise dot of length k per coefficient k, as `series.ratio` does
    for a single row; an overflowing quotient comes back non-finite.
    """
    num = jp.A * W
    den = jp.B * W
    D = np.empty_like(W)
    D[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, W.shape[1]):
            D[:, k] = num[:, k] - np.einsum("ij,ij->i", den[:, 1 : k + 1], D[:, k - 1 :: -1])
    return D


def _exceeds_rotation_bound(d: np.ndarray, jp: JanowskiParams) -> bool:
    return bool(d.size and np.max(np.abs(d)) > jp.span * (1.0 + 1e-9) + 1e-9)


def janowski_expand(w: SchwarzPoly, jp: JanowskiParams, order: int) -> np.ndarray:
    """Taylor coefficients d_1 .. d_order of (1 + A w(z))/(1 + B w(z)), read-only.

    First two satisfy d_1 = (A-B) w_1 and d_2 = (A-B)(w_2 - B w_1^2).
    One row of the division `member_matrix` runs for a whole corpus, with
    the same ValueError when the rotation-lemma bound |d_n| <= A - B fails.
    """
    d = _janowski_rows(_schwarz_matrix([w], order), jp)[0, 1:].copy()
    if _exceeds_rotation_bound(d, jp):
        raise ValueError("rotation-lemma bound |d_n| <= A - B violated")
    d.setflags(write=False)
    return d


def member_matrix(
    corpus: list[tuple[int, SchwarzPoly]],
    ctx: QContext,
    jp: JanowskiParams,
    order: int = 8,
) -> np.ndarray:
    """Member coefficients a_p .. a_(p+order), one row per corpus entry.

    Equating z^(n+p) coefficients of the subordination identity gives
        Lambda_(n+p) ([n+p,q] - [p,q]) a_(n+p)
            = [p,q] (d_n + sum_(0<k<n) Lambda_(k+p) a_(k+p) d_(n-k)),
    so the coefficients c_n = Lambda_(n+p) a_(n+p) of L f obey
    c_n = psi_n sum_(k<n) c_k d_(n-k) with c_0 = 1; psi_n > 0, so the
    recursion is total.  All rows are solved at once, one row-wise dot per
    n, and a = c / Lambda at the end.  A row does not depend on the other
    rows, so `schwarz_to_member` is this solver on one row.  Raises
    ValueError, naming the first such offset, when a coefficient is not
    finite (the recursion overflowed).
    """
    D = _janowski_rows(_schwarz_matrix([w for _, w in corpus], order), jp)
    if _exceeds_rotation_bound(D[:, 1:], jp):
        raise ValueError("rotation-lemma bound |d_n| <= A - B violated")
    psis = psi_values(ctx, order).tolist()
    lam_a = np.empty_like(D)
    lam_a[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order + 1):
            lam_a[:, n] = psis[n - 1] * np.einsum("ij,ij->i", lam_a[:, :n], D[:, n:0:-1])
        lam_a[:, 1:] /= lambda_table(ctx, order).values
    finite = np.isfinite(lam_a).all(axis=0)
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(f"member coefficient a_(p+{n}) is not finite for {ctx}, {jp}")
    return lam_a


def schwarz_to_member(
    w: SchwarzPoly, ctx: QContext, jp: JanowskiParams, order: int = 8
) -> NormalizedMember:
    """Solve the subordination recursion for a_(p+1) .. a_(p+order).

    The one-row case of `member_matrix`, bit for bit.  w = 0 returns z^p;
    w(z) = z attains the first coefficient bound exactly.
    """
    return NormalizedMember(ctx, TruncSeries(ctx.p, member_matrix([(0, w)], ctx, jp, order)[0]))


def lemma2_check(w: SchwarzPoly, lam: complex) -> tuple[float, float, float]:
    """Functionals of the two Schwarz-coefficient lemmas.

    Returns (|w_2 - lam w_1^2|, max(1, |lam|), |w_3 + w_1 w_2 / 4 + w_1^3 / 16|);
    the caller asserts first <= second and third <= 1.
    """
    w1, w2, w3 = w.padded(3)[:3]
    lhs1 = abs(w2 - complex(lam) * w1 * w1)
    rhs1 = max(1.0, abs(complex(lam)))
    lhs2 = abs(w3 + w1 * w2 / 4.0 + w1**3 / 16.0)
    return lhs1, rhs1, lhs2


def schwarz_corpus(
    ks: tuple[int, ...] = (1, 2, 3, 4),
    seeds_per_k: int = 50,
    base_seed: int = 0,
) -> list[tuple[int, SchwarzPoly]]:
    """The standard oracle corpus: seeds_per_k draws for each degree in ks.

    Schwarz polynomials are parameter-free, so one corpus serves every
    (context, target) pair.  Bit-identical for identical base_seed.
    """
    out = []
    for k in ks:
        for i in range(seeds_per_k):
            seed = base_seed + 1000 * k + i
            out.append((seed, random_schwarz(k, seed)))
    return out


def dump_corpus(
    dest,
    corpus: list[tuple[int, SchwarzPoly]],
    ctx: QContext,
    jp: JanowskiParams,
    order: int = 8,
) -> None:
    """JSON-lines dump: {"seed": int, "w": [[re, im], ...], "coeffs": [[re, im], ...]}."""
    coeffs = member_matrix(corpus, ctx, jp, order)

    def _write(fh):
        for (seed, w), row in zip(corpus, coeffs):
            obj = {
                "seed": seed,
                "w": [[c.real, c.imag] for c in w.coeffs],
                "coeffs": [[c.real, c.imag] for c in row],
            }
            fh.write(json.dumps(obj))
            fh.write("\n")

    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(dest)


def load_corpus(src) -> list[dict]:
    """Parse a JSON-lines corpus back into dicts with complex arrays; rejects
    NaN and infinite coefficients."""

    def _parse(fh):
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            row = {
                "seed": obj["seed"],
                "w": np.array([complex(re, im) for re, im in obj["w"]]),
                "coeffs": np.array([complex(re, im) for re, im in obj["coeffs"]]),
            }
            if not (np.all(np.isfinite(row["w"])) and np.all(np.isfinite(row["coeffs"]))):
                raise ValueError(f"corpus row with seed {row['seed']} has a non-finite coefficient")
            rows.append(row)
        return rows

    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="utf-8") as fh:
            return _parse(fh)
    return _parse(src)


# ---------------------------------------------------------------------------
# High-precision round-trip verification
#
# Verifying that a generated member really satisfies the subordination
# identity means comparing the reconstructed h = z d_q(L f)/([p,q] L f)
# against (1 + A w)/(1 + B w) pointwise.  The h series needs ~40 terms for
# the comparison to be meaningful at |z| = 0.5 (its tail is only bounded by
# (A-B) 0.5^N), and at that depth the recursion's intermediate coefficients
# can grow beyond what double precision cancels cleanly, so the check runs
# in mpmath.  This re-derives both routes independently at high precision;
# the fast numpy pipeline is cross-checked against it in the tests.
# ---------------------------------------------------------------------------


def _mp_qnum(x, q):
    return (1 - q**x) / (1 - q)


#: Running products the mpmath Lambda keeps, least recently used out first.
_MP_PRODUCTS = 16
_mp_products_lock = threading.Lock()


@functools.lru_cache(maxsize=_MP_PRODUCTS)
def _mp_products(mu: float, q, prec: int) -> tuple[list, list]:
    """The running products prod_(j<m) [mu+1+j,q] and prod_(j<m) [1+j,q] for
    m = 0, 1, ..., as long as `_mp_lambda` has asked, at `prec` bits; they
    grow under _mp_products_lock."""
    return [mpmath.mpf(1)], [mpmath.mpf(1)]


def _mp_lambda(n: int, ctx: QContext, q):
    """Lambda at offset n at the current mpmath precision: the left folds of
    the numerator and denominator q-numbers, one division at the end."""
    m = n + ctx.p if ctx.lambda_convention is LambdaConvention.PAPER_LITERAL else n
    num, den = _mp_products(float(ctx.mu), q, mpmath.mp.prec)
    with _mp_products_lock:
        if len(num) <= m:
            mu = mpmath.mpf(ctx.mu)
            for j in range(len(num) - 1, m):
                num.append(num[j] * _mp_qnum(mu + 1 + j, q))
                den.append(den[j] * _mp_qnum(mpmath.mpf(1) + j, q))
    return num[m] / den[m]


def _mp_ratio(fc, gc, order):
    h = []
    for k in range(order + 1):
        acc = fc[k]
        for j in range(1, k + 1):
            acc -= gc[j] * h[k - j]
        h.append(acc / gc[0])
    return h


def _mp_members(wcs, ctx: QContext, jp: JanowskiParams, order: int):
    """Member coefficients a_p .. a_(p+order), one list per row of Schwarz
    coefficients w_1 .. w_order in wcs, and Lambda_1 .. Lambda_order, at the
    current mpmath precision."""
    q = mpmath.mpf(ctx.q)
    A = mpmath.mpf(jp.A)
    B = mpmath.mpf(jp.B)
    lam = [_mp_lambda(n, ctx, q) for n in range(1, order + 1)]
    qp = _mp_qnum(ctx.p, q)
    rows = []
    for wc in wcs:
        # d-coefficients of (1 + A w)/(1 + B w)
        num = [mpmath.mpc(1)] + [A * c for c in wc]
        den = [mpmath.mpc(1)] + [B * c for c in wc]
        d = _mp_ratio(num, den, order)[1:]

        a = [mpmath.mpc(1)]
        for n in range(1, order + 1):
            acc = d[n - 1]
            for k in range(1, n):
                acc += lam[k - 1] * a[k] * d[n - k - 1]
            divisor = lam[n - 1] * (_mp_qnum(n + ctx.p, q) - qp)
            a.append(qp * acc / divisor)
        rows.append(a)
    return rows, lam


def subordination_roundtrip_error(
    w: SchwarzPoly,
    ctx: QContext,
    jp: JanowskiParams,
    order: int = 48,
    radius: float = 0.5,
    n_samples: int = 8,
    dps: int = 50,
) -> float:
    """Max |h(z) - (1 + A w(z))/(1 + B w(z))| over samples with |z| = radius.

    h is rebuilt from the recursion output through the operator and the
    series division, all at dps decimal digits; what remains is purely the
    tail of h beyond `order`, which is below 1e-9 for radius 0.5 once
    order >= 32 (coefficients of h are bounded by A - B).
    """
    with mpmath.workdps(dps):
        q = mpmath.mpf(ctx.q)
        A = mpmath.mpf(jp.A)
        B = mpmath.mpf(jp.B)
        wc = [mpmath.mpc(c) for c in w.padded(order)[:order]]
        (a,), lam = _mp_members([wc], ctx, jp, order)
        qp = _mp_qnum(ctx.p, q)

        # h = z d_q(L f) / ([p,q] L f) via series division
        lf = [a[0]] + [lam[n - 1] * a[n] for n in range(1, order + 1)]
        hn = [_mp_qnum(n + ctx.p, q) * lf[n] for n in range(order + 1)]
        hd = [qp * c for c in lf]
        h = _mp_ratio(hn, hd, order)

        worst = mpmath.mpf(0)
        for j in range(n_samples):
            z = mpmath.mpc(radius) * mpmath.expjpi(2 * (j + 0.37) / n_samples)
            hval = mpmath.mpc(0)
            for c in reversed(h):
                hval = hval * z + c
            wval = mpmath.mpc(0)
            for c in reversed(wc):
                wval = wval * z + c
            wval *= z
            target = (1 + A * wval) / (1 + B * wval)
            worst = max(worst, abs(hval - target))
        return float(worst)
