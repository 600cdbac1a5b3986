"""The three benchmark workloads, one per truncation order N in {8, 32, 128}.

Each workload builds its inputs from a seed in __init__ (set-up), hands out
an endless stream of items, runs one item through the library's public
functions (the timed part) and checks the item's outputs (untimed).
`check` returns a list of failure descriptions, empty when the item is
correct.  `digest` reduces an item's outputs to plain values whose repr a
traced and an untraced run of the same item must reproduce exactly.

`probe_exponent` is the slope of log(item time) against log(probe time)
while the host's speed drifts (worker.probe_s), fitted over 80-90 s of
interleaved probes and items on a shared 2-core cloud VM and rounded:
grid-sweep (0.97) and deep-order (0.92) are interpreter-bound and track the
probe; membership-screen (0.62) streams a 3.6 MB sample-power matrix per
kernel and drifts less.
"""
from __future__ import annotations

import itertools

import mpmath
import numpy as np

from qstarlike import (
    BOUND_TOL,
    BernardiParams,
    JanowskiParams,
    NormalizedMember,
    QContext,
    SamplePoleError,
    SchwarzPoly,
    TruncSeries,
    VerdictKind,
    apply_L,
    bernardi_coeff_bound,
    bernardi_fekete_bound,
    bernardi_jackson,
    bernardi_series,
    boundary_sample_test,
    coeff_bound,
    convolution_test,
    evaluate,
    fekete_szego_bound,
    lambda_coeff,
    lambda_table,
    member_majorant,
    member_matrix,
    q_number,
    q_number_real,
    random_schwarz,
    schwarz_corpus,
    schwarz_to_member,
    sufficiency_test,
    third_functional_bound,
)
from qstarlike.cli import AB_GRID, MU_GRID, P_GRID, Q_GRID
from qstarlike.oracle import _mp_lambda

#: The default CLI parameter grid, 180 points.
GRID = list(itertools.product(P_GRID, Q_GRID, MU_GRID, AB_GRID))

#: Real Fekete-Szego weights swept per grid point, as in `fs-sweep -2:2:0.1`.
LAMBDA_GRID = np.linspace(-2.0, 2.0, 41)

#: Sentinel recorded in place of a verdict when a test raised SamplePoleError.
POLE = "pole"


def _verdict(test, f, jp):
    try:
        return test(f, jp)
    except SamplePoleError:
        return POLE


def _kind(v) -> str:
    return POLE if v is POLE else v.kind.value


def _passed(v) -> bool:
    return v is not POLE and v.passed


def _verdict_digest(v):
    return POLE if v is POLE else (v.kind.value, v.margin, str(v.witness))


class GridSweep:
    """N = 8: one item is one point of the default CLI grid.

    The item builds the 200-member oracle matrix at that point and evaluates
    every bound calculator the paper's verification loop checks against it.
    Many small problems: oracle, qarith and bounds do the work, classify none.
    """

    order = 8
    probe_exponent = 1.0
    warmup_items = 3
    trace_items = len(GRID)

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = schwarz_corpus(base_seed=seed)
        self.rotation = SchwarzPoly((1.0,))
        self._rng = np.random.default_rng(seed)

    def items(self):
        while True:
            for i in self._rng.permutation(len(GRID)):
                yield GRID[i]

    def run(self, item):
        p, q, mu, ab = item
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        bp = BernardiParams(1.0, ctx)
        ns = range(1, self.order + 1)
        return {
            "M": member_matrix(self.corpus, ctx, jp, order=self.order),
            "coeff": np.array([coeff_bound(n, ctx, jp) for n in ns]),
            "fs": np.array([fekete_szego_bound(lam, ctx, jp) for lam in LAMBDA_GRID]),
            "third": third_functional_bound(ctx, jp) if jp.B <= -0.25 else None,
            "b_coeff": np.array([bernardi_coeff_bound(n, bp, jp) for n in ns]),
            "b_fs": np.array([bernardi_fekete_bound(s, bp, jp) for s in LAMBDA_GRID]),
        }

    def check(self, item, out) -> list[str]:
        p, q, mu, ab = item
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        M = out["M"]
        bad = []

        def dominated(name, observed, bound):
            worst = float(np.max(observed - bound))
            if worst > BOUND_TOL:
                bad.append(f"{name} exceeded by {worst:.3e} at {item}")

        dominated("coeff_bound", np.abs(M[:, 1:]), out["coeff"][None, :])
        a1, a2 = M[:, 1:2], M[:, 2:3]
        dominated("fekete_szego_bound", np.abs(a2 - LAMBDA_GRID * a1**2), out["fs"][None, :])
        if out["third"] is not None:
            l1, l2, l3 = (lambda_coeff(n, ctx) for n in (1, 2, 3))
            c2 = (q + 2.0) / (q * q + q + 1.0)
            c3 = 1.0 / q_number(3, q)
            third = np.abs(
                M[:, 3] - c2 * (l1 * l2 / l3) * M[:, 2] * M[:, 1] + c3 * (l1**3 / l3) * M[:, 1] ** 3
            )
            dominated("third_functional_bound", third, out["third"])
        base = q_number_real(1.0 + p, q)
        iota = np.array([base / q_number_real(1.0 + p + n, q) for n in range(self.order + 1)])
        B = M * iota[None, :]
        dominated("bernardi_coeff_bound", np.abs(B[:, 1:]), out["b_coeff"][None, :])
        b1, b2 = B[:, 1:2], B[:, 2:3]
        dominated("bernardi_fekete_bound", np.abs(b2 - LAMBDA_GRID * b1**2), out["b_fs"][None, :])
        # criterion 2: the rotation w = z attains the first coefficient bound
        a1_rot = schwarz_to_member(self.rotation, ctx, jp, order=2).series.coeffs[1]
        gap = abs(abs(a1_rot) - out["coeff"][0])
        if gap > 1e-10:
            bad.append(f"rotation seed misses coeff_bound(1) by {gap:.3e} at {item}")
        return bad

    def digest(self, out):
        return {k: None if v is None else np.asarray(v).tolist() for k, v in out.items()}


class MembershipScreen:
    """N = 32: one item is one candidate series run through all three tests.

    Candidates are oracle members at every grid point (in seeded order),
    copies of every third member whose a_(p+1) is pushed past coeff_bound(1),
    and the crafted non-member z + 5 z^2.  classify, series.ratio and
    series.evaluate do the work; oracle and bounds only build inputs.
    """

    order = 32
    probe_exponent = 0.6
    warmup_items = 3

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        pool = []
        for k, i in enumerate(rng.permutation(len(GRID))):
            p, q, mu, ab = GRID[i]
            ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
            w = random_schwarz(int(rng.integers(1, 5)), int(rng.integers(2**31)))
            f = schwarz_to_member(w, ctx, jp, order=self.order)
            pool.append(("member", f, jp))
            if k % 3 == 2:
                push = coeff_bound(1, ctx, jp) * (1.05 + rng.uniform())
                coeffs = np.array(f.series.coeffs)
                coeffs[1] = push * np.exp(2j * np.pi * rng.uniform())
                pool.append(("perturbed", NormalizedMember(ctx, TruncSeries(p, coeffs)), jp))
        crafted_ctx = QContext(1, 0.5, 0.0)
        crafted = NormalizedMember(crafted_ctx, TruncSeries(1, [1.0, 5.0] + [0.0] * (self.order - 1)))
        pool.insert(int(rng.integers(len(pool))), ("crafted", crafted, JanowskiParams(1.0, -1.0)))
        self.pool = pool
        self.trace_items = len(pool)

    def items(self):
        return itertools.cycle(self.pool)

    def run(self, item):
        _, f, jp = item
        return (
            _verdict(sufficiency_test, f, jp),
            _verdict(boundary_sample_test, f, jp),
            _verdict(convolution_test, f, jp),
        )

    def check(self, item, out) -> list[str]:
        role, f, jp = item
        suff, bnd, conv = out
        bad = []
        where = f"{role} p={f.ctx.p} q={f.ctx.q} mu={f.ctx.mu} A={jp.A} B={jp.B}"
        # contract: sufficiency Pass => boundary Pass => convolution Pass;
        # a boundary pole leaves only the outer implication to check
        if _passed(suff) and bnd is not POLE and not _passed(bnd):
            bad.append(f"sufficiency Pass but {_kind(bnd)} ({where})")
        if (_passed(suff) or _passed(bnd)) and not _passed(conv):
            bad.append(f"earlier Pass but {_kind(conv)} ({where})")
        if role == "crafted" and (
            _kind(bnd) != VerdictKind.BOUNDARY_FAIL.value
            or _kind(conv) != VerdictKind.CONVOLUTION_FAIL.value
        ):
            bad.append(f"crafted non-member got {_kind(bnd)}, {_kind(conv)}")
        return bad

    def digest(self, out):
        return [_verdict_digest(v) for v in out]


class DeepOrder:
    """N = 128: one item is one (context, Schwarz polynomial) pair.

    Contexts cycle through q in {0.5, 0.7, 0.9} times the mu grid in seeded
    order, so every round of nine items has the same cost mix; the seed draws
    p, (A, B) and the Schwarz polynomial of each item.
    The superlinear paths dominate: lambda_table, coeff_bound and the
    recursion, division and evaluation loops at order 128.
    """

    order = 128
    probe_exponent = 1.0
    warmup_items = 3
    qs = (0.5, 0.7, 0.9)
    rounds = list(itertools.product(qs, MU_GRID))
    trace_items = 4 * len(rounds)
    #: Jackson-sum evaluation points, two of those acceptance criterion 7 uses.
    zs = (0.5, -0.3 + 0.4j)
    #: Every this many items, Lambda is checked against the mpmath reference.
    mp_check_every = 8

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._mp_lambda = {}
        self._count = 0

    def items(self):
        rng = self._rng
        while True:
            for i in rng.permutation(len(self.rounds)):
                q, mu = self.rounds[i]
                ctx = QContext(int(rng.choice(P_GRID)), q, mu)
                jp = JanowskiParams(*AB_GRID[int(rng.integers(len(AB_GRID)))])
                w = random_schwarz(int(rng.integers(1, 5)), int(rng.integers(2**31)))
                yield ctx, jp, w

    def run(self, item):
        ctx, jp, w = item
        f = schwarz_to_member(w, ctx, jp, order=self.order)
        bp = BernardiParams(1.0, ctx)
        return {
            "f": f,
            "Lf": apply_L(f),
            "coeff": np.array([coeff_bound(n, ctx, jp) for n in range(1, self.order + 1)]),
            "majorant": member_majorant(ctx, jp),
            "bernardi": bernardi_series(f, bp),
            "jackson": [bernardi_jackson(f, bp, z) for z in self.zs],
            "boundary": _verdict(boundary_sample_test, f, jp),
        }

    def check(self, item, out) -> list[str]:
        ctx, jp, _ = item
        bad = []
        for z, jz in zip(self.zs, out["jackson"]):
            sz = evaluate(out["bernardi"], z)
            rel = abs(jz - sz) / max(abs(sz), 1e-300)
            if rel > 1e-8:
                bad.append(f"Jackson vs series rel gap {rel:.3e} at z={z} ({ctx})")
        a = np.abs(out["f"].series.coeffs[1:])
        cb = out["coeff"]
        worst = float(np.max((a - cb) / np.maximum(cb, 1.0)))
        if worst > BOUND_TOL:
            bad.append(f"coeff_bound exceeded by {worst:.3e} relative ({ctx}, {jp})")
        self._count += 1
        if self._count % self.mp_check_every == 1:
            bad += self._check_lambda(ctx)
        return bad

    def _check_lambda(self, ctx) -> list[str]:
        if ctx not in self._mp_lambda:
            with mpmath.workdps(40):
                q = mpmath.mpf(ctx.q)
                self._mp_lambda[ctx] = np.array(
                    [float(_mp_lambda(n, ctx, q)) for n in range(1, self.order + 1)]
                )
        ref = self._mp_lambda[ctx]
        rel = float(np.max(np.abs(lambda_table(ctx, self.order).values - ref) / ref))
        if rel > 1e-12:
            return [f"Lambda differs from mpmath by {rel:.3e} relative ({ctx})"]
        return []

    def digest(self, out):
        return {
            "f": out["f"].series.coeffs.tolist(),
            "Lf": out["Lf"].coeffs.tolist(),
            "coeff": out["coeff"].tolist(),
            "majorant": list(out["majorant"]),
            "bernardi": out["bernardi"].coeffs.tolist(),
            "jackson": [str(j) for j in out["jackson"]],
            "boundary": _verdict_digest(out["boundary"]),
        }


WORKLOADS = {
    "grid-sweep": GridSweep,
    "membership-screen": MembershipScreen,
    "deep-order": DeepOrder,
}
