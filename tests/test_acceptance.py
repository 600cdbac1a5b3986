"""Acceptance suite: every exit criterion checked at its stated tolerance.

Each test prints one `ACCEPTANCE <id> PASS/FAIL` line (shown with -s / -rA).
The corpus is the standard 200-polynomial oracle corpus evaluated over the
full default parameter grid (5 q x 3 p x 3 mu x 4 Janowski pairs).
"""
import time

import numpy as np
import pytest

from qstarlike import (
    BernardiParams,
    JanowskiParams,
    NormalizedMember,
    QContext,
    SamplingSpec,
    SchwarzPoly,
    TruncSeries,
    VerdictKind,
    ZERO_TOL,
    apply_L,
    bernardi_coeff_bound,
    bernardi_fekete_bound,
    bernardi_jackson,
    bernardi_series,
    boundary_sample_test,
    coeff_bound,
    coeff_bounds,
    convolution_test,
    corollary_reduction,
    evaluate,
    fekete_szego_bound,
    janowski_expand,
    lambda_coeff,
    lemma2_check,
    member_matrix,
    psi,
    q_number,
    random_schwarz,
    ruscheweyh_classical,
    schwarz_to_member,
    sufficiency_test,
    third_functional_bound,
    third_functional_value,
)
from qstarlike.classify import _convolution_scan, _membership_sums
from qstarlike.cli import AB_GRID, MU_GRID, P_GRID, Q_GRID
from qstarlike.operators import lambda_table
from qstarlike.qarith import q_number_real

GRID = [
    (p, q, mu, ab) for p in P_GRID for q in Q_GRID for mu in MU_GRID for ab in AB_GRID
]
SLACK = 1e-9
CORPUS_ORDER = 8

LAMBDA_GRID = np.linspace(-2.0, 2.0, 41)
_rng = np.random.default_rng(90210)
LAMBDA_RANDOM = _rng.uniform(-2, 2, 20) + 1j * _rng.uniform(-2, 2, 20)
LAMBDAS = np.concatenate([LAMBDA_GRID.astype(complex), LAMBDA_RANDOM])


def report(cid, ok, detail=""):
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def matrices(corpus):
    """Member-coefficient matrices for every grid point (rows: corpus, cols a_p..)."""
    out = {}
    for p, q, mu, ab in GRID:
        ctx = QContext(p, q, mu)
        jp = JanowskiParams(*ab)
        out[(p, q, mu, ab)] = member_matrix(corpus, ctx, jp, order=CORPUS_ORDER)
    return out


def test_criterion1_coefficient_bound_domination(matrices):
    t0 = time.time()
    violations = []
    for (p, q, mu, ab), M in matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        for n in range(1, 7):
            bound = coeff_bound(n, ctx, jp)
            worst = float(np.max(np.abs(M[:, n]) - bound))
            if worst > SLACK:
                violations.append(((p, q, mu, ab), n, worst))
    ok = report(
        "1a",
        not violations,
        f"coefficient bounds n<=6 on 200x{len(GRID)} members, "
        f"{len(violations)} violations, {time.time() - t0:.1f}s",
    )
    assert ok, violations[:5]


def test_criterion1_fekete_szego_domination(matrices):
    violations = []
    for (p, q, mu, ab), M in matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        a1, a2 = M[:, 1], M[:, 2]
        values = np.abs(a2[:, None] - LAMBDAS[None, :] * a1[:, None] ** 2)
        bounds = np.array([fekete_szego_bound(lam, ctx, jp) for lam in LAMBDAS])
        worst = float(np.max(values - bounds[None, :]))
        if worst > SLACK:
            violations.append(((p, q, mu, ab), worst))
    ok = report(
        "1b",
        not violations,
        f"quadratic functional over {LAMBDAS.size} lambda values per point, "
        f"{len(violations)} violations",
    )
    assert ok, violations[:5]


def test_criterion1_third_functional_domination(matrices):
    violations = []
    for (p, q, mu, ab), M in matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        l1, l2, l3 = (lambda_coeff(n, ctx) for n in (1, 2, 3))
        c2 = (q + 2.0) / (q * q + q + 1.0)
        c3 = 1.0 / q_number(3, q)
        values = np.abs(
            M[:, 3] - c2 * (l1 * l2 / l3) * M[:, 2] * M[:, 1] + c3 * (l1**3 / l3) * M[:, 1] ** 3
        )
        worst = float(np.max(values) - (jp.span * (4 * (2 * jp.B - 1) ** 2 + 1) / 8 * psi(3, ctx) / l3))
        if worst > SLACK:
            violations.append(((p, q, mu, ab), worst))
    ok = report(
        "1c",
        not violations,
        f"third-coefficient functional, {len(violations)} violations "
        "(the closed form is only derived for B <= -1/4; this corpus draws "
        "no seed extreme enough to breach it elsewhere)",
    )
    assert ok, violations[:5]


def test_criterion1_bernardi_domination(matrices):
    violations = []
    sigmas = LAMBDAS
    for (p, q, mu, ab), M in matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        for eta in (0.0, 1.0, 5.0):
            bp = BernardiParams(eta, ctx)
            base = q_number_real(eta + p, q)
            iota = np.array(
                [base / q_number_real(eta + p + n, q) for n in range(CORPUS_ORDER + 1)]
            )
            B = M * iota[None, :]
            for n in range(1, 7):
                worst = float(np.max(np.abs(B[:, n])) - bernardi_coeff_bound(n, bp, jp))
                if worst > SLACK:
                    violations.append(((p, q, mu, ab), eta, "coeff", n, worst))
            b1, b2 = B[:, 1], B[:, 2]
            values = np.abs(b2[:, None] - sigmas[None, :] * b1[:, None] ** 2)
            bounds = np.array([bernardi_fekete_bound(s, bp, jp) for s in sigmas])
            worst = float(np.max(values - bounds[None, :]))
            if worst > SLACK:
                violations.append(((p, q, mu, ab), eta, "fs", worst))
    ok = report(
        "1d",
        not violations,
        f"integral-transform bounds for eta in (0, 1, 5), {len(violations)} violations",
    )
    assert ok, violations[:5]


def test_criterion2_first_coefficient_sharpness():
    worst = 0.0
    seed = SchwarzPoly((1.0,))
    for p, q, mu, ab in GRID:
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        f = schwarz_to_member(seed, ctx, jp, order=2)
        gap = abs(abs(f.series.coeffs[1]) - coeff_bound(1, ctx, jp))
        worst = max(worst, gap)
    ok = report("2", worst <= 1e-10, f"rotation seed attains the first bound, worst gap {worst:.2e}")
    assert ok


#: w = z, z^2 and z^3, the Schwarz functions that attain the bounds where
#: anything does.
EXTREMAL_W = [(k, SchwarzPoly((0.0,) * k + (1.0,))) for k in range(3)]


@pytest.fixture(scope="module")
def extremal_matrices():
    """Members of EXTREMAL_W at every grid point, one member_matrix call per point."""
    return {
        (p, q, mu, ab): member_matrix(
            EXTREMAL_W, QContext(p, q, mu), JanowskiParams(*ab), order=CORPUS_ORDER
        )
        for p, q, mu, ab in GRID
    }


def test_criterion2_coefficient_bounds_sharp_exactly_for_b_minus_one(extremal_matrices):
    attained_gap = 0.0  # |ratio - 1| wherever the bound is attained
    largest = 0.0  # ratio at n >= 2 for B > -1
    smallest = 1.0  # ratio at n = N for B > -1
    for (p, q, mu, ab), M in extremal_matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        ratio = np.abs(M[0, 1:]) / coeff_bounds(ctx, jp, CORPUS_ORDER)
        if jp.B == -1.0:
            attained_gap = max(attained_gap, float(np.max(np.abs(ratio - 1.0))))
        else:
            attained_gap = max(attained_gap, abs(float(ratio[0]) - 1.0))
            largest = max(largest, float(np.max(ratio[1:])))
            smallest = min(smallest, float(ratio[-1]))
    ok = report(
        "2b",
        attained_gap <= 1e-14 and largest <= 0.991 and smallest <= 3e-5,
        f"w = z attains coeff_bound(n), n <= {CORPUS_ORDER}, for B = -1 and n = 1 "
        f"(worst |ratio - 1| {attained_gap:.1e}); for B > -1 and n >= 2 the ratio is "
        f"at most {largest:.4f}, at n = {CORPUS_ORDER} down to {smallest:.1e}",
    )
    assert ok


def test_criterion2_fekete_szego_bound_sharp(extremal_matrices):
    worst = 0.0
    for (p, q, mu, ab), M in extremal_matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        a1, a2 = M[:2, 1], M[:2, 2]
        values = np.max(np.abs(a2[:, None] - LAMBDA_GRID[None, :] * a1[:, None] ** 2), axis=0)
        bounds = np.array([fekete_szego_bound(lam, ctx, jp) for lam in LAMBDA_GRID])
        worst = max(worst, float(np.max(np.abs(values - bounds) / bounds)))
    ok = report(
        "2c",
        worst <= 1e-14,
        f"the larger of w = z and w = z^2 attains the Fekete-Szego bound at every "
        f"lambda in [-2, 2], worst relative gap {worst:.1e}",
    )
    assert ok


def test_criterion2_third_functional_bound_not_attained(extremal_matrices):
    reach = np.zeros(3)
    for (p, q, mu, ab), M in extremal_matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        if jp.B > -0.25:
            continue  # outside the bound's hypothesis
        values = [third_functional_value(NormalizedMember(ctx, TruncSeries(p, row))) for row in M]
        reach = np.maximum(reach, np.array(values) / third_functional_bound(ctx, jp))
    ok = report(
        "2d",
        reach[0] < 0.217 and reach[1] == 0.0 and reach[2] < 0.471,
        f"w = z, z^2, z^3 reach at most {reach[0]:.4f}, {reach[1]:.4f}, {reach[2]:.4f} "
        "of the third-functional bound for B <= -1/4",
    )
    assert ok


def test_criterion3_classical_limit_regression():
    q = 1.0 - 1e-6
    ctx = QContext(1, q, 0.0)
    jp = JanowskiParams(1.0, -1.0)
    gaps = [
        abs(coeff_bound(1, ctx, jp) - 2.0),
        abs(fekete_szego_bound(0.0, ctx, jp) - 3.0),
    ]
    worst_op = 0.0
    for mu in (0.0, 1.0, 2.5):
        for p in (1, 2, 3):
            c = QContext(p, q, mu)
            f = schwarz_to_member(random_schwarz(2, 99), c, jp, order=8)
            lq = apply_L(f)
            classical = ruscheweyh_classical(f.series, mu)
            rel = np.abs(lq.coeffs - classical.coeffs) / np.maximum(
                np.abs(classical.coeffs), 1e-300
            )
            worst_op = max(worst_op, float(rel.max()))
    ok = report(
        "3",
        max(gaps) <= 1e-4 and worst_op <= 1e-4,
        f"|a2|<=2 gap {gaps[0]:.2e}, |a3|<=3 gap {gaps[1]:.2e}, operator rel dev {worst_op:.2e}",
    )
    assert ok


def test_criterion4_corollary_reduction():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        q = float(rng.uniform(0.05, 0.95))
        ctx = QContext(1, q, 0.0)
        b = float(rng.uniform(-1.0, 0.6))
        a = float(rng.uniform(b + 0.05, 1.0))
        jp = JanowskiParams(a, b)
        tail = rng.uniform(0, 1) * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        f = NormalizedMember(ctx, TruncSeries(1, np.concatenate([[1.0], tail])))
        m1 = sufficiency_test(f, jp).margin
        m2 = corollary_reduction(f, jp).margin
        worst = max(worst, abs(m1 - m2))
    # Silverman-style reduction: q -> 1-, A = 1 - 2 alpha, B = -1 turns the
    # criterion into sum (n - alpha)|a_n| <= 1 - alpha (after halving)
    q = 1.0 - 1e-6
    ctx = QContext(1, q, 0.0)
    worst_s = 0.0
    for alpha in (0.125, 0.25):
        jp = JanowskiParams(1.0 - 2 * alpha, -1.0)
        for k in range(50):
            tail = 0.4 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            f = NormalizedMember(ctx, TruncSeries(1, np.concatenate([[1.0], tail])))
            silverman = (1 - alpha) - sum(
                (n - alpha) * abs(c) for n, c in enumerate(tail, start=2)
            )
            worst_s = max(worst_s, abs(corollary_reduction(f, jp).margin / 2 - silverman))
    ok = report(
        "4",
        worst <= 1e-12 and worst_s <= 1e-4,
        f"margin agreement {worst:.2e} over 10^3 inputs, Silverman gap {worst_s:.2e}",
    )
    assert ok


def test_criterion5_membership_coherence(corpus, matrices):
    t0 = time.time()
    conv_spec = SamplingSpec(radii=tuple(np.arange(1, 10) * 0.1), angles=90)
    incoherent = []
    conv_check = []
    for (p, q, mu, ab), M in matrices.items():
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        lam = lambda_table(ctx, CORPUS_ORDER).values
        qp = q_number(p, q)
        weights = np.array(
            [q_number(n + p, q) * (1 - jp.B) - qp * (1 - jp.A) for n in range(1, CORPUS_ORDER + 1)]
        )
        suff_pass = (lam * weights * np.abs(M[:, 1:])).sum(axis=1) <= qp * jp.span
        lf_rows = M * np.concatenate([[1.0], lam])[None, :]
        conv_mins, _ = _convolution_scan(lf_rows, ctx, jp, conv_spec)
        conv_pass = conv_mins >= ZERO_TOL
        for i in range(M.shape[0]):
            f = NormalizedMember(ctx, TruncSeries(p, M[i]))
            bnd = boundary_sample_test(f, jp, r=0.3, m=360).kind is VerdictKind.BOUNDARY_PASS
            if suff_pass[i] and not (bnd and conv_pass[i]):
                incoherent.append(((p, q, mu, ab), i))
            if bnd and not conv_pass[i]:
                incoherent.append(((p, q, mu, ab), i, "bnd>conv"))
        conv_check.append((ctx, jp, M))
    # the batched scan must agree with the public single-member test
    ctx, jp, M = conv_check[0]
    for i in (0, 7):
        f = NormalizedMember(ctx, TruncSeries(ctx.p, M[i]))
        v = convolution_test(f, jp, zspec=conv_spec)
        lam = lambda_table(ctx, CORPUS_ORDER).values
        mins, _ = _convolution_scan(
            (M[i] * np.concatenate([[1.0], lam]))[None, :], ctx, jp, conv_spec
        )
        assert v.margin == pytest.approx(float(mins[0]) - ZERO_TOL, rel=1e-12)

    # the crafted non-member is rejected by both analytic tests
    ctx = QContext(1, 0.5, 0.0)
    jp = JanowskiParams(1.0, -1.0)
    bad = NormalizedMember(ctx, TruncSeries(1, [1, 5] + [0] * 7))
    bv = boundary_sample_test(bad, jp, r=0.9, m=720)
    # its evidence: Q of w = -P/Q vanishes inside the disk, where P does not;
    # the coefficients of Q are its sums for one c_k z^k at z = 1
    lf = apply_L(bad).coeffs
    _, Q, _ = _membership_sums(np.diag(lf), ctx, jp, np.ones(1))
    pole = min(np.roots(Q[::-1, 0]), key=abs)
    P, _, _ = _membership_sums(lf[None, :], ctx, jp, np.array([pole]))
    cv = convolution_test(bad, jp)
    crafted_ok = (
        bv.kind is VerdictKind.BOUNDARY_FAIL
        and abs(pole) < 1.0
        and abs(P[0, 0]) > 0.1
        and cv.kind is VerdictKind.CONVOLUTION_FAIL
        and (cv.margin + ZERO_TOL) < ZERO_TOL
    )
    ok = report(
        "5",
        not incoherent and crafted_ok,
        f"{len(incoherent)} coherence faults over 200x{len(GRID)} members; crafted "
        f"non-member: pole of w at {complex(pole):.6f}, convolution min "
        f"{cv.margin + ZERO_TOL:.2e}; {time.time() - t0:.1f}s",
    )
    assert ok, incoherent[:5]


def test_criterion6_lemma_suite():
    rng = np.random.default_rng(31415)
    bad_pairs = 0
    for i in range(10_000):
        w = random_schwarz(1 + i % 4, 50_000 + i)
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs1, rhs1, lhs2 = lemma2_check(w, lam)
        if lhs1 > rhs1 + 1e-12 or lhs2 > 1.0 + 1e-12:
            bad_pairs += 1
    bad_expansions = 0
    for i in range(1000):
        w = random_schwarz(1 + i % 4, 90_000 + i)
        for ab in AB_GRID:
            jp = JanowskiParams(*ab)
            d = janowski_expand(w, jp, 8)
            if np.max(np.abs(d)) > jp.span + 1e-9:
                bad_expansions += 1
    ok = report(
        "6",
        bad_pairs == 0 and bad_expansions == 0,
        f"10^4 coefficient-lemma pairs ({bad_pairs} violations), "
        f"10^3 expansions x 4 targets ({bad_expansions} violations)",
    )
    assert ok


def test_criterion7_bernardi_consistency():
    t0 = time.time()
    worst = 0.0
    zs = (0.5, 0.35j, -0.3 + 0.4j)
    f_tail = [0.4, 0.15j, -0.1, 0.05, 0.02j, 0.01, 0.005, 0.002]
    for p in P_GRID:
        for q in Q_GRID:
            for mu in MU_GRID:
                ctx = QContext(p, q, mu)
                f = NormalizedMember(ctx, TruncSeries(p, [1.0] + f_tail))
                for eta in (1.0, 2.0, 5.0):
                    bp = BernardiParams(eta, ctx)
                    series_form = bernardi_series(f, bp)
                    for z in zs:
                        gap = abs(bernardi_jackson(f, bp, z) - evaluate(series_form, z))
                        worst = max(worst, gap)
    ok = report(
        "7",
        worst <= 1e-8,
        f"series vs Jackson-sum forms, worst gap {worst:.2e} ({time.time() - t0:.1f}s)",
    )
    assert ok


def test_criterion8_proof_identities():
    # recursion output matches the closed first and second coefficients
    rng = np.random.default_rng(777)
    worst = 0.0
    for k in range(40):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw *= rng.uniform(0.1, 1.0) / np.sum(np.abs(raw))
        w = SchwarzPoly(tuple(raw))
        for p, q, mu, ab in (GRID[k % len(GRID)],):
            ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
            f = schwarz_to_member(w, ctx, jp, order=2)
            w1, w2 = w.coeffs
            a1 = psi(1, ctx) / lambda_coeff(1, ctx) * jp.span * w1
            a2 = (
                jp.span * psi(2, ctx) / lambda_coeff(2, ctx)
                * (w2 + (jp.span * psi(1, ctx) - jp.B) * w1**2)
            )
            worst = max(worst, abs(f.series.coeffs[1] - a1), abs(f.series.coeffs[2] - a2))
    identities_ok = worst <= 1e-10

    # z^p/((1-z)(1-qz)) carries [k-p+1, q] at z^k
    from qstarlike import ratio

    kernel_ok = True
    for p in P_GRID:
        for q in Q_GRID:
            numer = TruncSeries(p, [1.0] + [0.0] * 8)
            denom = TruncSeries(0, [1.0, -(1.0 + q), q] + [0.0] * 6)
            series = ratio(numer, denom)
            for k in range(p, p + 9):
                if abs(series.coeffs[k - p] - q_number(k - p + 1, q)) > 1e-10 * max(
                    1.0, q_number(k - p + 1, q)
                ):
                    kernel_ok = False

    quad_ok = all(
        abs(4 * (2 * b - 1) ** 2 + 1 - (16 * b * b - 16 * b + 5)) < 1e-14
        for b in (-1.0, -0.5, 0.0, 0.5, 1.0)
    )
    ok = report(
        "8",
        identities_ok and kernel_ok and quad_ok,
        f"closed-form recursion gap {worst:.2e}; kernel and quadratic identities "
        f"{'hold' if kernel_ok and quad_ok else 'FAIL'}",
    )
    assert ok
