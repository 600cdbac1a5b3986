import io
import itertools
import operator
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from qstarlike import (
    JanowskiExpansion,
    JanowskiParams,
    QContext,
    SchwarzPoly,
    TruncSeries,
    VerdictKind,
    boundary_sample_test,
    coeff_bound,
    dump_corpus,
    evaluate,
    janowski_expand,
    janowski_value,
    lambda_coeff,
    lemma2_check,
    load_corpus,
    member_matrix,
    psi,
    random_schwarz,
    ratio,
    schwarz_corpus,
    schwarz_to_member,
    subordination_roundtrip_error,
)
from qstarlike.bounds import psi_values
from qstarlike.cli import AB_GRID, MU_GRID, P_GRID, Q_GRID
from qstarlike.operators import apply_L, lambda_table, q_derivative
from qstarlike.oracle import (
    _MP_PRODUCTS,
    _janowski_rows,
    _mp_lambda,
    _mp_members,
    _mp_products,
    _mp_qnum,
    _schwarz_matrix,
)
from qstarlike.qarith import LambdaConvention, q_number

CTX = QContext(1, 0.5, 0.0)
JP = JanowskiParams(1.0, -1.0)

AB_CASES = [(1.0, -1.0), (1.0, 0.0), (0.5, -0.5), (0.75, -1.0)]

GRID = list(itertools.product(P_GRID, Q_GRID, MU_GRID, AB_GRID))

#: The four corners of the round-trip tests: steep, mid, near-classical, mixed.
CORNERS = [
    (QContext(1, 0.3, 0.0), (1.0, -1.0)),
    (QContext(2, 0.5, 1.0), (1.0, 0.0)),
    (QContext(3, 0.99, 2.5), (0.5, -0.5)),
    (QContext(1, 0.9, 0.0), (0.75, -1.0)),
]


def reference_janowski(w, jp, order):
    """d_0 .. d_order of (1 + A w)/(1 + B w) by the scalar series division
    d_k = A w_k - sum_(j=1..k) (B w_j) d_(k-j), summed left to right."""
    wc = [0j] * (order + 1)
    for j, c in enumerate(w.coeffs[:order], start=1):
        wc[j] = complex(c)
    neg_bw = [-jp.B * c for c in wc]
    d = [1 + 0j]
    for k in range(1, order + 1):
        d.append(sum(map(operator.mul, neg_bw[1 : k + 1], reversed(d)), jp.A * wc[k]))
    return d


def reference_recursion(d, lam, psis):
    """The per-row double loop that member_matrix replaced:
    a_n = (psi_n / Lambda_n)(d_n + sum_(0<k<n) (Lambda_k a_k) d_(n-k)),
    summed left to right from d_n in scalar arithmetic."""
    order = len(lam)
    a = [1 + 0j]
    lam_a = [1 + 0j]
    for n in range(1, order + 1):
        acc = sum(map(operator.mul, lam_a[1:n], reversed(d[1:n])), d[n])
        a.append(psis[n - 1] / lam[n - 1] * acc)
        lam_a.append(lam[n - 1] * a[n])
    return a


def row_relative_gap(M, ref):
    """max_j |M_ij - ref_ij| / max_j |ref_ij|, the worst over rows i."""
    return float(np.max(np.max(np.abs(M - ref), axis=1) / np.max(np.abs(ref), axis=1)))


class TestSchwarzPoly:
    def test_certificate_enforced(self):
        with pytest.raises(ValueError):
            SchwarzPoly((0.8, 0.5))

    def test_unit_sum_allowed(self):
        SchwarzPoly((0.5, 0.5))

    def test_value_bounded_on_disk(self):
        w = SchwarzPoly((0.4, 0.3, 0.2))
        for z in (0.5, -0.9j, 0.6 + 0.3j):
            assert abs(evaluate(TruncSeries(1, w.coeffs), z)) < abs(z) + 1e-12

    def test_padded(self):
        assert SchwarzPoly((0.5,)).padded(3) == (0.5, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan"))])
    def test_rejects_non_finite_coefficient(self, bad):
        # NaN compares False against the certificate, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            SchwarzPoly((0.1, bad))


class TestRandomSchwarz:
    def test_invariant_always_holds(self):
        for seed in range(40):
            w = random_schwarz(4, seed)
            assert sum(abs(c) for c in w.coeffs) <= 1.0 + 1e-12

    def test_deterministic(self):
        a = random_schwarz(3, 123)
        b = random_schwarz(3, 123)
        assert a.coeffs == b.coeffs

    def test_single_coefficient(self):
        w = random_schwarz(1, 5)
        assert len(w.coeffs) == 1 and abs(w.coeffs[0]) <= 1.0

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            random_schwarz(0, 1)


class TestJanowskiExpand:
    def test_rotation_half_plane(self):
        d = janowski_expand(SchwarzPoly((1.0,)), JP, 8).d
        assert np.allclose(d, 2.0 * np.ones(8))

    @pytest.mark.parametrize("a,b", AB_CASES)
    def test_rotation_general(self, a, b):
        jp = JanowskiParams(a, b)
        d = janowski_expand(SchwarzPoly((1.0,)), jp, 8).d
        expect = (a - b) * (-b) ** np.arange(8)
        assert np.allclose(d, expect, atol=1e-12)

    def test_zero_map(self):
        d = janowski_expand(SchwarzPoly((0.0,)), JP, 6).d
        assert np.allclose(d, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(float("inf"), 0.0)])
    def test_expansion_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JanowskiExpansion(np.array([0.5, bad]), JP)

    def test_leading_two_coefficients(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            raw *= 0.9 / np.sum(np.abs(raw))
            w = SchwarzPoly(tuple(raw))
            for a, b in AB_CASES:
                jp = JanowskiParams(a, b)
                d = janowski_expand(w, jp, 4).d
                w1, w2 = w.coeffs[0], w.coeffs[1]
                assert d[0] == pytest.approx(jp.span * w1, abs=1e-12)
                assert d[1] == pytest.approx(jp.span * (w2 - b * w1**2), abs=1e-12)

    def test_rotation_lemma_sweep(self):
        # |d_n| <= A - B for every expansion: the target is a convex disk
        for seed in range(250):
            w = random_schwarz(1 + seed % 4, seed)
            for a, b in AB_CASES:
                d = janowski_expand(w, JanowskiParams(a, b), 8).d
                assert np.max(np.abs(d)) <= (a - b) + 1e-9


class TestRecursion:
    def test_zero_seed_gives_monomial(self):
        f = schwarz_to_member(SchwarzPoly((0.0,)), CTX, JP, order=6)
        assert np.allclose(f.series.coeffs, [1, 0, 0, 0, 0, 0, 0])

    def test_rotation_seed_attains_first_bound(self):
        f = schwarz_to_member(SchwarzPoly((1.0,)), CTX, JP, order=3)
        assert f.series.coeffs[1] == pytest.approx(coeff_bound(1, CTX, JP), rel=1e-12)

    def test_hand_recursion_at_half(self):
        f = schwarz_to_member(SchwarzPoly((1.0,)), CTX, JP, order=3)
        assert f.series.coeffs[1] == pytest.approx(4.0)
        assert f.series.coeffs[2] == pytest.approx(40.0 / 3.0)

    def test_first_two_closed_forms(self):
        # a_(p+1) = (psi_1/L_1)(A-B) w_1
        # a_(p+2) = ((A-B) psi_2 / L_2) (w_2 + ((A-B) psi_1 - B) w_1^2)
        rng = np.random.default_rng(13)
        for _ in range(60):
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            raw *= rng.uniform(0.05, 1.0) / np.sum(np.abs(raw))
            w = SchwarzPoly(tuple(raw))
            for a, b in AB_CASES:
                jp = JanowskiParams(a, b)
                for ctx in (CTX, QContext(2, 0.7, 1.0), QContext(3, 0.9, 2.5)):
                    f = schwarz_to_member(w, ctx, jp, order=2)
                    span = jp.span
                    w1, w2 = w.coeffs
                    a1 = psi(1, ctx) / lambda_coeff(1, ctx) * span * w1
                    a2 = (
                        span
                        * psi(2, ctx)
                        / lambda_coeff(2, ctx)
                        * (w2 + (span * psi(1, ctx) - b) * w1**2)
                    )
                    assert f.series.coeffs[1] == pytest.approx(a1, abs=1e-10)
                    assert f.series.coeffs[2] == pytest.approx(a2, abs=1e-10)


class TestBatchedOracle:
    @pytest.mark.parametrize("order", [8, 32])
    def test_matches_per_row_reference_over_grid(self, corpus, order):
        # the row-batched division and recursion sum in another order than
        # the per-row loop, so agreement is to rounding, not bit for bit
        d_rows = {
            ab: [reference_janowski(w, JanowskiParams(*ab), order) for _, w in corpus]
            for ab in AB_GRID
        }
        worst = 0.0
        for p, q, mu, ab in GRID:
            ctx = QContext(p, q, mu)
            M = member_matrix(corpus, ctx, JanowskiParams(*ab), order=order)
            lam = lambda_table(ctx, order).values.tolist()
            psis = psi_values(ctx, order).tolist()
            ref = np.array([reference_recursion(d, lam, psis) for d in d_rows[ab]])
            worst = max(worst, row_relative_gap(M, ref))
        assert worst <= 1e-14

    @pytest.mark.parametrize("order", [2, 8, 32, 128])
    def test_one_row_wrapper_is_the_matrix_row(self, corpus, order):
        rows = range(0, len(corpus), 23) if order < 128 else (0, 77, 199)
        grid = GRID if order < 128 else GRID[::17]
        for p, q, mu, ab in grid:
            ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
            M = member_matrix(corpus, ctx, jp, order=order)
            for i in rows:
                f = schwarz_to_member(corpus[i][1], ctx, jp, order=order)
                assert f.series.coeffs.tolist() == M[i].tolist()

    def test_janowski_expand_is_the_batched_division(self, corpus):
        for ab in AB_CASES:
            jp = JanowskiParams(*ab)
            D = _janowski_rows(_schwarz_matrix([w for _, w in corpus], 16), jp)
            for i in range(0, len(corpus), 19):
                assert janowski_expand(corpus[i][1], jp, 16).d.tolist() == D[i, 1:].tolist()

    def test_drift_from_mpmath_at_order_64(self):
        order = 64
        seeds = [(1 + s % 4, 500 + s) for s in range(10)]
        worst = 0.0
        for ctx, ab in CORNERS:
            jp = JanowskiParams(*ab)
            corpus = [(seed, random_schwarz(k, seed)) for k, seed in seeds]
            M = member_matrix(corpus, ctx, jp, order=order)
            with mpmath.workdps(50):
                wcs = [[mpmath.mpc(c) for c in w.padded(order)[:order]] for _, w in corpus]
                rows, _ = _mp_members(wcs, ctx, jp, order)
            ref = np.array([[complex(c) for c in a] for a in rows])
            worst = max(worst, row_relative_gap(M, ref))
        assert worst <= 1e-13

    def test_empty_corpus(self):
        assert member_matrix([], CTX, JP, order=4).shape == (0, 5)

    def test_order_zero_is_the_monomial(self):
        f = schwarz_to_member(SchwarzPoly((0.5,)), CTX, JP, order=0)
        assert f.series.coeffs.tolist() == [1.0]

    def test_division_quiet_on_overflow(self):
        # the row-batched division runs without warnings; an overflowing
        # quotient comes back non-finite
        W = np.array([[0.0, 1e300, 1e300, 1e300]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            D = _janowski_rows(W, JanowskiParams(1.0, -1.0))
        assert not np.all(np.isfinite(D))


def reference_mp_lambda(n, ctx, q):
    """Lambda at offset n as its own product of n (or n + p) factor pairs."""
    mu = mpmath.mpf(ctx.mu)
    m = n + ctx.p if ctx.lambda_convention is LambdaConvention.PAPER_LITERAL else n
    num = mpmath.mpf(1)
    den = mpmath.mpf(1)
    for j in range(m):
        num *= _mp_qnum(mu + 1 + j, q)
        den *= _mp_qnum(mpmath.mpf(1) + j, q)
    return num / den


class TestMpLambda:
    CONTEXTS = [(2, 0.9, 2.5), (3, 0.5, 1.0), (1, 0.99, -0.5)]

    @pytest.mark.parametrize("dps", [30, 40])
    @pytest.mark.parametrize("conv", list(LambdaConvention))
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_running_product_equals_per_n_product(self, dps, conv, order):
        ns = sorted(range(1, 37), reverse=order == "descending")
        _mp_products.cache_clear()
        for p, q, mu in self.CONTEXTS:
            ctx = QContext(p, q, mu, conv)
            with mpmath.workdps(dps):
                mq = mpmath.mpf(q)
                for n in ns:
                    assert _mp_lambda(n, ctx, mq) == reference_mp_lambda(n, ctx, mq), (ctx, n)

    def test_precisions_keep_separate_products(self):
        ctx = QContext(2, 0.7, 1.0)
        _mp_products.cache_clear()
        for dps in (40, 30, 40, 50):
            with mpmath.workdps(dps):
                q = mpmath.mpf(ctx.q)
                assert _mp_lambda(20, ctx, q) == reference_mp_lambda(20, ctx, q), dps
        assert _mp_products.cache_info().currsize == 3

    def test_threads_growing_one_product_agree(self):
        # at the default precision: mpmath's precision is process-wide
        ctx = QContext(2, 0.8, 1.5, LambdaConvention.PAPER_LITERAL)
        q = mpmath.mpf(ctx.q)
        ref = {n: reference_mp_lambda(n, ctx, q) for n in range(1, 61)}

        def hammer(shift):
            return [(n, _mp_lambda(n, ctx, q)) for n in range(1 + shift, 61, 4)]

        _mp_products.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(hammer, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert sum(len(got) for got in results) == 60
        for got in results:
            for n, value in got:
                assert value == ref[n], n

    def test_product_memo_stays_within_its_bound(self):
        _mp_products.cache_clear()
        with mpmath.workdps(30):
            for mu in np.linspace(0.0, 3.0, 3 * _MP_PRODUCTS).tolist():
                ctx = QContext(1, 0.6, mu)
                _mp_lambda(8, ctx, mpmath.mpf(ctx.q))
                assert _mp_products.cache_info().currsize <= _MP_PRODUCTS


class TestLemma2:
    def test_rotation(self):
        for lam in (0.0, 0.5, 2.0, 1j):
            lhs1, rhs1, lhs2 = lemma2_check(SchwarzPoly((1.0,)), lam)
            assert lhs1 == pytest.approx(abs(lam))
            assert rhs1 == max(1.0, abs(lam))
            assert lhs2 == pytest.approx(1.0 / 16.0)

    def test_second_coefficient_seed(self):
        lhs1, rhs1, lhs2 = lemma2_check(SchwarzPoly((0.0, 1.0)), 3.0)
        assert lhs1 == pytest.approx(1.0)
        assert rhs1 == 3.0
        assert lhs2 == 0.0

    def test_sweep(self):
        rng = np.random.default_rng(4)
        for seed in range(2000):
            w = random_schwarz(3 + seed % 2, seed)
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lhs1, rhs1, lhs2 = lemma2_check(w, lam)
            assert lhs1 <= rhs1 + 1e-12
            assert lhs2 <= 1.0 + 1e-12


class TestRoundTrip:
    def test_double_precision_route_at_moderate_growth(self):
        # reconstruct h through the public operators and series division and
        # compare with the target map pointwise; valid in doubles while the
        # member's coefficient growth stays mild
        ctx = QContext(1, 0.5, 0.0)
        w = SchwarzPoly((0.3 + 0.2j, 0.1))
        f = schwarz_to_member(w, ctx, JP, order=48)
        lf = apply_L(f)
        num = TruncSeries(ctx.p, q_derivative(lf, ctx.q).coeffs)
        h = ratio(num, TruncSeries(ctx.p, q_number(ctx.p, ctx.q) * lf.coeffs), order=48)
        for ang in np.linspace(0.3, 5.9, 7):
            z = 0.5 * np.exp(1j * ang)
            wz = evaluate(TruncSeries(1, w.coeffs), z)
            assert abs(evaluate(h, z) - janowski_value(wz, JP)) <= 1e-9

    @pytest.mark.parametrize(
        "ctx,ab",
        [
            (QContext(1, 0.3, 0.0), (1.0, -1.0)),
            (QContext(2, 0.5, 1.0), (1.0, 0.0)),
            (QContext(3, 0.99, 2.5), (0.5, -0.5)),
            (QContext(1, 0.9, 0.0), (0.75, -1.0)),
        ],
    )
    def test_high_precision_route_across_corners(self, ctx, ab):
        jp = JanowskiParams(*ab)
        for seed in (1, 2):
            w = random_schwarz(3, seed)
            assert subordination_roundtrip_error(w, ctx, jp, order=48) <= 1e-9

    def test_extremal_seed_at_steepest_corner(self):
        err = subordination_roundtrip_error(
            SchwarzPoly((1.0,)), QContext(1, 0.3, 0.0), JP, order=48
        )
        assert err <= 1e-9

    def test_generated_members_stay_subordinate_at_half_radius(self, small_corpus):
        # the reconstructed map stays inside the target disk: modulus < 1
        # with margin well beyond the truncation allowance
        for _, w in small_corpus:
            f = schwarz_to_member(w, CTX, JP, order=8)
            v = boundary_sample_test(f, JP, r=0.5, m=96)
            assert v.kind is VerdictKind.BOUNDARY_PASS
            assert v.margin > 0.05


class TestCorpus:
    def test_shape_and_determinism(self):
        c1 = schwarz_corpus()
        c2 = schwarz_corpus()
        assert len(c1) == 200
        assert all(a[0] == b[0] and a[1].coeffs == b[1].coeffs for a, b in zip(c1, c2))

    def test_member_matrix_shape(self, small_corpus):
        m = member_matrix(small_corpus, CTX, JP, order=8)
        assert m.shape == (len(small_corpus), 9)
        assert np.all(m[:, 0] == 1.0)

    def test_dump_and_load(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        dump_corpus(path, small_corpus, CTX, JP, order=6)
        rows = load_corpus(path)
        assert len(rows) == len(small_corpus)
        f = schwarz_to_member(small_corpus[3][1], CTX, JP, order=6)
        assert np.allclose(rows[3]["coeffs"], f.series.coeffs)

    def test_dump_bit_identical(self, small_corpus):
        a, b = io.StringIO(), io.StringIO()
        dump_corpus(a, small_corpus, CTX, JP, order=6)
        dump_corpus(b, small_corpus, CTX, JP, order=6)
        assert a.getvalue() == b.getvalue()
