import itertools
import math

import numpy as np
import pytest

from qstarlike import (
    BernardiParams,
    SamplePoleError,
    JanowskiParams,
    LambdaConvention,
    NormalizedMember,
    QContext,
    SchwarzPoly,
    TruncSeries,
    apply_L,
    bernardi_coeff_bound,
    bernardi_coeff_bounds,
    bernardi_fekete_bound,
    bernardi_jackson,
    bernardi_series,
    boundary_sample_test,
    coeff_bound,
    coeff_bounds,
    fekete_szego_bound,
    fekete_szego_value,
    lambda_coeff,
    member_majorant,
    psi,
    q_number,
    q_number_real,
    schwarz_to_member,
    third_functional_bound,
    third_functional_value,
)
from qstarlike.bounds import psi_values
from qstarlike.cli import AB_GRID, MU_GRID, P_GRID
from qstarlike.qarith import _memo_clear, _memo_info

CTX = QContext(1, 0.5, 0.0)
JP = JanowskiParams(1.0, -1.0)

#: p x q x mu x convention grid, each context with one Janowski pair.
TABLE_GRID = [
    (QContext(p, q, mu, conv), JanowskiParams(*AB_GRID[i % len(AB_GRID)]))
    for i, (p, q, mu, conv) in enumerate(
        itertools.product(
            (1, 2, 3), (0.3, 0.5, 0.9, 0.99, 1.0 - 1e-6), (0.0, 0.5, 1.0, 2.5), LambdaConvention
        )
    )
]


def scalar_psi(n, ctx):
    return q_number(ctx.p, ctx.q) / (ctx.q**ctx.p * q_number(n, ctx.q))


def scalar_lambdas(ctx, order):
    """Lambda_1 .. Lambda_order as the scalar left fold of factor ratios."""
    shift = ctx.p if ctx.lambda_convention is LambdaConvention.PAPER_LITERAL else 0
    value, out = 1.0, []
    for j in range(1, order + shift + 1):
        value *= q_number_real(ctx.mu + float(j), ctx.q) / q_number(j, ctx.q)
        if j > shift:
            out.append(value)
    return out


def scalar_coeff_bounds(ctx, jp, order):
    """Reference: coeff_bound(n) as the scalar left fold, for n = 1 .. order."""
    span = jp.A - jp.B
    psis = [scalar_psi(n, ctx) for n in range(1, order + 1)]
    lams = scalar_lambdas(ctx, order)
    out = []
    for n in range(1, order + 1):
        value = span * psis[n - 1] / lams[n - 1]
        for t in range(1, n):
            value *= 1.0 + span * psis[t - 1]
        out.append(value)
    return out


def scalar_majorant(ctx, jp, safety=1.05):
    """Reference: the 384-step scalar scan of member_majorant."""
    span = jp.A - jp.B
    q, p = ctx.q, ctx.p
    psi_inf = q_number(p, q) * (1.0 - q) / q**p
    s = safety * (1.0 + span * psi_inf)
    log_s = math.log(s)
    shift = p if ctx.lambda_convention is LambdaConvention.PAPER_LITERAL else 0
    log_bound = math.log(coeff_bound(1, ctx, jp))
    c = math.exp(log_bound - (1 + p) * log_s)
    psi_n = scalar_psi(1, ctx)
    for n in range(1, 385):
        psi_next = scalar_psi(n + 1, ctx)
        lam_ratio = q_number(n + 1 + shift, q) / q_number_real(ctx.mu + n + 1 + shift, q)
        step = (psi_next / psi_n) * lam_ratio * (1.0 + span * psi_n)
        log_bound += math.log(step)
        c = max(c, math.exp(log_bound - (n + 1 + p) * log_s))
        psi_n = psi_next
    return c, s


class TestPsi:
    def test_values_at_half(self):
        assert psi(1, CTX) == pytest.approx(2.0)
        assert psi(2, CTX) == pytest.approx(4.0 / 3.0)

    def test_classical_limit(self):
        ctx = QContext(2, 1.0 - 1e-8, 0.0)
        assert psi(4, ctx) == pytest.approx(0.5, abs=1e-6)

    def test_table_decreasing_positive(self):
        for p in (1, 3):
            for q in (0.3, 0.9, 0.99):
                values = psi_values(QContext(p, q, 0.0), 12)
                assert np.all(values > 0)
                assert np.all(np.diff(values) < 0)

    def test_values_bit_identical_to_scalar(self):
        for ctx, _ in TABLE_GRID:
            assert psi_values(ctx, 128).tolist() == [scalar_psi(n, ctx) for n in range(1, 129)]

    def test_denominator_identity(self):
        # [n+p,q] - [p,q] = q^p [n,q] exactly; psi uses the right side
        from qstarlike import q_number

        for p in (1, 2, 3):
            for n in (1, 4, 7):
                q = 0.77
                lhs = q_number(n + p, q) - q_number(p, q)
                assert lhs == pytest.approx(q**p * q_number(n, q), rel=1e-13)


class TestCoeffBound:
    def test_first(self):
        assert coeff_bound(1, CTX, JP) == pytest.approx(4.0)

    def test_second(self):
        assert coeff_bound(2, CTX, JP) == pytest.approx(40.0 / 3.0)

    def test_classical_starlike_second_coefficient(self):
        ctx = QContext(1, 1.0 - 1e-6, 0.0)
        assert coeff_bound(1, ctx, JP) == pytest.approx(2.0, abs=1e-4)

    def test_recursion_consistency(self):
        # the closed product satisfies
        # bound_n = (A-B) psi_n / L_n * (1 + sum_(k<n) L_k bound_k)
        for ctx, jp in [
            (CTX, JP),
            (QContext(2, 0.9, 1.0), JanowskiParams(1.0, 0.0)),
            (QContext(3, 0.7, 2.5), JanowskiParams(0.5, -0.5)),
        ]:
            bounds = [coeff_bound(n, ctx, jp) for n in range(1, 9)]
            lams = [lambda_coeff(n, ctx) for n in range(1, 9)]
            for n in range(1, 9):
                acc = 1.0 + sum(lams[k - 1] * bounds[k - 1] for k in range(1, n))
                expect = jp.span * psi(n, ctx) / lams[n - 1] * acc
                assert bounds[n - 1] == pytest.approx(expect, rel=1e-12)

    def test_bit_identical_to_scalar_fold(self):
        for ctx, jp in TABLE_GRID:
            ref = scalar_coeff_bounds(ctx, jp, 128)
            assert [coeff_bound(n, ctx, jp) for n in range(1, 129)] == ref, (ctx, jp)
            assert coeff_bounds(ctx, jp, 128).tolist() == ref, (ctx, jp)

    def test_positive_over_grid(self):
        for p in (1, 2, 3):
            for q in (0.3, 0.99):
                for mu in (0.0, 2.5):
                    for ab in ((1.0, -1.0), (0.5, -0.5)):
                        v = coeff_bound(3, QContext(p, q, mu), JanowskiParams(*ab))
                        assert v > 0


class TestBoundMemo:
    SIZES = (1, 15, 16, 17, 255, 256, 257, 385)

    @pytest.mark.parametrize(
        "ctx,jp",
        [
            (QContext(2, 0.9, 1.0), JanowskiParams(0.5, -0.5)),
            (QContext(1, 0.99, 2.5, LambdaConvention.PAPER_LITERAL), JanowskiParams(1.0, 0.0)),
        ],
    )
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_cached_tables_equal_scalar_folds(self, ctx, jp, order):
        top = max(self.SIZES)
        ref_psi = [scalar_psi(n, ctx) for n in range(1, top + 1)]
        ref_bounds = scalar_coeff_bounds(ctx, jp, top)
        _memo_clear()
        for n in sorted(self.SIZES, reverse=order == "descending"):
            assert psi_values(ctx, n).tolist() == ref_psi[:n], n
            assert coeff_bounds(ctx, jp, n).tolist() == ref_bounds[:n], n
            assert coeff_bound(n, ctx, jp) == ref_bounds[n - 1]

    def test_tables_are_read_only(self):
        for table in (psi_values(CTX, 8), coeff_bounds(CTX, JP, 8)):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_overflowing_bound_raises_everywhere(self):
        # the bounds of this point pass the double range at n = 166
        ctx, jp = QContext(3, 0.3, 0.0), JanowskiParams(1.0, -1.0)
        _memo_clear()
        assert coeff_bound(165, ctx, jp) == 5.311307917949516e307
        assert np.isfinite(coeff_bounds(ctx, jp, 165)).all()
        for call in (
            lambda: coeff_bound(166, ctx, jp),
            lambda: coeff_bounds(ctx, jp, 200),
            lambda: bernardi_coeff_bound(166, BernardiParams(1.0, ctx), jp),
            lambda: bernardi_coeff_bounds(BernardiParams(1.0, ctx), jp, 200),
        ):
            with pytest.raises(ValueError, match="n = 166"):
                call()
        assert coeff_bound(165, ctx, jp) == 5.311307917949516e307

    def test_deep_order_working_set_is_built_once(self):
        # the tables one N = 128 member, its bounds and its transforms ask
        # for, over 27 contexts x 4 (A,B): the second pass reads them all
        order = 128
        w = SchwarzPoly((0.4, -0.3j))
        grid = [
            (QContext(p, q, mu), JanowskiParams(*ab))
            for p, q, mu, ab in itertools.product(P_GRID, (0.5, 0.7, 0.9), MU_GRID, AB_GRID)
        ]

        def one_pass():
            for ctx, jp in grid:
                f = schwarz_to_member(w, ctx, jp, order=order)
                bp = BernardiParams(1.0, ctx)
                apply_L(f)
                for n in range(1, order + 1):
                    coeff_bound(n, ctx, jp)
                member_majorant(ctx, jp)
                bernardi_jackson(f, bp, 0.5)
                bernardi_series(f, bp)
                try:
                    boundary_sample_test(f, jp)
                except SamplePoleError:
                    pass

        _memo_clear()
        one_pass()
        built = _memo_info()["builds"]
        one_pass()
        assert _memo_info()["builds"] == built

    def test_overflowing_lambda_is_not_a_zero_bound(self):
        # Lambda of this point overflows at n = 308 (see test_operators)
        ctx = QContext(1, 1.0 - 1e-6, 1000.0)
        assert np.isfinite(coeff_bounds(ctx, JP, 307)).all()
        with pytest.raises(ValueError, match="n = 308"):
            coeff_bounds(ctx, JP, 308)


class TestFeketeSzego:
    def test_zero_upsilon_floor(self):
        ctx, jp = CTX, JP
        psi1, psi2 = psi(1, ctx), psi(2, ctx)
        l1, l2 = lambda_coeff(1, ctx), lambda_coeff(2, ctx)
        lam_star = -(jp.B - jp.span * psi1) * l1**2 * psi2 / (jp.span * l2 * psi1**2)
        floor = jp.span * psi2 / l2
        assert fekete_szego_bound(lam_star, ctx, jp) == pytest.approx(floor, rel=1e-12)

    def test_classical_third_coefficient(self):
        ctx = QContext(1, 1.0 - 1e-6, 0.0)
        assert fekete_szego_bound(0.0, ctx, JP) == pytest.approx(3.0, abs=1e-4)

    def test_direct_substitution(self):
        # lam = 0, q = 0.5, A = 1, B = 0: upsilon = -2, bound = (4/3)*2
        v = fekete_szego_bound(0.0, CTX, JanowskiParams(1.0, 0.0))
        assert v == pytest.approx(8.0 / 3.0)

    def test_value_monomial(self):
        f = NormalizedMember(CTX, TruncSeries(1, [1, 0, 0]))
        for lam in (0.0, 1.5, 2j):
            assert fekete_szego_value(f, lam) == 0.0

    def test_value_independent_of_lambda_when_a1_zero(self):
        f = NormalizedMember(CTX, TruncSeries(1, [1, 0, 0.7j]))
        assert fekete_szego_value(f, 5.0) == pytest.approx(0.7)

    def test_value_needs_two_coefficients(self):
        f = NormalizedMember(CTX, TruncSeries(1, [1, 0.5]))
        with pytest.raises(ValueError):
            fekete_szego_value(f, 0.0)


class TestThirdFunctional:
    def test_monomial(self):
        f = NormalizedMember(CTX, TruncSeries(1, [1, 0, 0, 0]))
        assert third_functional_value(f) == 0.0

    def test_only_top_coefficient(self):
        f = NormalizedMember(CTX, TruncSeries(1, [1, 0, 0, 0.4j]))
        assert third_functional_value(f) == pytest.approx(0.4)

    def test_bound_at_half(self):
        jp = JanowskiParams(1.0, 0.5)
        expect = jp.span * psi(3, CTX) / (8.0 * lambda_coeff(3, CTX))
        assert third_functional_bound(CTX, jp) == pytest.approx(expect, rel=1e-13)

    def test_classical_value(self):
        ctx = QContext(1, 1.0 - 1e-6, 0.0)
        assert third_functional_bound(ctx, JP) == pytest.approx(37.0 / 12.0, abs=1e-4)

    @pytest.mark.parametrize("b", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_quadratic_identity(self, b):
        assert 4.0 * (2.0 * b - 1.0) ** 2 + 1.0 == pytest.approx(16 * b * b - 16 * b + 5)

    def test_rotation_seed_value(self):
        # w(z) = z: the functional collapses to (A-B) psi_3 |B^2| / Lambda_3
        f = schwarz_to_member(SchwarzPoly((1.0,)), CTX, JP, order=4)
        expect = 2.0 * psi(3, CTX) * 1.0
        assert third_functional_value(f) == pytest.approx(expect, rel=1e-10)

    def test_bound_formula_fails_outside_validity_region(self):
        # the closed-form constant (16B^2-16B+5)/8 is derived under B <= -1/4;
        # at B = 0 the member generated from w(z) = z^3 exceeds it by 60%,
        # so the formula must not be trusted for larger B
        jp = JanowskiParams(1.0, 0.0)
        f = schwarz_to_member(SchwarzPoly((0.0, 0.0, 1.0)), CTX, jp, order=4)
        value = third_functional_value(f)
        bound = third_functional_bound(CTX, jp)
        assert value == pytest.approx(psi(3, CTX), rel=1e-12)  # (A-B) psi_3 |w_3|
        assert value > bound

    def test_bound_holds_in_validity_region_for_extremal_seeds(self):
        for b in (-1.0, -0.5, -0.25):
            jp = JanowskiParams(1.0, b)
            for w in (SchwarzPoly((1.0,)), SchwarzPoly((0.0, 0.0, 1.0)), SchwarzPoly((0.0, 1.0))):
                f = schwarz_to_member(w, CTX, jp, order=4)
                assert third_functional_value(f) <= third_functional_bound(CTX, jp) + 1e-9


class TestBernardiBounds:
    def test_q_factor(self):
        bp = BernardiParams(1.0, CTX)
        assert bernardi_coeff_bound(1, bp, JP) == pytest.approx((1.5 / 1.75) * 4.0)

    def test_classical_factor(self):
        ctx = QContext(1, 1.0 - 1e-6, 0.0)
        bp = BernardiParams(1.0, ctx)
        assert bernardi_coeff_bound(1, bp, JP) == pytest.approx(4.0 / 3.0, abs=1e-4)

    def test_table_equals_scalar_fold(self):
        # entry n is bernardi_coeff_bound(n) and ([eta+p,q]/[eta+p+n,q]) coeff_bound(n), bit for bit
        for p, q, eta in itertools.product((1, 3), (0.3, 0.9), (-0.5, 1.0, 2.5)):
            ctx = QContext(p, q, 1.0)
            bp = BernardiParams(eta, ctx)
            table = bernardi_coeff_bounds(bp, JP, 12)
            base = q_number_real(eta + p, q)
            for n in range(1, 13):
                ref = base / q_number_real(eta + p + n, q) * coeff_bound(n, ctx, JP)
                assert table[n - 1] == bernardi_coeff_bound(n, bp, JP) == ref

    def test_shrinks_plain_bound(self):
        bp = BernardiParams(0.0, CTX)
        for n in (1, 2, 3):
            assert bernardi_coeff_bound(n, bp, JP) < coeff_bound(n, CTX, JP)

    def test_sigma_zero_reduction(self):
        bp = BernardiParams(1.0, CTX)
        e0 = q_number_real(1.0 + 1, 0.5)
        e2 = q_number_real(1.0 + 3, 0.5)
        expect = (e0 / e2) * fekete_szego_bound(0.0, CTX, JP)
        assert bernardi_fekete_bound(0.0, bp, JP) == pytest.approx(expect, rel=1e-13)

    def test_effective_lambda_route(self):
        rng = np.random.default_rng(19)
        bp = BernardiParams(1.0, CTX)
        e0 = q_number_real(2.0, 0.5)
        e1 = q_number_real(3.0, 0.5)
        e2 = q_number_real(4.0, 0.5)
        for _ in range(50):
            sigma = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            via_effective = (e0 / e2) * fekete_szego_bound(sigma * e0 * e2 / e1**2, CTX, JP)
            assert bernardi_fekete_bound(sigma, bp, JP) == pytest.approx(
                via_effective, rel=1e-12
            )

    def test_transform_dominated_by_bernardi_bounds(self, small_corpus):
        bp = BernardiParams(2.0, CTX)
        for _, w in small_corpus:
            f = schwarz_to_member(w, CTX, JP, order=6)
            b = bernardi_series(f, bp)
            for n in range(1, 7):
                assert abs(b.coeffs[n]) <= bernardi_coeff_bound(n, bp, JP) + 1e-9


class TestSharpness:
    def test_first_coefficient_attained_by_rotation_seed(self):
        for p in (1, 2, 3):
            for q in (0.3, 0.9):
                for mu in (0.0, 2.5):
                    for ab in ((1.0, -1.0), (0.75, -1.0)):
                        ctx = QContext(p, q, mu)
                        jp = JanowskiParams(*ab)
                        f = schwarz_to_member(SchwarzPoly((1.0,)), ctx, jp, order=2)
                        assert abs(f.series.coeffs[1]) == pytest.approx(
                            coeff_bound(1, ctx, jp), abs=1e-10
                        )


class TestMajorant:
    @pytest.mark.parametrize(
        "ctx,jp",
        [
            (QContext(1, 0.5, 0.0), JP),
            (QContext(2, 0.9, 1.0), JanowskiParams(1.0, 0.0)),
            (QContext(3, 0.3, 0.0), JP),
            (QContext(1, 0.99, 2.5), JanowskiParams(0.5, -0.5)),
        ],
    )
    def test_dominates_bounds(self, ctx, jp):
        c, s = member_majorant(ctx, jp)
        for n in range(1, 41):
            assert coeff_bound(n, ctx, jp) <= c * s ** (n + ctx.p) * (1 + 1e-9)

    def test_matches_scalar_scan(self):
        for ctx, jp in TABLE_GRID:
            c, s = member_majorant(ctx, jp)
            c_ref, s_ref = scalar_majorant(ctx, jp)
            assert s == s_ref
            assert abs(c - c_ref) <= 1e-13 * c_ref, (ctx, jp)

    def test_tail_below_1e3_where_convergent(self):
        # N = 12, r = 0.5: the envelope tail is certifiable only where the
        # growth ratio stays below 2; the wide-span targets exceed it
        from qstarlike import tail_bound

        for q in (0.9, 0.99):
            ctx = QContext(1, q, 0.0)
            jp = JanowskiParams(0.5, -0.5)
            c, s = member_majorant(ctx, jp, safety=1.02)
            f = schwarz_to_member(SchwarzPoly((0.4, 0.2)), ctx, jp, order=12)
            bound = tail_bound(f.series, 0.5, coeff=c, growth=s)
            assert 0 < bound < 1e-3

