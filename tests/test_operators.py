import math

import mpmath
import numpy as np
import pytest

from qstarlike import (
    BernardiParams,
    JanowskiParams,
    LambdaConvention,
    LambdaTable,
    NormalizedMember,
    QContext,
    TruncSeries,
    apply_L,
    bernardi_factors,
    bernardi_jackson,
    bernardi_series,
    evaluate,
    hadamard,
    lambda_coeff,
    lambda_table,
    phi_kernel,
    q_derivative,
    q_number,
    q_number_real,
    q_numbers,
    ruscheweyh_classical,
    schwarz_to_member,
    random_schwarz,
)
from qstarlike.cli import MU_GRID, P_GRID, Q_GRID
from qstarlike.operators import JACKSON_CUTOFF
from qstarlike.oracle import _mp_lambda
from qstarlike.qarith import _memo_clear

CTX = QContext(1, 0.5, 0.0)
JP = JanowskiParams(1.0, -1.0)

#: Contexts the vectorized table is gated on: p x q x mu x convention.
TABLE_GRID = [
    QContext(p, q, mu, conv)
    for p in (1, 2, 3)
    for q in (0.3, 0.5, 0.9, 0.99, 1.0 - 1e-6)
    for mu in (0.0, 0.5, 1.0, 2.0, 2.5, -0.5)
    for conv in LambdaConvention
]


def scalar_lambdas(ctx, order):
    """Reference: the scalar left fold of factor ratios, one q_number loop per factor.

    Lambda at offset n is the fold after m = n (or n + p, literal) steps, so
    one pass records every offset.
    """
    shift = ctx.p if ctx.lambda_convention is LambdaConvention.PAPER_LITERAL else 0
    value, out = 1.0, []
    for j in range(1, order + shift + 1):
        value *= q_number_real(ctx.mu + float(j), ctx.q) / q_number(j, ctx.q)
        if j > shift:
            out.append(value)
    return out


def scalar_jackson(f, bp, z):
    """Reference: the term-by-term Jackson sum with a 4096-term cap, one
    evaluate per term (integer eta)."""
    q, eta = bp.ctx.q, int(bp.eta)
    total, qk = 0.0 + 0.0j, 1.0
    for _ in range(4096):
        if qk < JACKSON_CUTOFF:
            break
        t = qk * z
        total += qk * t ** (eta - 1) * evaluate(f.series, t)
        qk *= q
    return q_number_real(eta + bp.ctx.p, q) * (z * (1.0 - q) * total) / z**eta


def chunked_jackson(f, bp, z, terms=None):
    """Reference: bernardi_jackson with every array pass 16,384 powers q^k
    long, filtered to q^k >= JACKSON_CUTOFF afterwards."""
    ctx, q, eta = bp.ctx, bp.ctx.q, float(bp.eta)
    exponent = int(eta) - 1 if eta.is_integer() else eta - 1.0
    z = complex(z)
    remaining = math.inf if terms is None else int(terms)
    total, first = 0.0 + 0.0j, 1.0
    while remaining > 0:
        size = int(min(remaining, 1 << 14))
        steps = np.full(size, q)
        steps[0] = first
        qk = np.multiply.accumulate(steps)
        qk = qk[qk >= JACKSON_CUTOFF]
        t = qk * z
        total += np.sum(qk * t**exponent * evaluate(f.series, t))
        if qk.size < size:
            break
        remaining -= size
        first = qk[-1] * q
    zpow = z ** int(eta) if eta.is_integer() else z**eta
    return q_number_real(eta + ctx.p, q) * (z * (1.0 - q) * total) / zpow


#: q^k by repeated products stays >= JACKSON_CUTOFF for k <= 95 at this q,
#: one term more than floor(log(cutoff) / log(q)) + 1 counts.
Q_ESTIMATE_SHORT = 0.7476256801637686


def member(ctx, tail):
    return NormalizedMember(ctx, TruncSeries(ctx.p, [1.0] + list(tail)))


class TestQDerivative:
    def test_monomial(self):
        for p in (1, 2, 3):
            out = q_derivative(TruncSeries(p, [1.0]), 0.5)
            assert out.lead == p - 1
            assert out.coeffs[0] == pytest.approx(q_number(p, 0.5))

    def test_two_terms(self):
        out = q_derivative(TruncSeries(1, [1, 1]), 0.5)
        assert np.allclose(out.coeffs, [1.0, 1.5])

    def test_difference_quotient(self):
        # termwise rule vs. (f(z) - f(qz)) / (z (1-q)) at random points
        rng = np.random.default_rng(5)
        for _ in range(200):
            order = int(rng.integers(1, 9))
            lead = int(rng.integers(0, 3))
            coeffs = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            f = TruncSeries(lead, coeffs)
            q = float(rng.uniform(0.05, 0.95))
            z = rng.uniform(0.1, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            lhs = evaluate(q_derivative(f, q), z)
            rhs = (evaluate(f, z) - evaluate(f, q * z)) / (z * (1 - q))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_scales_by_the_q_number_table_bit_for_bit(self):
        # one [k,q] definition: the termwise factors are q_number's power sums
        for lead in (0, 1, 3):
            for q in (0.3, 0.9, 1.0 - 1e-6):
                out = q_derivative(TruncSeries(lead, np.ones(65)), q)
                want = [q_number(k, q) for k in range(max(lead, 1), lead + 65)]
                assert np.array_equal(out.coeffs, want)

    def test_constant(self):
        out = q_derivative(TruncSeries(0, [7.0]), 0.5)
        assert np.allclose(out.coeffs, [0.0])


class TestLambdaCoefficients:
    def test_identity_at_mu_zero(self):
        for n in (1, 2, 5, 8):
            for q in (0.3, 0.5, 0.9):
                assert lambda_coeff(n, QContext(2, q, 0.0)) == 1.0

    def test_single_pochhammer_factor(self):
        assert lambda_coeff(1, QContext(1, 0.5, 1.0)) == pytest.approx(1.5)

    def test_literal_convention_differs(self):
        lit = QContext(1, 0.5, 1.0, LambdaConvention.PAPER_LITERAL)
        # [2,q]_2 / [2,q]! = ([2][3]) / ([1][2]) = [3,q]
        assert lambda_coeff(1, lit) == pytest.approx(1.75)

    def test_classical_limit_matches_pochhammer_over_factorial(self):
        ctx = QContext(1, 1.0 - 1e-8, 2.0)
        # (mu+1)_3 / 3! = (3*4*5)/6 = 10
        assert lambda_coeff(3, ctx) == pytest.approx(10.0, abs=1e-4)

    def test_literal_convention_misses_classical_limit(self):
        # under the literal normalization the q->1- value is
        # (mu+1)_(n+p)/(n+p)! rather than (mu+1)_n/n!; the flag exists to
        # study exactly this discrepancy
        lit = QContext(1, 1.0 - 1e-8, 1.0, LambdaConvention.PAPER_LITERAL)
        assert lambda_coeff(1, lit) == pytest.approx(3.0, abs=1e-4)  # (2)_2/2! = 3

    def test_table_positive(self):
        table = lambda_table(QContext(2, 0.7, -0.5), 10)
        assert np.all(table.values > 0)

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            lambda_coeff(0, CTX)


class TestCoefficientTable:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99, 1.0 - 1e-6])
    def test_q_numbers_bit_identical(self, q):
        assert q_numbers(64, q).tolist() == [q_number(k, q) for k in range(65)]

    def test_lambda_bit_identical_to_scalar_fold(self):
        for ctx in TABLE_GRID:
            assert lambda_table(ctx, 128).values.tolist() == scalar_lambdas(ctx, 128), ctx
            assert lambda_coeff(37, ctx) == scalar_lambdas(ctx, 37)[-1]

    @pytest.mark.parametrize(
        "ctx",
        [
            QContext(3, 0.99, 2.5, LambdaConvention.PAPER_LITERAL),
            QContext(1, 1.0 - 1e-6, 0.5),
            QContext(2, 0.5, -0.5, LambdaConvention.PAPER_LITERAL),
            QContext(2, 0.9, 1.0),
        ],
    )
    def test_lambda_matches_mpmath(self, ctx):
        with mpmath.workdps(40):
            q = mpmath.mpf(ctx.q)
            ref = np.array([float(_mp_lambda(n, ctx, q)) for n in range(1, 129)])
        rel = np.abs(lambda_table(ctx, 128).values - ref) / ref
        assert rel.max() <= 1e-13


class TestLambdaMemo:
    @pytest.mark.parametrize(
        "ctx",
        [QContext(2, 0.9, mu, conv) for mu in (1.0, 2.5) for conv in LambdaConvention]
        + [QContext(3, 1.0 - 1e-6, -0.5, LambdaConvention.PAPER_LITERAL)],
    )
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_cached_tables_equal_scalar_fold(self, ctx, order):
        sizes = (1, 15, 16, 17, 255, 256, 257, 385)
        ref = scalar_lambdas(ctx, max(sizes))
        _memo_clear()
        for n in sorted(sizes, reverse=order == "descending"):
            assert lambda_table(ctx, n).values.tolist() == ref[:n], n
            assert lambda_coeff(n, ctx) == ref[n - 1]

    def test_values_are_read_only_and_shared(self):
        ctx = QContext(2, 0.7, 2.5)
        first, second = lambda_table(ctx, 8).values, lambda_table(ctx, 8).values
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert np.shares_memory(first, second)

    def test_input_that_can_change_is_copied(self):
        values = np.ones(3)
        view = values.view()
        view.setflags(write=False)
        for given in (values, view):
            table = LambdaTable(CTX, given)
            values[0] = 5.0
            assert table.values.tolist() == [1.0, 1.0, 1.0]
            with pytest.raises(ValueError):
                table.values[0] = 2.0
            values[0] = 1.0

    @pytest.mark.parametrize("conv", list(LambdaConvention))
    def test_shared_row_is_not_copied(self, conv):
        table = lambda_table(QContext(2, 0.7, 2.5, conv), 8)
        assert LambdaTable(table.ctx, table.values).values is table.values

    def test_overflow_is_an_error_not_inf(self):
        # the classical limit is binomial(n + mu, n): at mu = 1000 it passes
        # 1.8e308 at n = 308; the capacity-512 table overflows quietly
        ctx = QContext(1, 1.0 - 1e-6, 1000.0)
        assert np.isfinite(lambda_table(ctx, 307).values).all()
        with pytest.raises(ValueError, match="n = 308"):
            lambda_table(ctx, 308)
        with pytest.raises(ValueError, match="n = 308"):
            lambda_table(QContext(1, 1.0 - 1e-6, 1000.0), 400)

    def test_rejects_negative_order(self):
        for conv in LambdaConvention:
            with pytest.raises(ValueError):
                lambda_table(QContext(2, 0.5, 1.0, conv), -1)


class TestApplyL:
    def test_identity_kernel(self):
        f = member(CTX, [0.3 - 0.1j, 0.2, 0.05])
        out = apply_L(f)
        assert np.allclose(out.coeffs, f.series.coeffs)

    def test_monomial_fixed(self):
        f = member(QContext(3, 0.4, 1.7), [])
        out = apply_L(f)
        assert out.lead == 3 and np.allclose(out.coeffs, [1.0])

    def test_matches_kernel_hadamard(self):
        ctx = QContext(2, 0.6, 1.3)
        f = member(ctx, [0.2, -0.1j, 0.05])
        direct = apply_L(f)
        via_kernel = hadamard(phi_kernel(ctx, 3), f.series)
        assert np.allclose(direct.coeffs, via_kernel.coeffs)

    def test_linear_in_tail(self):
        ctx = QContext(1, 0.7, 2.0)
        t1 = np.array([0.1, 0.2j, -0.3])
        t2 = np.array([0.05j, -0.1, 0.25])
        out1 = apply_L(member(ctx, t1)).coeffs[1:]
        out2 = apply_L(member(ctx, t2)).coeffs[1:]
        both = apply_L(member(ctx, t1 + t2)).coeffs[1:]
        assert np.allclose(both, out1 + out2)

    @pytest.mark.parametrize("mu", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_classical_limit_regression(self, mu, p):
        ctx = QContext(p, 1.0 - 1e-6, mu)
        f = schwarz_to_member(random_schwarz(2, 17), ctx, JP, order=8)
        lq = apply_L(f)
        classical = ruscheweyh_classical(f.series, mu)
        rel = np.abs(lq.coeffs - classical.coeffs) / np.maximum(
            np.abs(classical.coeffs), 1e-300
        )
        assert rel.max() <= 1e-4


class TestRuscheweyhClassical:
    def test_identity_at_zero(self):
        f = TruncSeries(1, [1, 2, 3])
        assert np.allclose(ruscheweyh_classical(f, 0.0).coeffs, f.coeffs)

    def test_factors(self):
        f = TruncSeries(1, [1, 1, 1])
        out = ruscheweyh_classical(f, 1.0)
        # (2)_1/1! = 2, (2)_2/2! = 3
        assert np.allclose(out.coeffs, [1, 2, 3])
        out2 = ruscheweyh_classical(f, 2.0)
        assert out2.coeffs[1] == pytest.approx(3.0)  # (3)_1/1!


class TestBernardi:
    def test_monomial_fixed_point(self):
        for eta in (1.0, 2.0, 5.0):
            bp = BernardiParams(eta, CTX)
            f = member(CTX, [])
            out = bernardi_series(f, bp)
            assert np.allclose(out.coeffs, [1.0])

    def test_q_factor(self):
        bp = BernardiParams(1.0, CTX)
        f = member(CTX, [1.0])
        out = bernardi_series(f, bp)
        # [2,q]/[3,q] = 1.5/1.75
        assert out.coeffs[1] == pytest.approx(1.5 / 1.75, rel=1e-13)

    def test_factors_bit_identical_to_scalar(self):
        for p in (1, 3):
            for q in (0.3, 0.9, 1.0 - 1e-6):
                for eta in (-0.5, 0.0, 1.0, 2.5):
                    bp = BernardiParams(eta, QContext(p, q, 0.0))
                    base = q_number_real(eta + p, q)
                    ref = [base / q_number_real(eta + p + n, q) for n in range(17)]
                    assert bernardi_factors(bp, 16).tolist() == ref

    def test_classical_factor(self):
        ctx = QContext(1, 1.0 - 1e-8, 0.0)
        bp = BernardiParams(1.0, ctx)
        out = bernardi_series(member(ctx, [1.0]), bp)
        assert out.coeffs[1] == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_rejects_eta_at_minus_p(self):
        with pytest.raises(ValueError):
            BernardiParams(-1.0, CTX)

    @pytest.mark.parametrize("eta", [0.5, 2.5])
    def test_noninteger_eta_matches_series(self, eta):
        # principal powers are exact along each ray q^k z, negative real z included
        for p in (1, 2):
            ctx = QContext(p, 0.5, 0.0)
            bp = BernardiParams(eta, ctx)
            f = member(ctx, [0.5, -0.2j, 0.1])
            series = bernardi_series(f, bp)
            for z in (0.3, -0.4, 0.2 - 0.5j, -0.6 + 0.1j):
                assert bernardi_jackson(f, bp, z) == pytest.approx(evaluate(series, z), rel=1e-14)

    @pytest.mark.parametrize("eta", [-0.5, -0.25])
    def test_rejects_eta_plus_p_below_one(self, eta):
        # the terms decay like q^(k(eta+p)), so the cutoff would truncate the sum
        with pytest.raises(ValueError, match="bernardi_series"):
            bernardi_jackson(member(CTX, [0.5]), BernardiParams(eta, CTX), 0.3)

    def test_jackson_fixes_monomial(self):
        # the q-integral of t^(eta+p-1) is z^(eta+p)/[eta+p,q]; the prefactor
        # cancels it, so z^p maps to z^p
        for eta in (1.0, 3.0):
            for p in (1, 2):
                ctx = QContext(p, 0.6, 0.5)
                bp = BernardiParams(eta, ctx)
                f = member(ctx, [])
                z = 0.4 - 0.2j
                assert bernardi_jackson(f, bp, z) == pytest.approx(z**p, rel=1e-10)

    def test_jackson_matches_series_spot(self):
        bp = BernardiParams(1.0, CTX)
        f = member(CTX, [1.0])
        lhs = bernardi_jackson(f, bp, 0.3)
        rhs = evaluate(bernardi_series(f, bp), 0.3)
        assert abs(lhs - rhs) <= 1e-8

    def test_jackson_at_origin_limit(self):
        bp = BernardiParams(2.0, CTX)
        f = member(CTX, [0.7, 0.2])
        z = 1e-4
        assert bernardi_jackson(f, bp, z) / z**CTX.p == pytest.approx(1.0, abs=1e-3)
        assert bernardi_jackson(f, bp, 0.0) == 0.0

    def test_vectorized_sum_matches_term_loop(self):
        # the acceptance criterion-7 grid
        f_tail = [0.4, 0.15j, -0.1, 0.05, 0.02j, 0.01, 0.005, 0.002]
        for p in P_GRID:
            for q in Q_GRID:
                for mu in MU_GRID:
                    ctx = QContext(p, q, mu)
                    f = member(ctx, f_tail)
                    for eta in (1.0, 2.0, 5.0):
                        bp = BernardiParams(eta, ctx)
                        for z in (0.5, 0.35j, -0.3 + 0.4j):
                            ref = scalar_jackson(f, bp, z)
                            assert abs(bernardi_jackson(f, bp, z) - ref) <= 1e-13 * abs(ref)

    def test_no_silent_truncation_near_one(self):
        # q^k falls below the cutoff only after ~27.6k terms, so a
        # 4096-term cap would stop at q^k ~ 0.017 and miss by 1.4e-4
        ctx = QContext(1, 0.999, 1.0)
        bp = BernardiParams(1.0, ctx)
        f = schwarz_to_member(random_schwarz(2, 23), ctx, JP, order=8)
        for z in (0.5, -0.3 + 0.4j):
            gap = abs(bernardi_jackson(f, bp, z) - evaluate(bernardi_series(f, bp), z))
            assert gap <= 1e-8

    def test_estimate_short_case_is_one_short(self):
        q = Q_ESTIMATE_SHORT
        steps = np.full(200, q)
        steps[0] = 1.0
        kept = int(np.count_nonzero(np.multiply.accumulate(steps) >= JACKSON_CUTOFF))
        assert kept == math.floor(math.log(JACKSON_CUTOFF) / math.log(q)) + 2

    @pytest.mark.parametrize("q", [1e-13, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, Q_ESTIMATE_SHORT])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.5, 0.25])
    @pytest.mark.parametrize("terms", [None, 30, 20000])
    def test_bit_identical_to_fixed_chunks(self, q, eta, terms):
        # only the powers the cutoff keeps are built, and no kept term is
        # dropped: at 0.9999 the sum runs to 276,306 terms, past 16 chunks
        ctx = QContext(1, q, 1.0)
        bp = BernardiParams(eta, ctx)
        f = member(ctx, [0.4, 0.15j, -0.1, 0.05])
        for z in (0.5, -0.3 + 0.4j, 0.35j):
            got = bernardi_jackson(f, bp, z, terms=terms)
            assert repr(got) == repr(chunked_jackson(f, bp, z, terms=terms)), z

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("eta", [1.0, 2.0, 5.0])
    def test_consistency_with_64_terms_for_moderate_q(self, q, eta):
        # 64 Jackson terms reach 1e-8 only while q^64 is already negligible;
        # larger q needs the cutoff rule (exercised in the acceptance suite)
        ctx = QContext(2, q, 1.0)
        bp = BernardiParams(eta, ctx)
        f = schwarz_to_member(random_schwarz(2, 23), ctx, JP, order=8)
        for z in (0.5, 0.35j, -0.25 + 0.3j):
            lhs = bernardi_jackson(f, bp, z, terms=64)
            rhs = evaluate(bernardi_series(f, bp), z)
            assert abs(lhs - rhs) <= 1e-8


def test_kernel_series_shape():
    ctx = QContext(2, 0.5, 1.0)
    k = phi_kernel(ctx, 4)
    assert k.lead == 2
    assert k.coeffs[0] == 1.0
    assert np.allclose(k.coeffs[1:].real, lambda_table(ctx, 4).values)
