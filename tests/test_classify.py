import cmath
import collections
import itertools
import warnings

import mpmath as mp
import numpy as np
import pytest

from qstarlike import (
    ZERO_TOL,
    JanowskiParams,
    LambdaConvention,
    MembershipVerdict,
    NormalizedMember,
    QContext,
    SamplePoleError,
    SamplingSpec,
    SchwarzPoly,
    TruncSeries,
    VerdictKind,
    apply_L,
    boundary_sample_test,
    coeff_bound,
    convolution_test,
    corollary_reduction,
    lambda_table,
    member_matrix,
    q_number,
    random_schwarz,
    ratio,
    schwarz_corpus,
    schwarz_to_member,
    sufficiency_test,
    verdict_to_json,
)
from qstarlike.classify import _convolution_scan, _membership_sums
from qstarlike.cli import AB_GRID, MU_GRID, P_GRID, Q_GRID

CTX = QContext(1, 0.5, 0.0)
JP = JanowskiParams(1.0, -1.0)
#: Targets with B > 0, where A[p,q] - B[n+p,q] changes sign within a few terms.
B_POSITIVE = ((1.0, 0.25), (1.0, 0.5), (0.75, 0.5), (0.5, 0.25), (1.0, 0.9))


def member(ctx, tail):
    return NormalizedMember(ctx, TruncSeries(ctx.p, [1.0] + list(tail)))


def q_roots(f, jp):
    """Zeros of Q = sum_k (B[k+p,q] - A[p,q]) c_k z^k, c the row of L f.

    They are the poles of w = -P/Q, so a member has none in the disk.  The
    coefficients are the sums of `_membership_sums` for one c_k z^k at z = 1.
    """
    lf = apply_L(f).coeffs
    _, Q, _ = _membership_sums(np.diag(lf), f.ctx, jp, np.ones(1))
    return np.roots(Q[::-1, 0])


class TestJanowskiParams:
    def test_accepts_boundary_values(self):
        JanowskiParams(1.0, -1.0)
        JanowskiParams(0.5, -0.5)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (-1.0, 1.0), (0.0, 0.5), (1.2, 0.0), (0.5, -1.5)])
    def test_rejects_bad_pairs(self, a, b):
        with pytest.raises(ValueError):
            JanowskiParams(a, b)


class TestSufficiency:
    def test_monomial_passes_with_full_margin(self):
        v = sufficiency_test(member(CTX, []), JP)
        assert v.kind is VerdictKind.SUFFICIENCY_PASS
        assert v.margin == pytest.approx(q_number(1, 0.5) * 2.0)
        assert v.witness is None

    def test_pass_example(self):
        v = sufficiency_test(member(CTX, [0.5]), JP)
        assert v.kind is VerdictKind.SUFFICIENCY_PASS
        # weight [2,q](1-B) - [1,q](1-A) = 3, so lhs = 1.5 against rhs = 2
        assert v.margin == pytest.approx(0.5)

    def test_fail_example_carries_witness_index(self):
        v = sufficiency_test(member(CTX, [1.0]), JP)
        assert v.kind is VerdictKind.SUFFICIENCY_FAIL
        assert v.margin == pytest.approx(-1.0)
        assert v.witness == 1

    def test_margin_sign_matches_kind(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tail = 0.8 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            v = sufficiency_test(member(CTX, tail), JP)
            if v.kind is VerdictKind.SUFFICIENCY_FAIL:
                assert v.margin < 0 and v.witness is not None
            else:
                assert v.margin >= 0

    def test_weight_takes_the_modulus_for_b_positive(self):
        # z + 0.4 z^3 at (A, B) = (1, 0.75): A[1,q] < B[3,q] = 1.3125, so the
        # weight is ([3,q] - 1) + |1 - 1.3125| = 1.0625 and the sum 0.425
        # exceeds A - B = 0.25; the signed weight 0.4375 passed it
        jp = JanowskiParams(1.0, 0.75)
        f = member(CTX, [0.0, 0.4])
        v = sufficiency_test(f, jp)
        assert v.kind is VerdictKind.SUFFICIENCY_FAIL
        assert v.margin == pytest.approx(-0.175, abs=1e-15)
        assert v.witness == 2
        assert corollary_reduction(f, jp).margin == pytest.approx(v.margin, abs=1e-15)
        assert boundary_sample_test(f, jp).kind is VerdictKind.BOUNDARY_FAIL

    def test_b_positive_passes_are_members(self):
        # every Pass of a seeded B > 0 sweep is confirmed by the exact quotient
        # w = -P/Q: |P|/|Q| < 1 on |z| = 0.999 and no zero of Q in the disk
        rng = np.random.default_rng(10)
        corpus = schwarz_corpus(ks=(1, 2, 3, 4), seeds_per_k=2, base_seed=7)
        zs = 0.999 * np.exp(2j * np.pi * np.arange(1024) / 1024)
        passes = 0
        for p, q, mu in itertools.product(P_GRID, Q_GRID, MU_GRID):
            ctx = QContext(p, q, mu)
            jp = JanowskiParams(*B_POSITIVE[rng.integers(len(B_POSITIVE))])
            for row in member_matrix(corpus, ctx, jp, order=8):
                for scale in (0.5, 1.0, 1.5, 2.5):
                    f = member(ctx, scale * row[1:])
                    if not sufficiency_test(f, jp).passed:
                        continue
                    passes += 1
                    P, Q, _ = _membership_sums(apply_L(f).coeffs[None, :], ctx, jp, zs)
                    assert np.max(np.abs(P) / np.abs(Q)) < 1.0, (ctx, jp, scale)
                    assert np.min(np.abs(q_roots(f, jp))) > 1.0, (ctx, jp, scale)
        assert passes > 100


class TestCorollaryReduction:
    def test_z_passes(self):
        v = corollary_reduction(member(CTX, []), JP)
        assert v.kind is VerdictKind.SUFFICIENCY_PASS

    def test_margin_example(self):
        v = corollary_reduction(member(CTX, [0.5]), JP)
        assert v.margin == pytest.approx(0.5)

    def test_agrees_with_general_criterion(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            tail = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f = member(CTX, 0.6 * tail)
            a = sufficiency_test(f, JP)
            b = corollary_reduction(f, JP)
            assert a.kind == b.kind
            assert abs(a.margin - b.margin) <= 1e-12

    def test_rejects_wrong_parameters(self):
        with pytest.raises(ValueError):
            corollary_reduction(member(QContext(2, 0.5, 0.0), []), JP)
        with pytest.raises(ValueError):
            corollary_reduction(member(QContext(1, 0.5, 1.0), []), JP)
        lit = QContext(1, 0.5, 0.0, LambdaConvention.PAPER_LITERAL)
        with pytest.raises(ValueError):
            corollary_reduction(member(lit, []), JP)

    def test_silverman_style_limit(self):
        # at q -> 1- with A = 1 - 2*alpha, B = -1 the criterion becomes
        # sum (n - alpha) |a_n| <= 1 - alpha after halving
        q = 1.0 - 1e-6
        ctx = QContext(1, q, 0.0)
        rng = np.random.default_rng(8)
        for alpha in (0.125, 0.25, 0.4):
            jp = JanowskiParams(1.0 - 2 * alpha, -1.0)
            for _ in range(30):
                tail = 0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
                f = member(ctx, tail)
                v = corollary_reduction(f, jp)
                silverman = (1 - alpha) - sum(
                    (n - alpha) * abs(a) for n, a in enumerate(tail, start=2)
                )
                assert v.margin / 2.0 == pytest.approx(silverman, abs=1e-4)


class TestBoundary:
    def test_monomial_passes_every_radius(self):
        for p in (1, 2, 3):
            ctx = QContext(p, 0.5, 0.0)
            v = boundary_sample_test(member(ctx, []), JP, r=0.9, m=144)
            assert v.kind is VerdictKind.BOUNDARY_PASS

    def test_monomial_modulus_identically_zero(self):
        # |w| = |P|/|Q|, and P = z d_q(L f)/z^p - [p,q] L f/z^p vanishes for z^p
        zs = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32)
        P, Q, _ = _membership_sums(apply_L(member(CTX, [])).coeffs[None, :], CTX, JP, zs)
        assert np.max(np.abs(P) / np.abs(Q)) <= 1e-14

    def test_oracle_member_passes_at_default_radius(self):
        ctx = QContext(1, 0.9, 0.0)
        w = SchwarzPoly((0.25 + 0.1j, 0.15))
        f = schwarz_to_member(w, ctx, JP, order=64)
        v = boundary_sample_test(f, JP, r=0.9, m=720)
        assert v.kind is VerdictKind.BOUNDARY_PASS

    def test_crafted_non_member_fails_with_large_witness_modulus(self):
        f = member(CTX, [5.0] + [0.0] * 7)
        v = boundary_sample_test(f, JP, r=0.9, m=720)
        assert v.kind is VerdictKind.BOUNDARY_FAIL
        assert v.margin < 0
        # the certificate: Q = -2 - 12.5 z vanishes at z = -0.16 inside the
        # disk while P = 2.5 z does not, so w = -P/Q has a pole there
        (root,) = q_roots(f, JP)
        assert root == pytest.approx(-0.16, abs=1e-12)
        P, _, _ = _membership_sums(apply_L(f).coeffs[None, :], CTX, JP, np.array([root]))
        assert abs(P[0, 0]) == pytest.approx(0.4, abs=1e-12)

    def test_rotation_invariance(self):
        # f(z) -> e^(-ip phi) f(e^(i phi) z) preserves the class; with phi a
        # multiple of the sample spacing the verdict and margin are identical
        ctx = QContext(1, 0.9, 0.0)
        f = schwarz_to_member(SchwarzPoly((0.3, 0.1j)), ctx, JP, order=48)
        m_count = 360
        base = boundary_sample_test(f, JP, r=0.8, m=m_count)
        phi = 2 * np.pi * 5 / m_count
        rot = f.series.coeffs * np.exp(1j * np.arange(49) * phi)
        rot[0] = 1.0
        g = NormalizedMember(ctx, TruncSeries(1, rot))
        after = boundary_sample_test(g, JP, r=0.8, m=m_count)
        assert after.kind == base.kind
        assert after.margin == pytest.approx(base.margin, abs=1e-10)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            boundary_sample_test(member(CTX, []), JP, r=1.0)

    def test_overflowing_expansion_is_a_sample_pole(self):
        # h of z + 1e20 z^4 overflows in the series division; the verdict must
        # not be a Fail with margin NaN, and no RuntimeWarning escapes
        f = member(CTX, [0.0, 0.0, 1e20])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SamplePoleError) as info:
                boundary_sample_test(f, JP)
        assert info.value.witness == 0.9

    def test_overflow_at_1e13_is_quiet(self):
        # the smallest z + c z^4 seen overflowing inside the division of h
        f = member(CTX, [0.0, 0.0, 1e13])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SamplePoleError):
                boundary_sample_test(f, JP)

    def test_underflowing_guard_is_quiet(self):
        # the floored guard squared underflows to 0 at z^2 + 1.1 z^4
        f = member(QContext(2, 0.5, 0.0), [0.0, 1.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = boundary_sample_test(f, JanowskiParams(0.5, -0.5))
        assert v.kind is VerdictKind.BOUNDARY_FAIL
        assert v.margin < 0

    def test_infinite_guard_gives_zero_allowance_without_warning(self):
        # |A - B h| squares past the float range at z + 1e8 z^4
        f = member(CTX, [0.0, 0.0, 1e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = boundary_sample_test(f, JP)
        assert v.kind is VerdictKind.BOUNDARY_FAIL
        assert v.margin < 0


def test_starlike_kernel_coefficient_identity():
    # z^p/((1-z)(1-qz)) carries [k-p+1, q] at z^k; this is the identity the
    # convolution criterion's z-derivative rewrite rests on
    for p in (1, 2, 3):
        for q in (0.3, 0.5, 0.9):
            numer = TruncSeries(p, [1.0] + [0.0] * 8)
            denom = TruncSeries(0, [1.0, -(1.0 + q), q] + [0.0] * 6)
            series = ratio(numer, denom)
            for k in range(p, p + 9):
                want = q_number(k - p + 1, q)
                assert series.coeffs[k - series.lead] == pytest.approx(want, rel=1e-12)


def _kernel_row(theta, ctx, jp, order):
    # (1 + B e^(i theta))[k+p,q] - [p,q](1 + A e^(i theta)) at offset k, from the scalar q_number
    e = cmath.exp(1j * theta)
    qp = q_number(ctx.p, ctx.q)
    return np.array(
        [(1 + jp.B * e) * q_number(k + ctx.p, ctx.q) - qp * (1 + jp.A * e) for k in range(order + 1)]
    )


def _theta_grid_scan(coeff_rows, ctx, jp, thetas, zspec):
    # one kernel row and one matmul per angle, then the |L f / z^p| row
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=complex))
    order = rows.shape[1] - 1
    powers = zspec.points()[None, :] ** np.arange(order + 1)[:, None]
    best = np.abs(rows @ powers)
    for theta in thetas:
        kernel = _kernel_row(theta, ctx, jp, order)
        best = np.minimum(best, np.abs((rows * kernel[None, :]) @ powers))
    return best.min(axis=1)


def _p_and_q(row, ctx, jp, z):
    # |P| and |Q| of one row at one point, P = sum ([k+p] - [p]) c_k z^k and
    # Q = sum (B [k+p] - A [p]) c_k z^k, from the scalar q_number
    p, q = ctx.p, ctx.q
    qk = np.array([q_number(k + p, q) for k in range(len(row))])
    qp = q_number(p, q)
    powers = z ** np.arange(len(row))
    return abs(powers @ (row * (qk - qp))), abs(powers @ (row * (jp.B * qk - jp.A * qp)))


def _assert_within_grid_bound(rows, ctx, jp, exact, witness, grid, n_theta):
    """exact <= grid, and grid^2 <= exact^2 + |P||Q| Delta^2 at the witness.

    |P + e^(i theta) Q|^2 = (|P| - |Q|)^2 + 2|P||Q|(1 - cos(theta - theta*)),
    and some grid angle lies within Delta = pi / n_theta of theta*.  Rounding
    is budgeted relative to a bound on |P|, |Q| and |D| over the disk.
    """
    order = rows.shape[1] - 1
    slack = 1e-13 * np.abs(rows).sum(axis=1) * 3.0 * q_number(ctx.p + order, ctx.q)
    assert np.all(exact <= grid + slack)
    P, Q = np.array([_p_and_q(row, ctx, jp, z) for row, z in zip(rows, witness)]).T
    bound = np.hypot(exact, np.sqrt(P) * np.sqrt(Q) * np.pi / n_theta)
    assert np.all(grid <= bound + 2.0 * slack)


GRID = list(itertools.product(P_GRID, Q_GRID, MU_GRID, AB_GRID))


def _screen_pool(seed, order=32):
    """The membership-screen benchmark's candidates for one seed: an oracle
    member per grid point, a copy of every third with a_(p+1) pushed past
    coeff_bound(1), and the crafted z + 5 z^2."""
    rng = np.random.default_rng(seed)
    pool = []
    for k, i in enumerate(rng.permutation(len(GRID))):
        p, q, mu, ab = GRID[i]
        ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
        w = random_schwarz(int(rng.integers(1, 5)), int(rng.integers(2**31)))
        f = schwarz_to_member(w, ctx, jp, order=order)
        pool.append(("member", f, jp))
        if k % 3 == 2:
            push = coeff_bound(1, ctx, jp) * (1.05 + rng.uniform())
            coeffs = np.array(f.series.coeffs)
            coeffs[1] = push * np.exp(2j * np.pi * rng.uniform())
            pool.append(("perturbed", NormalizedMember(ctx, TruncSeries(p, coeffs)), jp))
    pool.append(("crafted", member(CTX, [5.0] + [0.0] * (order - 1)), JP))
    return pool


class TestConvolutionScanGate:
    """The exact-theta scan against the membership kernel built from scalar q-numbers."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kernel_weights_closed_form(self, p):
        # at z = 1 each unit row e_k gives the weights P_k and Q_k themselves
        order = 12
        for q, (a, b) in itertools.product((0.3, 0.9, 0.99), AB_GRID):
            ctx, jp = QContext(p, q, 0.0), JanowskiParams(a, b)
            P, Q, D = _membership_sums(np.eye(order + 1, dtype=complex), ctx, jp, np.ones(1))
            assert np.array_equal(D[:, 0], np.ones(order + 1))
            qn = np.array([q_number(k + p, q) for k in range(order + 1)])
            qp = q_number(p, q)
            for theta in 2.0 * np.pi * np.arange(64) / 64:
                e = cmath.exp(1j * theta)
                want = (1.0 + b * e) * qn - qp * (1.0 + a * e)
                got = P[:, 0] + e * Q[:, 0]
                # relative to the two terms, which can cancel in `want`
                scale = np.abs((1.0 + b * e) * qn) + np.abs(qp * (1.0 + a * e))
                assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_membership_screen_pools_match_reference(self):
        # the benchmark pools of seeds 1-3: every member and perturbed
        # candidate passes, each crafted z + 5 z^2 hits the zero of L f / z^p
        # at -1/5, and every minimum lies within a 16-angle grid's bound
        spec = SamplingSpec()
        kinds = collections.Counter()
        groups = {}
        for seed in (1, 2, 3):
            for role, f, jp in _screen_pool(seed):
                v = convolution_test(f, jp)
                kinds[role, v.kind.value] += 1
                if role == "crafted":
                    assert v.witness == pytest.approx(-0.2, abs=1e-9)
                groups.setdefault((f.ctx, jp), []).append(f)
        assert kinds == {
            ("member", "ConvolutionPass"): 540,
            ("perturbed", "ConvolutionPass"): 180,
            ("crafted", "ConvolutionFail"): 3,
        }
        thetas = 2.0 * np.pi * np.arange(16) / 16
        for (ctx, jp), fs in groups.items():
            rows = np.array([apply_L(f).coeffs for f in fs])
            exact, witness = _convolution_scan(rows, ctx, jp, spec)
            grid = _theta_grid_scan(rows, ctx, jp, thetas, spec)
            _assert_within_grid_bound(rows, ctx, jp, exact, witness, grid, 16)

    def test_huge_coefficients_match_reference(self):
        # P and Q near 1e301 stay finite and the minimum keeps its bound
        f = member(CTX, [1e300] * 8)
        rows = apply_L(f).coeffs[None, :]
        thetas = 2.0 * np.pi * np.arange(64) / 64
        exact, witness = _convolution_scan(rows, CTX, JP, SamplingSpec())
        grid = _theta_grid_scan(rows, CTX, JP, thetas, SamplingSpec())
        assert np.isfinite(exact).all() and exact[0] > 0.0
        _assert_within_grid_bound(rows, CTX, JP, exact, witness, grid, 64)

    @pytest.fixture(scope="class")
    def corpus_subset(self, corpus):
        # L f rows of the criterion-5 corpus (order 8) at every 9th grid point
        out = []
        for p, q, mu, ab in GRID[::9]:
            ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
            lam = np.concatenate([[1.0], lambda_table(ctx, 8).values])
            out.append((ctx, jp, member_matrix(corpus, ctx, jp, order=8) * lam[None, :]))
        return out

    @pytest.mark.parametrize("theta_grid", [1, 2, 3, 8, 16, 256])
    def test_corpus_subset_matches_reference(self, corpus_subset, theta_grid):
        # exact <= any theta grid's minimum, and the 256-angle grid is dense
        # enough that the bound pins it to the exact minimum
        spec = SamplingSpec(radii=tuple(np.arange(1, 10) * 0.1), angles=90)
        thetas = 2.0 * np.pi * np.arange(theta_grid) / theta_grid
        for ctx, jp, rows in corpus_subset:
            exact, witness = _convolution_scan(rows, ctx, jp, spec)
            grid = _theta_grid_scan(rows, ctx, jp, thetas, spec)
            _assert_within_grid_bound(rows, ctx, jp, exact, witness, grid, theta_grid)

    def test_minimum_matches_mpmath_at_argmin(self, corpus_subset):
        # min(||P| - |Q||, |D|) at the witness of the first row of every
        # subset grid point, and of the crafted z + 5 z^2, at 40 digits
        spec = SamplingSpec(radii=tuple(np.arange(1, 10) * 0.1), angles=90)
        cases = [(ctx, jp, rows[:1]) for ctx, jp, rows in corpus_subset]
        cases.append((CTX, JP, apply_L(member(CTX, [5.0] + [0.0] * 7)).coeffs[None, :]))
        assert len(cases) == 21
        with mp.workdps(40):
            for ctx, jp, rows in cases:
                got, witness = _convolution_scan(rows, ctx, jp, spec)
                q, z = mp.mpf(ctx.q), mp.mpc(witness[0])
                qk = [mp.fsum(q**j for j in range(k + ctx.p)) for k in range(rows.shape[1])]
                qp = qk[0]
                D = mp.fsum(mp.mpc(c) * z**k for k, c in enumerate(rows[0]))
                E = mp.fsum(qk[k] * mp.mpc(c) * z**k for k, c in enumerate(rows[0]))
                P = E - qp * D
                Q = mp.mpf(jp.B) * E - mp.mpf(jp.A) * qp * D
                want = min(abs(abs(P) - abs(Q)), abs(D))
                assert abs(got[0] - want) <= 1e-13 * float(abs(P) + abs(Q))


class TestConvolutionTest:
    def test_monomial_passes(self):
        for p in (1, 2):
            ctx = QContext(p, 0.5, 0.0)
            v = convolution_test(member(ctx, []), JP)
            assert v.kind is VerdictKind.CONVOLUTION_PASS
            assert v.margin > 0

    def test_oracle_member_passes_on_example_grid(self):
        ctx = QContext(1, 0.9, 0.0)
        f = schwarz_to_member(SchwarzPoly((0.25 + 0.1j, 0.15)), ctx, JP, order=64)
        v = convolution_test(f, JP, zspec=SamplingSpec((0.3, 0.6, 0.9), 360))
        assert v.kind is VerdictKind.CONVOLUTION_PASS

    def test_crafted_non_member_yields_zero_hit(self):
        f = member(CTX, [5.0] + [0.0] * 7)
        v = convolution_test(f, JP)
        assert v.kind is VerdictKind.CONVOLUTION_FAIL
        assert v.margin < 0
        # the |L f / z^p| term reduces the scan to f itself; its root is -1/5
        assert v.witness == pytest.approx(-0.2, abs=1e-9)

    def test_p2_member_passes_every_test(self):
        # z^2 + 0.5 z^3 is certified by the coefficient criterion, so the
        # membership kernel must find no zero
        ctx, jp = QContext(2, 0.5, 1.0), JanowskiParams(0.5, -0.5)
        f = member(ctx, [0.5])
        assert sufficiency_test(f, jp).kind is VerdictKind.SUFFICIENCY_PASS
        assert boundary_sample_test(f, jp).kind is VerdictKind.BOUNDARY_PASS
        v = convolution_test(f, jp)
        assert v.kind is VerdictKind.CONVOLUTION_PASS
        assert v.margin + ZERO_TOL == pytest.approx(0.164, abs=5e-4)

    def test_p2_h_on_target_boundary_is_a_zero_hit(self):
        # z^2 + 3.2 z^4 has h(0.5i) = 0, which (1 + z)/(1 - z) takes at z = -1
        ctx = QContext(2, 0.5, 0.0)
        v = convolution_test(member(ctx, [0.0, 3.2]), JP)
        assert v.kind is VerdictKind.CONVOLUTION_FAIL
        assert v.margin + ZERO_TOL <= 1e-15
        assert v.witness == pytest.approx(0.5j, abs=1e-12)

    def test_p2_with_p_q_times_A_equal_to_B_gets_a_verdict(self):
        # [2,q] A = B at q = 0.5, (A, B) = (-0.5, -0.75)
        ctx, jp = QContext(2, 0.5, 0.0), JanowskiParams(-0.5, -0.75)
        assert q_number(2, 0.5) * jp.A == jp.B
        v = convolution_test(member(ctx, []), jp)
        assert v.kind is VerdictKind.CONVOLUTION_PASS
        # P = 0 and Q = [2,q](B - A) for the monomial
        assert v.margin + ZERO_TOL == pytest.approx(0.375, rel=1e-14)

    def test_sampling_spec_validation(self):
        with pytest.raises(ValueError):
            SamplingSpec(radii=(0.5, 1.0))
        with pytest.raises(ValueError):
            SamplingSpec(angles=2)


class TestVerdictPlumbing:
    def test_json_complex_witness(self):
        v = MembershipVerdict(VerdictKind.BOUNDARY_FAIL, -0.25, 0.3 + 0.4j)
        assert verdict_to_json(v) == {
            "kind": "BoundaryFail",
            "margin": -0.25,
            "witness": [0.3, 0.4],
        }

    def test_json_index_witness(self):
        v = MembershipVerdict(VerdictKind.SUFFICIENCY_FAIL, -1.0, 2)
        assert verdict_to_json(v)["witness"] == 2

    def test_json_no_witness(self):
        v = MembershipVerdict(VerdictKind.CONVOLUTION_PASS, 0.5, None)
        assert verdict_to_json(v)["witness"] is None

    def test_passed_property(self):
        assert MembershipVerdict(VerdictKind.BOUNDARY_PASS, 0.1).passed
        assert not MembershipVerdict(VerdictKind.BOUNDARY_FAIL, -0.1, 0j).passed


def test_verdict_coherence_on_small_corpus(small_corpus):
    # the weaker tests may never contradict a sufficiency pass
    specs = SamplingSpec(radii=tuple(np.arange(1, 10) * 0.1), angles=60)
    for p, q, mu, (a, b) in [
        (1, 0.5, 0.0, (1.0, -1.0)),
        (2, 0.7, 1.0, (1.0, 0.0)),
        (3, 0.9, 2.5, (0.5, -0.5)),
    ]:
        ctx = QContext(p, q, mu)
        jp = JanowskiParams(a, b)
        for _, w in small_corpus:
            f = schwarz_to_member(w, ctx, jp, order=8)
            s = sufficiency_test(f, jp)
            bd = boundary_sample_test(f, jp, r=0.3, m=180)
            cv = convolution_test(f, jp, zspec=specs)
            if s.passed:
                assert bd.passed and cv.passed
            if bd.passed:
                assert cv.passed
