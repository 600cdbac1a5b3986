import cmath
import itertools
import warnings

import numpy as np
import pytest

from qstarlike import (
    DEGENERATE_KERNEL,
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
    convolution_kernel,
    convolution_test,
    corollary_reduction,
    janowski_value,
    lambda_table,
    member_matrix,
    q_number,
    random_schwarz,
    ratio,
    schwarz_to_member,
    sufficiency_test,
    verdict_to_json,
)
from qstarlike.classify import _convolution_scan, _kernel_weights, subordination_modulus
from qstarlike.cli import AB_GRID, MU_GRID, P_GRID, Q_GRID

CTX = QContext(1, 0.5, 0.0)
JP = JanowskiParams(1.0, -1.0)


def member(ctx, tail):
    return NormalizedMember(ctx, TruncSeries(ctx.p, [1.0] + list(tail)))


class TestJanowskiParams:
    def test_accepts_boundary_values(self):
        JanowskiParams(1.0, -1.0)
        JanowskiParams(0.5, -0.5)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (-1.0, 1.0), (0.0, 0.5), (1.2, 0.0), (0.5, -1.5)])
    def test_rejects_bad_pairs(self, a, b):
        with pytest.raises(ValueError):
            JanowskiParams(a, b)


class TestJanowskiValue:
    def test_at_origin(self):
        assert janowski_value(0.0, JP) == 1.0

    def test_half_plane_map(self):
        assert janowski_value(0.5, JP) == pytest.approx(3.0)

    def test_linear_case(self):
        assert janowski_value(0.5j, JanowskiParams(1.0, 0.0)) == pytest.approx(1 + 0.5j)

    def test_pole(self):
        # the pole sits at z = -1/B, on the unit circle for B = -1
        with pytest.raises(ZeroDivisionError):
            janowski_value(1.0, JP)


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
        zs = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32)
        mods = subordination_modulus(member(CTX, []), JP, zs)
        assert np.max(mods) <= 1e-14

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
        assert abs(float(subordination_modulus(f, JP, v.witness, h_order=72))) >= 1.0

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

    def test_modulus_of_overflowing_expansion_is_a_sample_pole(self):
        # subordination_modulus builds the same h and must not return NaN
        f = member(CTX, [0.0, 0.0, 1e20])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SamplePoleError) as info:
                subordination_modulus(f, JP, np.array([0.5, 0.9j]))
        assert info.value.witness == 0.5

    def test_infinite_guard_gives_zero_allowance_without_warning(self):
        # |A - B h| squares past the float range at z + 1e8 z^4
        f = member(CTX, [0.0, 0.0, 1e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = boundary_sample_test(f, JP)
        assert v.kind is VerdictKind.BOUNDARY_FAIL
        assert v.margin < 0


class TestConvolutionKernel:
    def test_first_pair_vanishes_at_p1(self):
        for theta in (0.0, 1.0, 3.0):
            en, _ = convolution_kernel(theta, JP, CTX)
            assert en == 0.0

    def test_p1_values(self):
        en, el = convolution_kernel(0.0, JP, CTX)
        assert el == pytest.approx(1.0)

    def test_p2_values(self):
        en, el = convolution_kernel(0.0, JanowskiParams(1.0, 0.0), QContext(2, 0.5, 0.0))
        assert en == pytest.approx(1.0 / 3.0)
        assert el == pytest.approx(5.0 / 3.0)

    def test_degenerate_pair_constant(self):
        assert DEGENERATE_KERNEL == (0.0, 1.0)

    def test_undefined_kernel(self):
        # [p,q] A = B is reachable for negative A
        ctx = QContext(2, 0.5, 0.0)  # [2,q] = 1.5
        jp = JanowskiParams(-0.5, -0.75)
        with pytest.raises(ValueError):
            convolution_kernel(0.0, jp, ctx)


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
                assert series.coeff(k) == pytest.approx(want, rel=1e-12)


def test_kernel_weights_match_subordination_only_at_p1():
    # the scan's weight at offset n is (N+1)[n+1,q] - qL[n,q]; membership
    # logic needs it proportional to (1+B e^(i theta))[n+p,q] - [p,q](1+A e^(i theta)).
    # The two agree identically for p = 1 and genuinely diverge for p >= 2,
    # so the scan is a membership criterion only in the univalent case.
    def spread(p, theta=0.7, q=0.5, A=1.0, B=-1.0):
        ctx = QContext(p, q, 0.0)
        en, el = convolution_kernel(theta, JanowskiParams(A, B), ctx)
        K = np.array([(en + 1) * q_number(n + 1, q) - q * el * q_number(n, q) for n in range(6)])
        S = np.array(
            [
                (1 + B * cmath.exp(1j * theta)) * q_number(n + p, q)
                - q_number(p, q) * (1 + A * cmath.exp(1j * theta))
                for n in range(6)
            ]
        )
        ratios = K / S
        return np.abs(ratios - ratios[0]).max()

    assert spread(1) <= 1e-12
    assert spread(2) > 1e-3
    assert spread(3) > 1e-3


def _reference_kernel_series(nl, ctx, order):
    # the kernel ((N+1) z^p - qL z^(p+1)) / ((1-z)(1-qz)) by series division
    en, el = nl
    q = ctx.q
    numer = np.zeros(order + 1, dtype=complex)
    numer[0] = en + 1.0
    if order >= 1:
        numer[1] = -q * el
    denom = np.zeros(order + 1, dtype=complex)
    denom[0] = 1.0
    if order >= 1:
        denom[1] = -(1.0 + q)
    if order >= 2:
        denom[2] = q
    return ratio(TruncSeries(ctx.p, numer), TruncSeries(0, denom), order=order)


def _reference_scan(coeff_rows, ctx, jp, theta_grid, zspec):
    # one kernel series and one matmul per grid angle, then the degenerate pair
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=complex))
    order = rows.shape[1] - 1
    p, q = ctx.p, ctx.q
    qp = q_number(p, q)
    zs = zspec.points()
    powers = zs[None, :] ** np.arange(order + 1)[:, None]
    front = zs ** (p - 1)
    thetas = 2.0 * np.pi * np.arange(theta_grid) / theta_grid
    kernels = [(convolution_kernel(t, jp, ctx), t) for t in thetas]
    kernels.append((DEGENERATE_KERNEL, 0.0))
    best = np.full(rows.shape[0], np.inf)
    witness = np.zeros(rows.shape[0], dtype=complex)
    for nl, theta in kernels:
        kappa = _reference_kernel_series(nl, ctx, order)
        scale = cmath.exp(1j * theta) * (jp.B - qp * jp.A)
        vals = (rows * kappa.coeffs[None, :]) @ powers * (scale * front)[None, :]
        mags = np.abs(vals)
        idx = np.argmin(mags, axis=1)
        mins = mags[np.arange(rows.shape[0]), idx]
        better = mins < best
        best = np.where(better, mins, best)
        witness = np.where(better, zs[idx], witness)
    return best, witness


def _assert_minima_close(got, want):
    # rounding differs from the series route; near-zero minima (the crafted
    # z + 5 z^2 reaches ~3e-16) are compared absolutely
    got, want = np.asarray(got), np.asarray(want)
    small = want < 1e-6
    assert np.all(np.abs(got - want)[small] <= 1e-12)
    assert np.all(np.abs(got - want)[~small] <= 1e-9 * want[~small])


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
        pool.append((f, jp))
        if k % 3 == 2:
            push = coeff_bound(1, ctx, jp) * (1.05 + rng.uniform())
            coeffs = np.array(f.series.coeffs)
            coeffs[1] = push * np.exp(2j * np.pi * rng.uniform())
            pool.append((NormalizedMember(ctx, TruncSeries(p, coeffs)), jp))
    pool.append((member(CTX, [5.0] + [0.0] * (order - 1)), JP))
    return pool


class TestConvolutionScanGate:
    """The closed-form scan against the per-kernel series scan it replaced."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kernel_weights_closed_form(self, p):
        order = 12
        for q, (a, b) in itertools.product((0.3, 0.9, 0.99), AB_GRID):
            ctx, jp = QContext(p, q, 0.0), JanowskiParams(a, b)
            w = _kernel_weights(jp, ctx, order)
            qn = np.array([q_number(n, q) for n in range(order + 2)])
            assert np.all(np.abs(w[2] - (qn[1:] - q * qn[:-1])) <= 1e-14)
            for theta in 2.0 * np.pi * np.arange(64) / 64:
                en, el = convolution_kernel(theta, jp, ctx)
                want = (en + 1.0) * qn[1:] - q * el * qn[:-1]
                got = w[0] + cmath.exp(-1j * theta) * w[1]
                # relative to the two terms, which can cancel in `want`
                scale = np.abs((en + 1.0) * qn[1:]) + np.abs(q * el * qn[:-1])
                assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_membership_screen_pools_match_reference(self):
        spec = SamplingSpec()
        groups = {}
        for seed in (1, 2, 3):
            for f, jp in _screen_pool(seed):
                groups.setdefault((f.ctx, jp), []).append(f)
        assert sum(len(fs) for fs in groups.values()) == 723
        fails = 0
        for (ctx, jp), fs in groups.items():
            rows = np.array([apply_L(f).coeffs for f in fs])
            want, want_z = _reference_scan(rows, ctx, jp, 64, spec)
            verdicts = [convolution_test(f, jp) for f in fs]
            got = np.array([v.margin + ZERO_TOL for v in verdicts])
            for v, m, z in zip(verdicts, want, want_z):
                assert (v.kind is VerdictKind.CONVOLUTION_FAIL) == (m < ZERO_TOL)
                if v.kind is VerdictKind.CONVOLUTION_FAIL:
                    fails += 1
                    assert v.witness == z
            _assert_minima_close(got, want)
            _, got_z = _convolution_scan(rows, ctx, jp, 64, spec)
            assert np.array_equal(got_z, want_z)
        assert fails >= 3  # at least the crafted candidate of each seed

    def test_huge_coefficients_match_reference(self):
        # |P| |Q| passes the float range here although P and Q do not
        f = member(CTX, [1e300] * 8)
        rows = apply_L(f).coeffs
        got, got_z = _convolution_scan(rows, CTX, JP, 64, SamplingSpec())
        want, want_z = _reference_scan(rows, CTX, JP, 64, SamplingSpec())
        _assert_minima_close(got, want)
        assert np.array_equal(got_z, want_z)

    @pytest.fixture(scope="class")
    def corpus_subset(self, corpus):
        # L f rows of the criterion-5 corpus (order 8) at every 9th grid point
        out = []
        for p, q, mu, ab in GRID[::9]:
            ctx, jp = QContext(p, q, mu), JanowskiParams(*ab)
            lam = np.concatenate([[1.0], lambda_table(ctx, 8).values])
            out.append((ctx, jp, member_matrix(corpus, ctx, jp, order=8) * lam[None, :]))
        return out

    @pytest.mark.parametrize("theta_grid", [1, 2, 3, 8, 16])
    def test_corpus_subset_matches_reference(self, corpus_subset, theta_grid):
        spec = SamplingSpec(radii=tuple(np.arange(1, 10) * 0.1), angles=90)
        for ctx, jp, rows in corpus_subset:
            got, got_z = _convolution_scan(rows, ctx, jp, theta_grid, spec)
            want, want_z = _reference_scan(rows, ctx, jp, theta_grid, spec)
            assert np.array_equal(got < ZERO_TOL, want < ZERO_TOL)
            assert np.array_equal(got_z, want_z)
            _assert_minima_close(got, want)


class TestConvolutionTest:
    def test_monomial_passes(self):
        for p in (1, 2):
            ctx = QContext(p, 0.5, 0.0)
            v = convolution_test(member(ctx, []), JP, theta_grid=16)
            assert v.kind is VerdictKind.CONVOLUTION_PASS
            assert v.margin > 0

    def test_oracle_member_passes_on_example_grid(self):
        ctx = QContext(1, 0.9, 0.0)
        f = schwarz_to_member(SchwarzPoly((0.25 + 0.1j, 0.15)), ctx, JP, order=64)
        v = convolution_test(f, JP, theta_grid=64, zspec=SamplingSpec((0.3, 0.6, 0.9), 360))
        assert v.kind is VerdictKind.CONVOLUTION_PASS

    def test_crafted_non_member_yields_zero_hit(self):
        f = member(CTX, [5.0] + [0.0] * 7)
        v = convolution_test(f, JP)
        assert v.kind is VerdictKind.CONVOLUTION_FAIL
        assert v.margin < 0
        # the degenerate pair reduces the scan to f itself; its root is -1/5
        assert v.witness == pytest.approx(-0.2, abs=1e-9)

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
            cv = convolution_test(f, jp, theta_grid=8, zspec=specs)
            if s.passed:
                assert bd.passed and cv.passed
            if bd.passed:
                assert cv.passed
