import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstarlike import (
    NormalizedMember,
    QContext,
    TruncSeries,
    evaluate,
    hadamard,
    load_series,
    ratio,
    save_series,
    tail_bound,
)

RNG = np.random.default_rng(20240809)


def random_series(lead, order, rng=RNG, scale=1.0):
    c = scale * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
    return TruncSeries(lead, c)


class TestTruncSeries:
    def test_coeff_lookup(self):
        f = TruncSeries(2, [1, 5, 7])
        assert f.coeff(1) == 0
        assert f.coeff(3) == 5
        with pytest.raises(IndexError):
            f.coeff(5)

    def test_immutable(self):
        f = TruncSeries(0, [1, 2])
        with pytest.raises(ValueError):
            f.coeffs[0] = 9.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncSeries(0, [])

    def test_rejects_negative_lead(self):
        with pytest.raises(ValueError):
            TruncSeries(-1, [1])


class TestNormalizedMember:
    def test_requires_matching_lead(self):
        ctx = QContext(2, 0.5, 0.0)
        with pytest.raises(ValueError):
            NormalizedMember(ctx, TruncSeries(1, [1, 0]))

    def test_requires_unit_leading_coefficient(self):
        ctx = QContext(1, 0.5, 0.0)
        with pytest.raises(ValueError):
            NormalizedMember(ctx, TruncSeries(1, [1.0 + 1e-9, 0]))


class TestHadamard:
    def test_termwise_products(self):
        f = TruncSeries(1, [1, 2, 3])
        g = TruncSeries(1, [1, 4, 5])
        out = hadamard(f, g)
        assert np.allclose(out.coeffs, [1, 8, 15])

    def test_identity_kernel(self):
        # z^p/(1-z) has all coefficients 1
        f = random_series(2, 6)
        ones = TruncSeries(2, np.ones(7))
        assert np.allclose(hadamard(ones, f).coeffs, f.coeffs)

    def test_lead_mismatch(self):
        with pytest.raises(ValueError):
            hadamard(TruncSeries(1, [1]), TruncSeries(2, [1]))

    def test_commutative_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            order = int(rng.integers(0, 7))
            f, g, h = (random_series(3, order, rng) for _ in range(3))
            fg = hadamard(f, g)
            gf = hadamard(g, f)
            assert np.allclose(fg.coeffs, gf.coeffs)
            assert np.allclose(
                hadamard(fg, h).coeffs, hadamard(f, hadamard(g, h)).coeffs
            )


class TestCauchyProduct:
    def test_janowski_half_plane_expansion(self):
        # (1+z)/(1-z) = 1 + 2z + 2z^2 + ..., as (1+z) times the quotient 1/(1-z)
        inv = ratio(TruncSeries(0, [1, 0, 0, 0, 0]), TruncSeries(0, [1, -1, 0, 0, 0]))
        out = np.convolve([1, 1], inv.coeffs)[:5]
        assert np.allclose(out, [1, 2, 2, 2, 2])


class TestRatio:
    def test_unit_denominator(self):
        f = TruncSeries(0, [1, 2])
        out = ratio(f, TruncSeries(0, [1, 0]))
        assert np.allclose(out.coeffs, [1, 2])

    def test_geometric(self):
        out = ratio(TruncSeries(0, [1] + [0] * 6), TruncSeries(0, [1, -1] + [0] * 5))
        assert np.allclose(out.coeffs, np.ones(7))

    def test_janowski_coefficients(self):
        out = ratio(TruncSeries(0, [1, 1, 0, 0]), TruncSeries(0, [1, -1, 0, 0]))
        assert np.allclose(out.coeffs, [1, 2, 2, 2])

    def test_zero_leading_denominator(self):
        with pytest.raises(ZeroDivisionError):
            ratio(TruncSeries(0, [1]), TruncSeries(0, [0.0, 1.0]))

    def test_roundtrip_against_cauchy(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            order = int(rng.integers(1, 9))
            f = random_series(2, order, rng)
            g = random_series(1, order, rng)
            if abs(g.coeffs[0]) < 1e-3:
                continue
            h = ratio(f, g)
            back = np.convolve(h.coeffs, g.coeffs)[: order + 1]
            assert np.allclose(back, f.coeffs, atol=1e-10)

    def test_extended_order_on_exact_polynomials(self):
        geo = ratio(TruncSeries(0, [1.0]), TruncSeries(0, [1, -0.5]), order=20)
        assert np.allclose(geo.coeffs, 0.5 ** np.arange(21))

    def test_overflowing_quotient_is_non_finite_and_quiet(self):
        # 1/(1 - 1e200 z) has coefficients 1e200^k: past k = 1 they overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = ratio(TruncSeries(0, [1.0]), TruncSeries(0, [1.0, -1e200]), order=4)
        assert np.isfinite(h.coeffs[:2]).all()
        assert not np.isfinite(h.coeffs[2:]).any()


class TestEvaluate:
    def test_positive_lead_vanishes_at_zero(self):
        assert evaluate(TruncSeries(1, [1, 1]), 0.0) == 0.0

    def test_affine(self):
        assert evaluate(TruncSeries(0, [1, 1]), 0.5) == pytest.approx(1.5)

    def test_geometric_partial_sum(self):
        geo = TruncSeries(0, np.ones(31))
        assert abs(evaluate(geo, 0.5) - 2.0) <= 1e-9

    def test_linear_in_the_series(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = random_series(1, 6, rng)
            g = random_series(1, 6, rng)
            a, b = 1.3 - 0.2j, -0.7 + 0.9j
            comb = TruncSeries(1, a * f.coeffs + b * g.coeffs)
            z = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            direct = evaluate(comb, z)
            split = a * evaluate(f, z) + b * evaluate(g, z)
            assert direct == pytest.approx(split, abs=1e-12)

    def test_vectorized(self):
        f = TruncSeries(1, [1, 2])
        zs = np.array([0.1, 0.2 + 0.1j])
        out = evaluate(f, zs)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(evaluate(f, 0.1))


class TestTailBound:
    def test_zero_majorant(self):
        f = TruncSeries(0, [1, 1])
        assert tail_bound(f, 0.5, coeff=0.0, growth=3.0) == 0.0

    def test_geometric_tail_formula(self):
        f = TruncSeries(0, np.ones(5))  # exponents 0..4, first discarded is 5
        c, s, r = 2.0, 1.5, 0.5
        expect = c * (s * r) ** 5 / (1 - s * r)
        assert tail_bound(f, r, coeff=c, growth=s) == pytest.approx(expect, rel=1e-13)

    def test_divergent_majorant_rejected(self):
        f = TruncSeries(0, [1])
        with pytest.raises(ValueError):
            tail_bound(f, 0.5, coeff=1.0, growth=2.0)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        f = random_series(2, 9)
        path = tmp_path / "series.json"
        save_series(f, path)
        g = load_series(path)
        assert g.lead == f.lead
        assert np.array_equal(g.coeffs, f.coeffs)  # bit-exact

    def test_schema(self):
        buf = io.StringIO()
        save_series(TruncSeries(1, [1, 2 + 3j]), buf)
        obj = json.loads(buf.getvalue())
        assert obj == {"lead": 1, "coeffs": [[1.0, 0.0], [2.0, 3.0]]}


@given(
    lead=st.integers(0, 3),
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=60)
def test_save_load_property(lead, coeffs, tmp_path_factory):
    f = TruncSeries(lead, coeffs)
    buf = io.StringIO()
    save_series(f, buf)
    buf.seek(0)
    g = load_series(buf)
    assert g.lead == f.lead and np.array_equal(g.coeffs, f.coeffs)
