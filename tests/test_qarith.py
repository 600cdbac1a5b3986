
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qstarlike import (
    LambdaConvention,
    QContext,
    q_factorial,
    q_gamma_int,
    q_number,
    q_number_real,
    q_numbers,
    q_pochhammer,
)
from qstarlike.qarith import _MEMO_BYTES, _MEMO_CAPACITY, _memo, _memo_clear, _memo_info


class TestQNumber:
    def test_zero(self):
        assert q_number(0, 0.5) == 0.0

    def test_one_is_one_for_any_q(self):
        for q in (0.1, 0.3, 0.5, 0.9, 0.999):
            assert q_number(1, q) == 1.0

    def test_direct_sum(self):
        # 1 + 0.5 + 0.25
        assert q_number(3, 0.5) == pytest.approx(1.75, abs=1e-15)

    @given(n=st.integers(0, 30), q=st.floats(0.01, 0.999))
    def test_recurrence(self, n, q):
        assert q_number(n + 1, q) == pytest.approx(1.0 + q * q_number(n, q), rel=1e-13)

    def test_classical_limit(self):
        q = 1.0 - 1e-8
        for n in range(21):
            assert abs(q_number(n, q) - n) <= 1e-5

    @given(n=st.integers(1, 40), q=st.floats(0.01, 0.999))
    def test_sum_matches_closed_form(self, n, q):
        closed = (1.0 - q**n) / (1.0 - q)
        assert q_number(n, q) == pytest.approx(closed, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            q_number(-1, 0.5)
        with pytest.raises(ValueError):
            q_number(2, 0.0)
        with pytest.raises(ValueError):
            q_number(2, 1.0)

    def test_real_argument_agrees_on_integers(self):
        assert q_number_real(3.0, 0.5) == q_number(3, 0.5)

    def test_real_argument_near_one(self):
        # [x, q] -> x as q -> 1-
        assert q_number_real(3.5, 1.0 - 1e-8) == pytest.approx(3.5, abs=1e-6)


def reference_q_factorial(n, q):
    """The running product of scalar q-numbers that q_factorial folds."""
    result = 1.0
    for j in range(1, n + 1):
        result *= q_number(j, q)
    return result


def reference_q_pochhammer(x, n, q):
    """The running product of scalar real q-numbers that q_pochhammer folds."""
    result = 1.0
    for j in range(n):
        result *= q_number_real(float(x) + j, q)
    return result


FOLD_QS = (0.3, 0.5, 0.9, 0.99, 1.0 - 1e-6)


class TestQFactorial:
    @pytest.mark.parametrize("q", FOLD_QS)
    def test_bit_identical_to_scalar_product(self, q):
        for n in range(65):
            assert q_factorial(n, q) == reference_q_factorial(n, q)

    def test_empty(self):
        assert q_factorial(0, 0.7) == 1.0

    def test_single_factor(self):
        for q in (0.2, 0.5, 0.8):
            assert q_factorial(1, q) == 1.0

    def test_three_factors(self):
        # 1 * 1.5 * 1.75
        assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)

    def test_rejects_negative(self):
        # the shifted factorial is only displayed for n = 0 and positive n
        with pytest.raises(ValueError):
            q_factorial(-2, 0.5)
        with pytest.raises(ValueError):
            q_factorial(1.5, 0.5)


class TestQPochhammer:
    @pytest.mark.parametrize("q", FOLD_QS)
    @pytest.mark.parametrize("x", [0.5, 1, 2.5, 3])
    def test_bit_identical_to_scalar_product(self, q, x):
        for n in range(65):
            assert q_pochhammer(x, n, q) == reference_q_pochhammer(x, n, q)

    def test_empty(self):
        assert q_pochhammer(2.5, 0, 0.4) == 1.0

    def test_matches_factorial_at_one(self):
        assert q_pochhammer(1, 3, 0.5) == q_factorial(3, 0.5)

    def test_factor_by_factor(self):
        # [2,q] [3,q] = 1.5 * 1.75
        assert q_pochhammer(2, 2, 0.5) == pytest.approx(2.625, abs=1e-15)

    @given(
        x=st.floats(0.1, 5.0),
        m=st.integers(0, 8),
        n=st.integers(0, 8),
        q=st.floats(0.05, 0.95),
    )
    def test_splitting_identity(self, x, m, n, q):
        whole = q_pochhammer(x, m + n, q)
        split = q_pochhammer(x, m, q) * q_pochhammer(x + m, n, q)
        assert whole == pytest.approx(split, rel=1e-11)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            q_pochhammer(0.0, 2, 0.5)


class TestQGamma:
    def test_at_one(self):
        assert q_gamma_int(1, 0.5) == 1.0

    def test_at_two(self):
        assert q_gamma_int(2, 0.5) == 1.0

    def test_at_four(self):
        assert q_gamma_int(4, 0.5) == pytest.approx(2.625, abs=1e-15)

    def test_recurrence(self):
        q = 0.3
        for n in range(1, 9):
            assert q_gamma_int(n + 1, q) == pytest.approx(
                q_number(n, q) * q_gamma_int(n, q), rel=1e-13
            )

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            q_gamma_int(0, 0.5)


class TestQContext:
    def test_accepts_valid(self):
        ctx = QContext(2, 0.5, 1.5)
        assert ctx.lambda_convention is LambdaConvention.LIMIT_CONSISTENT

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            QContext(1, q, 0.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            QContext(0, 0.5, 0.0)
        with pytest.raises(ValueError):
            QContext(-3, 0.5, 0.0)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            QContext(1, 0.5, -1.0)

    def test_frozen(self):
        ctx = QContext(1, 0.5, 0.0)
        with pytest.raises(Exception):
            ctx.q = 0.7


def test_q_number_monotone_in_n():
    q = 0.37
    values = [q_number(n, q) for n in range(12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_q_number_real_accuracy_against_log_formula():
    # expm1 route vs. high-precision reference at awkward arguments
    import mpmath

    for x in (0.7, 2.3, 9.9):
        for q in (0.3, 0.9, 0.999):
            ref = float((1 - mpmath.mpf(q) ** x) / (1 - mpmath.mpf(q)))
            assert q_number_real(x, q) == pytest.approx(ref, rel=1e-13)


#: Table lengths around the memo's capacity steps (16, 256, 512).
MEMO_SIZES = (1, 15, 16, 17, 255, 256, 257, 385)


class TestPrefixMemo:
    @pytest.mark.parametrize("q", [0.3, 0.9, 1.0 - 1e-6])
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_cached_q_numbers_equal_scalar_loop(self, q, order):
        ref = [q_number(k, q) for k in range(max(MEMO_SIZES) + 1)]
        _memo_clear()
        for m in sorted(MEMO_SIZES, reverse=order == "descending"):
            assert q_numbers(m, q).tolist() == ref[: m + 1], m

    def test_returned_table_is_read_only(self):
        table = q_numbers(8, 0.5)
        with pytest.raises(ValueError):
            table[1] = 2.0
        assert q_numbers(8, 0.5)[1] == 1.0

    def test_memo_stays_within_its_bound(self):
        # 200 tables of 4096 entries (32 KiB each) are 3.1 times the bound;
        # the table read at every step is never the least recently used
        _memo_clear()
        qs = np.linspace(0.01, 0.99, 200).tolist()
        for q in qs:
            q_numbers(_MEMO_CAPACITY - 1, q)
            q_numbers(_MEMO_CAPACITY - 1, 0.995)
            assert _memo_info()["bytes"] <= _MEMO_BYTES
        info = _memo_info()
        assert info["builds"] == len(qs) + 1
        assert info["tables"] < len(qs)
        q_numbers(_MEMO_CAPACITY - 1, qs[-1])
        assert _memo_info()["builds"] == len(qs) + 1
        q_numbers(_MEMO_CAPACITY - 1, qs[0])
        assert _memo_info()["builds"] == len(qs) + 2

    def test_one_table_per_key_grows_to_the_longest_request(self):
        _memo_clear()
        for m in (3, 40, 20, 15, 100, 60):
            q_numbers(m, 0.4)
        # capacities 16, 64 and 128: a shorter request reads the longer table
        assert _memo_info() == {"tables": 1, "bytes": 128 * 8, "builds": 3}

    def test_request_above_the_capacity_ceiling_is_not_retained(self):
        _memo_clear()
        table = q_numbers(_MEMO_CAPACITY, 0.7)
        assert _memo_info()["tables"] == 0
        assert not table.flags.writeable
        assert table[:_MEMO_CAPACITY].tolist() == q_numbers(_MEMO_CAPACITY - 1, 0.7).tolist()

    def test_threads_on_overlapping_keys_agree(self):
        keys = list(itertools.product((0.3, 0.5, 0.9), MEMO_SIZES))
        ref = {key: q_numbers(key[1], key[0]).tolist() for key in keys}

        def hammer(shift):
            got = []
            for i in range(6 * len(keys)):
                if i % len(keys) == shift:
                    _memo_clear()
                q, m = keys[(i * (shift + 1)) % len(keys)]
                got.append(((q, m), q_numbers(m, q).tolist()))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(hammer, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        for got in results:
            for key, values in got:
                assert values == ref[key], key
        # the byte count a lost update would break
        assert _memo_info()["bytes"] == sum(entry[0].nbytes for entry in _memo.values())
