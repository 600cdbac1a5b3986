"""q-arithmetic: q-numbers, q-factorials, q-Pochhammer symbols, integer Gamma_q.

The scalar functions operate on plain Python floats at double precision
(the single global precision choice for the whole package); `q_numbers`
and `q_numbers_real` are their vectorized forms, equal to them bit for bit.
All functions are pure and safe to call concurrently from any number of
threads.

The tables that depend only on q or a context ([k,q] here; Lambda, psi and
the coefficient bounds in `operators` and `bounds`) are built once per
process through `_prefix`, a bounded memo of read-only prefix tables.
"""
from __future__ import annotations

import enum
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LambdaConvention",
    "QContext",
    "q_number",
    "q_number_real",
    "q_numbers",
    "q_numbers_real",
    "q_factorial",
    "q_pochhammer",
    "q_gamma_int",
]


class LambdaConvention(enum.Enum):
    """Normalization used for the convolution-kernel coefficients.

    LIMIT_CONSISTENT makes the kernel tend to z^p / (1-z)^(mu+1) as q -> 1-,
    so the operator reduces to the classical Ruscheweyh convolution.
    PAPER_LITERAL keeps the raw shifted-index normalization; it does not
    reproduce that limit and is retained for fidelity studies only.
    """

    LIMIT_CONSISTENT = "limit"
    PAPER_LITERAL = "literal"


#: The bytes the prefix memo may hold, and the largest table it keeps.
_MEMO_BYTES = 2 << 20
_MEMO_CAPACITY = 4096

#: (build, key) -> [table, tick of its last use], and the bytes held.  A hit
#: hashes its key once and stamps the entry without the lock (a lost stamp
#: only reorders eviction); the lock guards inserts, evictions and counters.
_memo: dict = {}
_memo_stats = {"bytes": 0, "builds": 0}
_memo_lock = threading.Lock()
_memo_clock = itertools.count()


def _frozen(table: np.ndarray) -> np.ndarray:
    # the owner of a view too, so that no one can write to the table's memory
    if isinstance(table.base, np.ndarray):
        table.base.setflags(write=False)
    table.setflags(write=False)
    return table


def _held_bytes(table: np.ndarray) -> int:
    return table.base.nbytes if isinstance(table.base, np.ndarray) else table.nbytes


def _memo_clear() -> None:
    """Drop every memoised table and zero the counters."""
    with _memo_lock:
        _memo.clear()
        _memo_stats.update(bytes=0, builds=0)


def _memo_info() -> dict:
    """Tables and bytes held, and the tables built since the last clear."""
    with _memo_lock:
        return {"tables": len(_memo), **_memo_stats}


def _prefix(build, key, n: int) -> np.ndarray:
    """The first n entries of build(key, size), as a read-only array.

    build(key, size) returns a fresh array of `size` entries, each computed
    left to right from the entries before it, so the first n entries of a
    longer table equal the table of n entries bit for bit.  The memo keeps
    one table per (build, key), built at the first request rounded up to a
    power of two (at least 16) and rebuilt at the next such capacity when a
    longer prefix is asked for; key must be hashable and immutable.  Once
    the tables pass _MEMO_BYTES, the least recently used go until a quarter
    of the bound is free.  A capacity above _MEMO_CAPACITY is built at n
    entries and not kept.  Concurrent callers may both build a missing
    table; they get equal ones.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"table length must be a nonnegative integer, got {n!r}")
    n = int(n)
    slot = (build, key)
    entry = _memo.get(slot)
    if entry is not None and entry[0].size >= n:
        entry[1] = next(_memo_clock)
        return entry[0][:n]
    capacity = max(16, 1 << (n - 1).bit_length())
    if capacity > _MEMO_CAPACITY:
        return _frozen(build(key, n))
    # built outside the lock: a build may read other tables through _prefix
    table = _frozen(build(key, capacity))
    with _memo_lock:
        _memo_stats["builds"] += 1
        entry = _memo.get(slot)
        if entry is None or entry[0].size < table.size:
            if entry is not None:
                _memo_stats["bytes"] -= _held_bytes(entry[0])
            _memo[slot] = [table, next(_memo_clock)]
            _memo_stats["bytes"] += _held_bytes(table)
        if _memo_stats["bytes"] > _MEMO_BYTES:
            for victim in sorted(_memo, key=lambda s: _memo[s][1]):
                if _memo_stats["bytes"] <= _MEMO_BYTES * 3 // 4:
                    break
                _memo_stats["bytes"] -= _held_bytes(_memo.pop(victim)[0])
    return table[:n]


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
    return q


@dataclass(frozen=True)
class QContext:
    """Parameter bundle (p, q, mu) plus the kernel normalization flag.

    p is the valence (leading exponent z^p), q the deformation parameter,
    mu the kernel order.  Every operator and bound in the package is a
    function of this context.
    """

    p: int
    q: float
    mu: float
    lambda_convention: LambdaConvention = LambdaConvention.LIMIT_CONSISTENT

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool) or self.p < 1:
            raise ValueError(f"p must be an integer >= 1, got {self.p!r}")
        _check_q(self.q)
        if not float(self.mu) > -1.0:
            raise ValueError(f"mu must exceed -1, got {self.mu}")


def q_number(n: int, q: float) -> float:
    """[n, q] = 1 + q + ... + q^(n-1), with [0, q] = 0.

    Computed as the explicit power sum rather than (1 - q^n)/(1 - q): the
    closed form cancels catastrophically as q -> 1-, and the classical-limit
    regressions push q to 1 - 1e-8.
    """
    _check_q(q)
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    total = 0.0
    power = 1.0
    for _ in range(int(n)):
        total += power
        power *= q
    return total


def q_number_real(x: float, q: float) -> float:
    """[x, q] = (1 - q^x)/(1 - q) for real x > 0.

    Integer x dispatches to the power sum so the two agree exactly; the
    general case goes through expm1/log, which stays accurate near q = 1.
    """
    _check_q(q)
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if x.is_integer():
        return q_number(int(x), q)
    return -math.expm1(x * math.log(q)) / (1.0 - q)


def q_numbers(m: int, q: float) -> np.ndarray:
    """[0, q], [1, q], ..., [m, q] as one read-only array.

    The powers are a cumulative product of q and the q-numbers their
    cumulative sum, the same operations in the same order as q_number, so
    entry k equals q_number(k, q) bit for bit.
    """
    q = _check_q(q)
    if m != int(m) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    return _prefix(_q_number_row, q, int(m) + 1)


def _q_number_row(q: float, size: int) -> np.ndarray:
    """[0, q] .. [size - 1, q]."""
    powers = np.full(size - 1, q)
    powers[:1] = 1.0
    out = np.zeros(size)
    # the ufunc methods: np.cumprod/np.cumsum add microseconds of dispatch
    np.add.accumulate(np.multiply.accumulate(powers), out=out[1:])
    return out


def q_numbers_real(xs, q: float) -> np.ndarray:
    """[x, q] for every x > 0 in xs, equal to q_number_real bit for bit.

    Integer entries are read from q_numbers; the rest keep the scalar
    expm1/log form, because a vectorized expm1 may round differently.
    """
    _check_q(q)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if xs.size and not xs.min() > 0.0:
        raise ValueError(f"x must be positive, got {xs.min()}")
    integral = (xs == np.floor(xs)) & np.isfinite(xs)
    if integral.all():
        return q_numbers(int(xs.max(initial=0.0)), q)[xs.astype(int)]
    log_q = math.log(q)
    out = -np.array([math.expm1(x * log_q) for x in xs.tolist()]) / (1.0 - q)
    if integral.any():
        ks = xs[integral].astype(int)
        out[integral] = q_numbers(int(ks.max()), q)[ks]
    return out


def _left_product(factors: np.ndarray) -> float:
    """factors[0] * factors[1] * ... in that order (accumulate never reorders), 1 if empty."""
    return float(np.multiply.accumulate(factors)[-1]) if factors.size else 1.0


def q_factorial(n: int, q: float) -> float:
    """[n, q]! = [1, q] [2, q] ... [n, q], with [0, q]! = 1.

    Defined only for n = 0 or positive integers; anything else is rejected.
    A left fold over the q-number table, so it equals the running product
    of q_number(j, q) bit for bit.
    """
    _check_q(q)
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return _left_product(q_numbers(int(n), q)[1:])


def q_pochhammer(x: float, n: int, q: float) -> float:
    """[x, q]_n = [x, q] [x+1, q] ... [x+n-1, q] for x > 0, with empty product 1.

    A left fold over q_numbers_real, so it equals the running product of
    q_number_real(x + j, q) bit for bit.
    """
    _check_q(q)
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if float(x) <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    return _left_product(q_numbers_real(float(x) + np.arange(int(n)), q))


def q_gamma_int(n: int, q: float) -> float:
    """Gamma_q at a positive integer: Gamma_q(n) = [n-1, q]!.

    Fixed by Gamma_q(1) = 1 and the recurrence Gamma_q(x+1) = [x, q] Gamma_q(x)
    restricted to integers; non-integer arguments are out of scope.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return q_factorial(int(n) - 1, q)
