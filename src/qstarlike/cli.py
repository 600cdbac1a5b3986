"""Command-line front end.

Each subcommand declares only the flags it reads; any other flag is a usage
error.  Defaults ("-": unset):

  qnum           --n (required) --q 0.5 --out -
  bounds-table   --p - --q - --mu - --A - --B - (unset: sweep that grid axis)
                 --convention limit --N 8 --eta - --format csv --in - --out -
  check          --p 1 --q 0.5 --mu 0 --A 1 --B -1 --convention limit
                 --r 0.9 --m 720 --format json --in (required) --out -
  generate       --p 1 --q 0.5 --mu 0 --A 1 --B -1 --convention limit
                 --N 8 --seed 0 --out -
  fs-sweep       --p 1 --q 0.5 --mu 0 --A 1 --B -1 --convention limit
                 --eta - --seed 0 --lambda-grid -2:2:0.1 --format csv
                 --in - --out -
  limit-compare  --p 1 --q 1-1e-6 --mu 0 --convention limit --N 8
                 --format json --out -
  bernardi       --p 1 --q 0.5 --eta 1 --format json --in (required) --out -

Tables go to CSV or JSON with floats at 15 significant digits and '.' as the
decimal separator, so output for a fixed configuration and seed is
byte-identical across runs.  Exit status: 0 success, 1 a BoundaryFail or
ConvolutionFail from `check` (a SufficiencyFail alone proves nothing), 2 input
or usage error, 3 internal error.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import sys

import numpy as np

from .bounds import bernardi_fekete_bound, coeff_bounds, fekete_szego_bound, write_csv
from .classify import (
    JanowskiParams,
    boundary_sample_test,
    convolution_test,
    sufficiency_test,
    verdict_to_json,
)
from .operators import (
    BernardiParams,
    bernardi_factors,
    bernardi_series,
    lambda_table,
    ruscheweyh_classical,
)
from .oracle import dump_corpus, load_corpus, member_matrix, schwarz_corpus
from .qarith import LambdaConvention, QContext, q_number
from .series import NormalizedMember, TruncSeries, load_series, save_series

__all__ = [
    "Q_GRID",
    "P_GRID",
    "MU_GRID",
    "AB_GRID",
    "build_parser",
    "main",
]

# Default parameter grid for table commands; spans the hypotheses of every
# bound, including the half-plane target (1, -1) and a Silverman-style
# shifted A with B = -1.
Q_GRID = (0.3, 0.5, 0.7, 0.9, 0.99)
P_GRID = (1, 2, 3)
MU_GRID = (0.0, 1.0, 2.5)
AB_GRID = ((1.0, -1.0), (1.0, 0.0), (0.5, -0.5), (0.75, -1.0))

_CONVENTIONS = {
    "limit": LambdaConvention.LIMIT_CONSISTENT,
    "literal": LambdaConvention.PAPER_LITERAL,
}

#: Largest number of points a --lambda-grid may expand to.
_MAX_LAMBDA_POINTS = 1_000_000

#: Every flag a subcommand can declare, with its default; a subcommand whose
#: default differs gives its own in build_parser.
_FLAGS = {
    "--n": dict(type=int, required=True),
    "--p": dict(type=int, default=1, help="valence (leading exponent)"),
    "--q": dict(type=float, default=0.5, help="deformation parameter in (0,1)"),
    "--mu": dict(type=float, default=0.0, help="kernel order, > -1"),
    "--A": dict(type=float, default=1.0, help="Janowski A"),
    "--B": dict(type=float, default=-1.0, help="Janowski B"),
    "--convention": dict(
        choices=sorted(_CONVENTIONS), default="limit", help="kernel normalization"
    ),
    "--N": dict(type=int, default=8, help="truncation order past the lead, >= 1"),
    "--eta": dict(type=float, default=None, help="Bernardi parameter, > -p"),
    "--r": dict(type=float, default=0.9, help="boundary sampling radius"),
    "--m": dict(type=int, default=720, help="boundary sample count"),
    "--seed": dict(type=int, default=0, help="base seed for corpora"),
    "--lambda-grid": dict(default="-2:2:0.1", help="start:stop:step for the real lambda sweep"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--in": dict(dest="input_path", default=None, metavar="PATH"),
    "--out": dict(dest="output_path", default=None, metavar="PATH"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstarlike", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # the flags that fix one parameter point of the grid
    point = "--p --q --mu --A --B --convention"
    for name, handler, flags, defaults in (
        ("qnum", _cmd_qnum, "--n --q --out", {}),
        (
            "bounds-table",
            _cmd_bounds_table,
            f"{point} --N --eta --format --in --out",
            # None sweeps that axis of the grid
            {"--p": None, "--q": None, "--mu": None, "--A": None, "--B": None},
        ),
        ("check", _cmd_check, f"{point} --r --m --format --in --out", {"--format": "json"}),
        ("generate", _cmd_generate, f"{point} --N --seed --out", {}),
        ("fs-sweep", _cmd_fs_sweep, f"{point} --eta --seed --lambda-grid --format --in --out", {}),
        (
            "limit-compare",
            _cmd_limit_compare,
            "--p --q --mu --convention --N --format --out",
            {"--q": 1.0 - 1e-6, "--format": "json"},
        ),
        (
            "bernardi",
            _cmd_bernardi,
            "--p --q --eta --format --in --out",
            {"--eta": 1.0, "--format": "json"},
        ),
    ):
        sub = subs.add_parser(name, help=handler.__doc__)
        for flag in flags.split():
            spec = dict(_FLAGS[flag])
            if flag in defaults:
                spec["default"] = defaults[flag]
            sub.add_argument(flag, **spec)
        sub.set_defaults(handler=handler)
    return parser


def _context(ns) -> QContext:
    return QContext(ns.p, ns.q, ns.mu, _CONVENTIONS[ns.convention])


def _emit(ns, text: str) -> None:
    if ns.output_path:
        with open(ns.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(ns, rows: list[dict], payload=None) -> None:
    """Write rows as CSV, or payload (the rows if not given) as one JSON line, per --format."""
    if ns.format == "csv":
        buf = io.StringIO()
        write_csv(rows, buf, list(rows[0]))
        _emit(ns, buf.getvalue())
    else:
        _emit(ns, json.dumps(rows if payload is None else payload, default=float) + "\n")


def _cmd_qnum(ns) -> int:
    """Print the q-number [n, q]."""
    _emit(ns, f"{q_number(ns.n, ns.q):.15g}\n")
    return 0


def _corpus_matrix(path: str) -> np.ndarray:
    """A corpus file's coefficients as rows x (order + 1)."""
    rows = load_corpus(path)
    if not rows:
        raise ValueError(f"corpus {path} has no rows")
    return np.array([row["coeffs"] for row in rows])


def _cmd_bounds_table(ns) -> int:
    """Coefficient-bound table over the parameter grid."""
    observed = None
    if ns.input_path:
        # corpus columns only make sense for a single pinned grid point
        if None in (ns.p, ns.q, ns.mu, ns.A, ns.B):
            raise ValueError("--in with bounds-table needs --p --q --mu --A --B pinned")
        observed = _corpus_matrix(ns.input_path)
        if observed.shape[1] - 1 < ns.N:
            raise ValueError(
                f"the observed column needs corpus order >= --N, got corpus order "
                f"{observed.shape[1] - 1} and --N {ns.N}"
            )
    if ns.A is None and ns.B is None:
        abs_ = AB_GRID
    else:
        # (A, B) is one axis: pinning either pins the pair, the other at the
        # default of the single-point subcommands
        a = _FLAGS["--A"]["default"] if ns.A is None else ns.A
        b = _FLAGS["--B"]["default"] if ns.B is None else ns.B
        abs_ = ((a, b),)
    rows = []
    for p, q, mu, ab in itertools.product(
        P_GRID if ns.p is None else (ns.p,),
        Q_GRID if ns.q is None else (ns.q,),
        MU_GRID if ns.mu is None else (ns.mu,),
        abs_,
    ):
        ctx = QContext(p, q, mu, _CONVENTIONS[ns.convention])
        jp = JanowskiParams(*ab)
        bounds = coeff_bounds(ctx, jp, ns.N).tolist()
        if ns.eta is not None:
            factors = bernardi_factors(BernardiParams(ns.eta, ctx), ns.N)
            # bernardi_coeff_bound, for every n at once
            bernardi_bounds = (factors[1:] * bounds).tolist()
        for n in range(1, ns.N + 1):
            row = {
                "p": p,
                "q": q,
                "mu": mu,
                "A": jp.A,
                "B": jp.B,
                "convention": ns.convention,
                "n": n,
                "coeff_bound": bounds[n - 1],
            }
            if ns.eta is not None:
                row["bernardi_bound"] = bernardi_bounds[n - 1]
            if observed is not None:
                row["observed"] = float(np.max(np.abs(observed[:, n])))
                row["slack"] = row["coeff_bound"] - row["observed"]
            rows.append(row)
    _emit_table(ns, rows)
    return 0


def _load_member(ns, ctx: QContext) -> NormalizedMember:
    if not ns.input_path:
        raise ValueError("this command needs --in PATH with a series file")
    series = load_series(ns.input_path)
    return NormalizedMember(ctx, series)


def _cmd_check(ns) -> int:
    """Run all three membership tests on a series file."""
    jp = JanowskiParams(ns.A, ns.B)
    member = _load_member(ns, _context(ns))
    verdicts = {
        "sufficiency": sufficiency_test(member, jp),
        "boundary": boundary_sample_test(member, jp, r=ns.r, m=ns.m),
        "convolution": convolution_test(member, jp),
    }
    payload = {k: verdict_to_json(v) for k, v in verdicts.items()}
    rows = [
        {"test": k, "kind": d["kind"], "margin": d["margin"], "witness": json.dumps(d["witness"])}
        for k, d in payload.items()
    ]
    _emit_table(ns, rows, payload)
    # a sufficiency Fail proves nothing, so only the certifying tests set the status
    return 0 if verdicts["boundary"].passed and verdicts["convolution"].passed else 1


def _cmd_generate(ns) -> int:
    """Dump an oracle member corpus as JSON lines."""
    corpus = schwarz_corpus(base_seed=ns.seed)
    jp = JanowskiParams(ns.A, ns.B)
    dump_corpus(ns.output_path or sys.stdout, corpus, _context(ns), jp, order=ns.N)
    return 0


def _parse_lambda_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except Exception as exc:
        raise ValueError(f"bad lambda grid {text!r}; expected start:stop:step") from exc
    steps = (stop - start) / step if step else math.nan
    if not (math.isfinite(steps) and 0 <= round(steps) < _MAX_LAMBDA_POINTS):
        raise ValueError(
            f"bad lambda grid {text!r}; the step must be nonzero and lead from start to "
            f"stop in fewer than {_MAX_LAMBDA_POINTS} points"
        )
    return np.linspace(start, stop, int(round(steps)) + 1)


def _cmd_fs_sweep(ns) -> int:
    """Fekete-Szego bound vs. corpus observations over a lambda grid."""
    ctx = _context(ns)
    jp = JanowskiParams(ns.A, ns.B)
    if ns.input_path:
        coeffs = _corpus_matrix(ns.input_path)
        if coeffs.shape[1] < 3:
            raise ValueError(
                f"the Fekete-Szego sweep needs corpus order >= 2, got corpus order {coeffs.shape[1] - 1}"
            )
    else:
        # a member's leading columns do not depend on the order it is solved to
        coeffs = member_matrix(schwarz_corpus(base_seed=ns.seed), ctx, jp, order=2)
    a1, a2 = coeffs[:, 1], coeffs[:, 2]
    bp = None
    if ns.eta is not None:
        # Bernardi mode: sweep the transform's functional |b2 - sigma b1^2|
        bp = BernardiParams(ns.eta, ctx)
        factors = bernardi_factors(bp, 2)
        a1 = a1 * factors[1]
        a2 = a2 * factors[2]
    rows = []
    for lam in _parse_lambda_grid(ns.lambda_grid):
        observed = float(np.max(np.abs(a2 - lam * a1 * a1)))
        if bp is None:
            bound = fekete_szego_bound(lam, ctx, jp)
        else:
            bound = bernardi_fekete_bound(lam, bp, jp)
        row = {
            "p": ctx.p,
            "q": ctx.q,
            "mu": ctx.mu,
            "A": jp.A,
            "B": jp.B,
            "lambda": float(lam),
            "bound": bound,
            "observed": observed,
            "slack": bound - observed,
        }
        if bp is not None:
            row["eta"] = bp.eta
        rows.append(row)
    _emit_table(ns, rows)
    return 0


def _cmd_limit_compare(ns) -> int:
    """Deviation of the operator from its classical limit."""
    ctx = _context(ns)
    # |Lambda_n a_n - c_n a_n| / |c_n a_n| is |Lambda_n - c_n| / c_n for every
    # a_n != 0, so the two factor tables give the worst deviation directly
    lam = lambda_table(ctx, ns.N).values
    classical = ruscheweyh_classical(TruncSeries(ctx.p, np.ones(ns.N + 1)), ctx.mu).coeffs.real[1:]
    payload = {
        "p": ctx.p,
        "mu": ctx.mu,
        "q": ctx.q,
        "order": ns.N,
        "max_rel_deviation": float(np.max(np.abs(lam - classical) / classical)),
    }
    _emit_table(ns, [payload], payload)
    return 0


def _cmd_bernardi(ns) -> int:
    """Apply the q-Bernardi transform to a series file."""
    # the transform does not involve mu or the kernel convention
    ctx = QContext(ns.p, ns.q, 0.0)
    transformed = bernardi_series(_load_member(ns, ctx), BernardiParams(ns.eta, ctx))
    if ns.format == "json":
        save_series(transformed, ns.output_path or sys.stdout)
    else:
        rows = [
            {"exponent": transformed.lead + j, "re": c.real, "im": c.imag}
            for j, c in enumerate(transformed.coeffs)
        ]
        _emit_table(ns, rows)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse mistakes a leading '-' in "-2:2:0.1" for an option; splice the
    # value onto the flag so the documented spelling works
    for i, a in enumerate(argv[:-1]):
        if a == "--lambda-grid" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--lambda-grid={argv[i + 1]}"]
            break
    try:
        ns = build_parser().parse_args(argv)
        if getattr(ns, "N", 1) < 1:
            raise ValueError(f"--N must be at least 1, got {ns.N}")
        return ns.handler(ns)
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
