"""Command-line front end.

Subcommands: qnum, bounds-table, check, generate, fs-sweep, limit-compare,
bernardi.  Tables go to CSV or JSON with floats at 15 significant digits and
'.' as the decimal separator, so output for a fixed configuration and seed is
byte-identical across runs.  Exit status: 0 success, 1 any Fail verdict from
`check`, 2 input error.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import bernardi_fekete_bound, coeff_bounds, fekete_szego_bound, write_csv
from .classify import (
    JanowskiParams,
    boundary_sample_test,
    convolution_test,
    sufficiency_test,
    verdict_to_json,
)
from .operators import BernardiParams, apply_L, bernardi_factors, bernardi_series, ruscheweyh_classical
from .oracle import dump_corpus, load_corpus, member_matrix, schwarz_corpus, schwarz_to_member
from .qarith import LambdaConvention, QContext, q_number
from .series import NormalizedMember, load_series, save_series

__all__ = [
    "Q_GRID",
    "P_GRID",
    "MU_GRID",
    "AB_GRID",
    "RunConfig",
    "build_parser",
    "run",
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


def _fmt(x) -> str:
    return f"{x:.15g}"


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command plus the parsed parameter set."""

    command: str
    params: dict = field(default_factory=dict)
    input_path: str | None = None
    output_path: str | None = None
    format: str = "csv"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=None, help="valence (leading exponent)")
    sub.add_argument("--q", type=float, default=None, help="deformation parameter in (0,1)")
    sub.add_argument("--mu", type=float, default=None, help="kernel order, > -1")
    sub.add_argument("--A", type=float, default=None, help="Janowski A")
    sub.add_argument("--B", type=float, default=None, help="Janowski B")
    sub.add_argument("--eta", type=float, default=None, help="Bernardi parameter, > -p")
    sub.add_argument("--N", type=int, default=8, help="truncation order past the lead, >= 1")
    sub.add_argument("--r", type=float, default=0.9, help="boundary sampling radius")
    sub.add_argument("--m", type=int, default=720, help="boundary sample count")
    sub.add_argument("--seed", type=int, default=0, help="base seed for corpora")
    sub.add_argument(
        "--convention",
        choices=sorted(_CONVENTIONS),
        default="limit",
        help="kernel normalization",
    )
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--in", dest="input_path", default=None, metavar="PATH")
    sub.add_argument("--out", dest="output_path", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qstarlike", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("qnum", "print the q-number [n, q]"),
        ("bounds-table", "coefficient-bound table over the parameter grid"),
        ("check", "run all three membership tests on a series file"),
        ("generate", "dump an oracle member corpus as JSON lines"),
        ("fs-sweep", "Fekete-Szego bound vs. corpus observations over a lambda grid"),
        ("limit-compare", "deviation of the operator from its classical limit"),
        ("bernardi", "apply the q-Bernardi transform to a series file"),
    ):
        sub = subs.add_parser(name, help=descr)
        _add_common(sub)
        if name == "qnum":
            sub.add_argument("--n", type=int, required=True)
        if name == "fs-sweep":
            sub.add_argument(
                "--lambda-grid",
                dest="lambda_grid",
                default="-2:2:0.1",
                help="start:stop:step for the real lambda sweep",
            )
    return parser


def parse_config(argv) -> RunConfig:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # argparse mistakes a leading '-' in "-2:2:0.1" for an option; splice the
    # value onto the flag so the documented spelling works
    for i, a in enumerate(argv[:-1]):
        if a == "--lambda-grid" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--lambda-grid={argv[i + 1]}"]
            break
    ns = build_parser().parse_args(argv)
    if ns.N < 1:
        raise ValueError(f"--N must be at least 1, got {ns.N}")
    params = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("command", "input_path", "output_path", "format")
    }
    fmt = ns.format or ("json" if ns.command in ("check", "limit-compare", "bernardi") else "csv")
    return RunConfig(
        command=ns.command,
        params=params,
        input_path=ns.input_path,
        output_path=ns.output_path,
        format=fmt,
    )


def _context(params, p=None, q=None, mu=None) -> QContext:
    return QContext(
        p=p if p is not None else (params["p"] if params.get("p") is not None else 1),
        q=q if q is not None else (params["q"] if params.get("q") is not None else 0.5),
        mu=mu if mu is not None else (params["mu"] if params.get("mu") is not None else 0.0),
        lambda_convention=_CONVENTIONS[params.get("convention", "limit")],
    )


def _janowski(params, ab=None) -> JanowskiParams:
    if ab is not None:
        return JanowskiParams(*ab)
    a = params["A"] if params.get("A") is not None else 1.0
    b = params["B"] if params.get("B") is not None else -1.0
    return JanowskiParams(a, b)


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(params):
    ps = [params["p"]] if params.get("p") is not None else list(P_GRID)
    qs = [params["q"]] if params.get("q") is not None else list(Q_GRID)
    mus = [params["mu"]] if params.get("mu") is not None else list(MU_GRID)
    if params.get("A") is not None or params.get("B") is not None:
        a = params["A"] if params.get("A") is not None else 1.0
        b = params["B"] if params.get("B") is not None else -1.0
        abs_ = [(a, b)]
    else:
        abs_ = list(AB_GRID)
    for p in ps:
        for q in qs:
            for mu in mus:
                for ab in abs_:
                    yield p, q, mu, ab


def _cmd_qnum(config: RunConfig) -> int:
    n = config.params["n"]
    q = config.params["q"] if config.params.get("q") is not None else 0.5
    _emit(config, _fmt(q_number(n, q)) + "\n")
    return 0


def _corpus_matrix(path: str) -> np.ndarray:
    """A corpus file's coefficients as rows x (order + 1)."""
    rows = load_corpus(path)
    if not rows:
        raise ValueError(f"corpus {path} has no rows")
    return np.array([row["coeffs"] for row in rows])


def _cmd_bounds_table(config: RunConfig) -> int:
    params = config.params
    observed = None
    if config.input_path:
        # corpus columns only make sense for a single pinned grid point
        if any(params.get(k) is None for k in ("p", "q", "mu", "A", "B")):
            raise ValueError("--in with bounds-table needs --p --q --mu --A --B pinned")
        observed = _corpus_matrix(config.input_path)
        if observed.shape[1] - 1 < params["N"]:
            raise ValueError(
                f"the observed column needs corpus order >= --N, got corpus order "
                f"{observed.shape[1] - 1} and --N {params['N']}"
            )
    rows = []
    for p, q, mu, ab in _grid(params):
        ctx = _context(params, p=p, q=q, mu=mu)
        jp = _janowski(params, ab)
        bounds = coeff_bounds(ctx, jp, params["N"]).tolist()
        if params.get("eta") is not None:
            factors = bernardi_factors(BernardiParams(params["eta"], ctx), params["N"])
            # bernardi_coeff_bound, for every n at once
            bernardi_bounds = (factors[1:] * bounds).tolist()
        for n in range(1, params["N"] + 1):
            row = {
                "p": p,
                "q": q,
                "mu": mu,
                "A": jp.A,
                "B": jp.B,
                "convention": params["convention"],
                "n": n,
                "coeff_bound": bounds[n - 1],
            }
            if params.get("eta") is not None:
                row["bernardi_bound"] = bernardi_bounds[n - 1]
            if observed is not None:
                row["observed"] = float(np.max(np.abs(observed[:, n])))
                row["slack"] = row["coeff_bound"] - row["observed"]
            rows.append(row)
    columns = list(rows[0].keys())
    if config.format == "json":
        _emit(config, json.dumps(rows, default=float) + "\n")
    else:
        buf = io.StringIO()
        write_csv(rows, buf, columns)
        _emit(config, buf.getvalue())
    return 0


def _load_member(config: RunConfig, ctx: QContext) -> NormalizedMember:
    if not config.input_path:
        raise ValueError("this command needs --in PATH with a series file")
    series = load_series(config.input_path)
    return NormalizedMember(ctx, series)


def _cmd_check(config: RunConfig) -> int:
    params = config.params
    ctx = _context(params)
    jp = _janowski(params)
    member = _load_member(config, ctx)
    verdicts = {
        "sufficiency": sufficiency_test(member, jp),
        "boundary": boundary_sample_test(member, jp, r=params["r"], m=params["m"]),
        "convolution": convolution_test(member, jp),
    }
    payload = {k: verdict_to_json(v) for k, v in verdicts.items()}
    if config.format == "csv":
        rows = [
            {"test": k, "kind": d["kind"], "margin": d["margin"], "witness": json.dumps(d["witness"])}
            for k, d in payload.items()
        ]
        buf = io.StringIO()
        write_csv(rows, buf, ["test", "kind", "margin", "witness"])
        _emit(config, buf.getvalue())
    else:
        _emit(config, json.dumps(payload, default=float) + "\n")
    return 0 if all(v.passed for v in verdicts.values()) else 1


def _cmd_generate(config: RunConfig) -> int:
    params = config.params
    ctx = _context(params)
    jp = _janowski(params)
    corpus = schwarz_corpus(base_seed=params["seed"])
    if config.output_path:
        dump_corpus(config.output_path, corpus, ctx, jp, order=params["N"])
    else:
        dump_corpus(sys.stdout, corpus, ctx, jp, order=params["N"])
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


def _cmd_fs_sweep(config: RunConfig) -> int:
    params = config.params
    ctx = _context(params)
    jp = _janowski(params)
    if config.input_path:
        coeffs = _corpus_matrix(config.input_path)
        if coeffs.shape[1] < 3:
            raise ValueError(
                f"the Fekete-Szego sweep needs corpus order >= 2, got corpus order {coeffs.shape[1] - 1}"
            )
    else:
        coeffs = member_matrix(
            schwarz_corpus(base_seed=params["seed"]), ctx, jp, order=max(params["N"], 2)
        )
    a1, a2 = coeffs[:, 1], coeffs[:, 2]
    bp = None
    if params.get("eta") is not None:
        # Bernardi mode: sweep the transform's functional |b2 - sigma b1^2|
        bp = BernardiParams(params["eta"], ctx)
        factors = bernardi_factors(bp, 2)
        a1 = a1 * factors[1]
        a2 = a2 * factors[2]
    rows = []
    for lam in _parse_lambda_grid(params["lambda_grid"]):
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
    if config.format == "json":
        _emit(config, json.dumps(rows, default=float) + "\n")
    else:
        buf = io.StringIO()
        write_csv(rows, buf, list(rows[0].keys()))
        _emit(config, buf.getvalue())
    return 0


def _cmd_limit_compare(config: RunConfig) -> int:
    params = config.params
    eps = 1e-6
    q = params["q"] if params.get("q") is not None else 1.0 - eps
    ctx = _context(params, q=q)
    jp = _janowski(params)
    corpus = schwarz_corpus(ks=(2,), seeds_per_k=8, base_seed=params["seed"])
    worst = 0.0
    for _, w in corpus:
        member = schwarz_to_member(w, ctx, jp, order=params["N"])
        lq = apply_L(member)
        classical = ruscheweyh_classical(member.series, ctx.mu)
        dev = np.abs(lq.coeffs - classical.coeffs) / np.maximum(np.abs(classical.coeffs), 1e-300)
        worst = max(worst, float(dev.max()))
    payload = {
        "p": ctx.p,
        "mu": ctx.mu,
        "q": ctx.q,
        "order": params["N"],
        "max_rel_deviation": worst,
    }
    if config.format == "csv":
        buf = io.StringIO()
        write_csv([payload], buf, list(payload.keys()))
        _emit(config, buf.getvalue())
    else:
        _emit(config, json.dumps(payload, default=float) + "\n")
    return 0


def _cmd_bernardi(config: RunConfig) -> int:
    params = config.params
    ctx = _context(params)
    eta = params["eta"] if params.get("eta") is not None else 1.0
    bp = BernardiParams(eta, ctx)
    member = _load_member(config, ctx)
    transformed = bernardi_series(member, bp)
    if config.format == "csv":
        rows = [
            {"exponent": transformed.lead + j, "re": c.real, "im": c.imag}
            for j, c in enumerate(transformed.coeffs)
        ]
        buf = io.StringIO()
        write_csv(rows, buf, ["exponent", "re", "im"])
        _emit(config, buf.getvalue())
    else:
        buf = io.StringIO()
        save_series(transformed, buf)
        _emit(config, buf.getvalue())
    return 0


_HANDLERS = {
    "qnum": _cmd_qnum,
    "bounds-table": _cmd_bounds_table,
    "check": _cmd_check,
    "generate": _cmd_generate,
    "fs-sweep": _cmd_fs_sweep,
    "limit-compare": _cmd_limit_compare,
    "bernardi": _cmd_bernardi,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration; returns the exit status."""
    return _HANDLERS[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return run(config)
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
