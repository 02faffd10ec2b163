"""Command-line interface.

Four subcommands: `boundary` evaluates one method and emits a tau,rho CSV;
`compare` runs several methods on a shared tau list with relative errors
against a benchmark column; `gamma0` prints the convexity-threshold
parameter; `mispricing` sweeps the near-expiry boundary/price error metrics.

Exit codes are a stable scripting contract: 0 success, 1 numerical failure,
2 domain error (formula undefined at the requested point), 64 usage error.
Cells that are undefined rather than failed are emitted as `n/a`.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from .asymptotics import CLOSED_FORMS
from .core import DomainError, MarketParams, NumericalError
from .pricing import boundary_rel_err, mispricing_err
from .psor import PsorConfig, extract_boundary, psor_solve
from .ssch import MeshKind, solve_boundary
from .zhu import f2_max, gamma_critical, rho_zhu

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

#: the formula methods by command-line name, each tau -> rho for tau > 0
_FORMULAS = {**CLOSED_FORMS, "zhu": rho_zhu}
SOLVER_METHODS = ("ssch", "psor")
ALL_METHODS = tuple(_FORMULAS) + SOLVER_METHODS


class _UsageError(Exception):
    """A bad command line: main prints `putboundary: error: <message>` and
    exits with the usage code 64."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose own usage failures exit with the code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_market_args(sp):
    sp.add_argument("--E", type=float, default=100.0, help="strike (default 100)")
    sp.add_argument("--r", type=float, default=0.1, help="risk-free rate (default 0.1)")
    sp.add_argument("--sigma", type=float, default=0.3, help="volatility (default 0.3)")


def _add_grid_args(sp, n: int, L: float):
    sp.add_argument("--m", type=int, default=None, help="mesh / time-step count")
    sp.add_argument("--n", type=int, default=n, help="spatial half-count (psor)")
    sp.add_argument("--L", type=float, default=L, help="log-price half-width (psor)")
    sp.add_argument(
        "--omega",
        type=float,
        default=PsorConfig.omega,
        help="SOR relaxation in (0, 2); validated, no longer affects the result (psor)",
    )


def _add_output_args(sp):
    sp.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sp.add_argument("--precision", type=int, default=6, help="significant digits (default 6)")


def build_parser() -> _Parser:
    ap = _Parser(prog="putboundary", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("boundary", help="one method, CSV of tau,rho")
    b.add_argument("--method", required=True, choices=ALL_METHODS)
    _add_market_args(b)
    b.add_argument("--tau", default=None, help="comma-separated times to maturity")
    b.add_argument("--T", type=float, default=None, help="horizon for solver methods")
    b.add_argument("--mesh", choices=("uniform", "quadratic"), default="quadratic")
    _add_grid_args(b, n=1000, L=2.5)
    _add_output_args(b)

    c = sub.add_parser("compare", help="several methods side by side")
    c.add_argument("--method", required=True, help="comma-separated list, >= 2 methods")
    c.add_argument("--benchmark", default="psor", help="relative-error reference column")
    _add_market_args(c)
    c.add_argument("--tau", required=True, help="comma-separated times to maturity")
    c.add_argument("--mesh", choices=("uniform", "quadratic"), default="quadratic")
    _add_grid_args(c, n=1000, L=2.5)
    _add_output_args(c)

    g = sub.add_parser("gamma0", help="convexity-threshold parameter")
    _add_output_args(g)

    mi = sub.add_parser("mispricing", help="near-expiry error sweep (tau,eps,err)")
    mi.add_argument(
        "--method",
        default="zhu-asymptote",
        choices=tuple(_FORMULAS),
        help="approximate boundary (default zhu-asymptote)",
    )
    mi.add_argument(
        "--benchmark", default="psor", choices=("psor", "ssch"), help="true-boundary source"
    )
    _add_market_args(mi)
    mi.add_argument("--T", type=float, default=0.006, help="sweep upper end (default 0.006)")
    mi.add_argument("--points", type=int, default=40, help="sweep size (default 40)")
    _add_grid_args(mi, n=1200, L=0.06)
    mi.set_defaults(mesh="quadratic")
    _add_output_args(mi)
    return ap


# parse_args leaves the parser unchanged, and usage and help output look up
# sys.stdout and sys.stderr when they print, so one tree serves every call
_PARSER = build_parser()


def _fmt(value: float | None, precision: int) -> str:
    return "n/a" if value is None else f"{value:.{precision}g}"


def _defined(f, *args):
    """f(*args), or None (an `n/a` cell) where the formula is undefined."""
    try:
        return f(*args)
    except DomainError:
        return None


def _parse_taus(spec: str) -> list[float]:
    try:
        taus = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        taus = []
    if not taus or any(t < 0 or not math.isfinite(t) for t in taus):
        raise _UsageError(f"bad --tau list: {spec!r}")
    return taus


def _solver_curve(method: str, p: MarketParams, T: float, args, m: int):
    """The ssch or psor boundary over [0, T] on m steps, unless --m says otherwise."""
    m = args.m if args.m is not None else m
    if method == "ssch":
        return solve_boundary(p, T, m, MeshKind(args.mesh))
    cfg = PsorConfig(n=args.n, m=m, T=T, L=args.L, omega=args.omega)
    return extract_boundary(psor_solve(p, cfg))


def _method_evaluator(method: str, p: MarketParams, T: float, args):
    """Callable tau -> rho for tau > 0; solver methods are solved once up
    front and return their BoundaryCurve."""
    if method in _FORMULAS:
        fn = _FORMULAS[method]
        return lambda tau: fn(tau, p)
    m = 1000 if method == "psor" else 100 if T <= 1.0 else 200
    return _solver_curve(method, p, T, args, m)


def _column(method: str, ev, taus, strike: float, na_cells: bool) -> list:
    """ev's rho at every tau: the strike at tau = 0, one array call for zhu or
    a solver curve, one call per tau for a closed form (floats only) and, with
    na_cells, for an array call that raised DomainError.  A DomainError is an
    `n/a` cell (None) with na_cells and raised without."""
    live = [x for x in map(float, taus) if x > 0.0]
    if method in CLOSED_FORMS:
        vals = [_defined(ev, x) if na_cells else ev(x) for x in live]
    else:
        try:
            vals = ev(np.array(live)).tolist()
        except DomainError:
            if not na_cells:
                raise
            vals = [_defined(ev, x) for x in live]
    vals = iter(vals)
    return [next(vals) if x > 0.0 else strike for x in taus]


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out}: {exc.strerror}")


def cmd_boundary(args) -> int:
    if args.tau is None and args.T is None:
        raise _UsageError(f"method {args.method} needs --T or --tau")
    p = MarketParams(r=args.r, sigma=args.sigma, strike=args.E)
    taus = None if args.tau is None else _parse_taus(args.tau)
    T = args.T if args.T is not None else max(taus)
    ev = _method_evaluator(args.method, p, T, args)
    if taus is None:
        m = args.m if args.m is not None else 100
        taus = ev.grid.taus if args.method in SOLVER_METHODS else np.linspace(0.0, T, m + 1)
    rows = zip(taus, _column(args.method, ev, taus, p.strike, na_cells=False))
    lines = ["tau,rho"] + [",".join(_fmt(v, args.precision) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
    if len(methods) < 2:
        raise _UsageError("compare needs at least two methods")
    for mname in methods:
        if mname not in ALL_METHODS:
            raise _UsageError(f"unknown method {mname!r}")
    if args.benchmark not in methods:
        raise _UsageError(f"benchmark {args.benchmark!r} not among the compared methods")
    p = MarketParams(r=args.r, sigma=args.sigma, strike=args.E)
    taus = _parse_taus(args.tau)

    # columns are positional so the same method may appear twice; evaluators
    # are built in command-line order, so the first to fail is the one reported
    unique = {m: _method_evaluator(m, p, max(taus), args) for m in dict.fromkeys(methods)}
    cols = {m: _column(m, ev, taus, p.strike, na_cells=True) for m, ev in unique.items()}
    bench_pos = methods.index(args.benchmark)
    other_pos = [k for k in range(len(methods)) if k != bench_pos]
    lines = ["tau," + ",".join(methods + [f"relerr_{methods[k]}" for k in other_pos])]
    for t, *row in zip(taus, *(cols[m] for m in methods)):
        bv = row[bench_pos]
        relerrs = [
            None if row[k] is None or bv is None or bv == 0.0 else abs(row[k] - bv) / bv
            for k in other_pos
        ]
        lines.append(",".join(_fmt(v, args.precision) for v in [t, *row, *relerrs]))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_gamma0(args) -> int:
    g0 = gamma_critical()
    peak = f2_max(g0)
    if abs(peak - math.pi) > 1e-5:
        raise NumericalError(
            f"self-check failed: f2_max(gamma0) = {peak!r} deviates from pi"
        )
    _write(f"{g0:.7g}\n", args.out)
    return EXIT_OK


def cmd_mispricing(args) -> int:
    p = MarketParams(r=args.r, sigma=args.sigma, strike=args.E)
    T = args.T
    psor = args.benchmark == "psor"
    bench_curve = _solver_curve(args.benchmark, p, T, args, 600 if psor else 400)
    # a psor sweep starts two time steps in, and no earlier than T/1000
    tau_1 = float(bench_curve.grid.taus[1])
    tau_min = max(2.0 * tau_1, T / 1000.0) if psor else tau_1
    app = _method_evaluator(args.method, p, T, args)

    lines = ["tau,eps,err"]
    for t in np.geomspace(tau_min, T, args.points).tolist():
        eps = _defined(boundary_rel_err, bench_curve, app, t)
        err = _defined(mispricing_err, bench_curve, app, t, p)
        lines.append(",".join(_fmt(v, args.precision) for v in (t, eps, err)))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "boundary": cmd_boundary,
    "compare": cmd_compare,
    "gamma0": cmd_gamma0,
    "mispricing": cmd_mispricing,
}


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    May be called repeatedly in one process: every call parses with the one
    parser built at import.  Warnings raised while the command runs are
    printed once per distinct message, in order, before any error line.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            for flag in ("precision", "points", "m", "n"):
                value = getattr(args, flag, None)
                if value is not None and value < 0:
                    raise _UsageError(f"--{flag} must be >= 0, got {value}")
            code = _COMMANDS[args.command](args)
        except _UsageError as exc:
            code, error = EXIT_USAGE, f"error: {exc}"
        except DomainError as exc:
            code, error = EXIT_DOMAIN, f"domain error: {exc}"
        except NumericalError as exc:
            code, error = EXIT_NUMERICAL, f"numerical failure: {exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"putboundary: warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"putboundary: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
