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

import numpy as np

from .asymptotics import CLOSED_FORMS
from .core import DomainError, MarketParams, NumericalError, QuadratureConfig
from .pricing import boundary_rel_err, mispricing_err
from .psor import PsorConfig, extract_boundary, psor_solve
from .ssch import MeshKind, solve_boundary
from .zhu import f2_max, gamma_critical, rho_zhu

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

SOLVER_METHODS = ("ssch", "psor")
ALL_METHODS = tuple(CLOSED_FORMS) + ("zhu",) + SOLVER_METHODS


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with the scripting code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with_usage(message))

    def exit_with_usage(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _add_market_args(sp):
    sp.add_argument("--E", type=float, default=100.0, help="strike (default 100)")
    sp.add_argument("--r", type=float, default=0.1, help="risk-free rate (default 0.1)")
    sp.add_argument("--sigma", type=float, default=0.3, help="volatility (default 0.3)")


def _add_output_args(sp):
    sp.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sp.add_argument(
        "--precision", type=int, default=6, help="significant digits (default 6)"
    )


_OMEGA_HELP = "SOR relaxation in (0, 2); validated, no longer affects the result (psor)"


def build_parser() -> _Parser:
    ap = _Parser(prog="putboundary", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("boundary", help="one method, CSV of tau,rho")
    b.add_argument("--method", required=True, choices=ALL_METHODS)
    _add_market_args(b)
    b.add_argument("--tau", default=None, help="comma-separated times to maturity")
    b.add_argument("--T", type=float, default=None, help="horizon for solver methods")
    b.add_argument("--mesh", choices=("uniform", "quadratic"), default="quadratic")
    b.add_argument("--m", type=int, default=None, help="mesh / time-step count")
    b.add_argument("--n", type=int, default=1000, help="spatial half-count (psor)")
    b.add_argument("--L", type=float, default=2.5, help="log-price half-width (psor)")
    b.add_argument("--omega", type=float, default=1.5, help=_OMEGA_HELP)
    _add_output_args(b)

    c = sub.add_parser("compare", help="several methods side by side")
    c.add_argument("--method", required=True, help="comma-separated list, >= 2 methods")
    c.add_argument("--benchmark", default="psor", help="relative-error reference column")
    _add_market_args(c)
    c.add_argument("--tau", required=True, help="comma-separated times to maturity")
    c.add_argument("--mesh", choices=("uniform", "quadratic"), default="quadratic")
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--n", type=int, default=1000)
    c.add_argument("--L", type=float, default=2.5)
    c.add_argument("--omega", type=float, default=1.5, help=_OMEGA_HELP)
    _add_output_args(c)

    g = sub.add_parser("gamma0", help="convexity-threshold parameter")
    _add_output_args(g)

    mi = sub.add_parser("mispricing", help="near-expiry error sweep (tau,eps,err)")
    mi.add_argument(
        "--method",
        default="zhu-asymptote",
        choices=tuple(CLOSED_FORMS) + ("zhu",),
        help="approximate boundary (default zhu-asymptote)",
    )
    mi.add_argument(
        "--benchmark", default="psor", choices=("psor", "ssch"), help="true-boundary source"
    )
    _add_market_args(mi)
    mi.add_argument("--T", type=float, default=0.006, help="sweep upper end (default 0.006)")
    mi.add_argument("--points", type=int, default=40, help="sweep size (default 40)")
    mi.add_argument("--m", type=int, default=None)
    mi.add_argument("--n", type=int, default=1200)
    mi.add_argument("--L", type=float, default=0.06)
    mi.add_argument("--omega", type=float, default=1.85, help=_OMEGA_HELP)
    _add_output_args(mi)
    return ap


# parse_args leaves the parser unchanged, and usage and help output look up
# sys.stdout and sys.stderr when they print, so one tree serves every call
_PARSER = build_parser()


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _parse_taus(spec: str, parser: _Parser):
    try:
        taus = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(parser.exit_with_usage(f"bad --tau list: {spec!r}"))
    if not taus or any(t < 0 or not math.isfinite(t) for t in taus):
        raise SystemExit(parser.exit_with_usage(f"bad --tau list: {spec!r}"))
    return taus


def _solver_curve(method: str, p: MarketParams, T: float, args):
    if method == "ssch":
        m = args.m if args.m is not None else (100 if T <= 1.0 else 200)
        return solve_boundary(p, T, m, MeshKind(args.mesh))
    cfg = PsorConfig(
        n=args.n,
        m=args.m if args.m is not None else 1000,
        T=T,
        L=args.L,
        omega=args.omega,
    )
    return extract_boundary(psor_solve(p, cfg))


def _method_evaluator(method: str, p: MarketParams, T: float, args):
    """Callable tau -> rho; solver methods are solved once up front and
    return their BoundaryCurve.  The zhu callable and the curves also take
    an array of taus."""
    if method in CLOSED_FORMS:
        fn = CLOSED_FORMS[method]
        return lambda tau: p.strike if tau == 0.0 else fn(tau, p)
    if method == "zhu":

        def zhu(tau):
            t = np.asarray(tau, dtype=float)
            rho = np.where(t == 0.0, p.strike, rho_zhu(np.where(t == 0.0, 1.0, t), p))
            return float(rho) if rho.ndim == 0 else rho

        return zhu
    return _solver_curve(method, p, T, args)


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(_PARSER.exit_with_usage(f"cannot write --out {out}: {exc.strerror}"))


def cmd_boundary(args, parser: _Parser) -> int:
    p = MarketParams(r=args.r, sigma=args.sigma, strike=args.E)
    if args.method in SOLVER_METHODS:
        if args.T is None and args.tau is None:
            raise SystemExit(
                parser.exit_with_usage(f"method {args.method} needs --T or --tau")
            )
        taus_req = _parse_taus(args.tau, parser) if args.tau else None
        T = args.T if args.T is not None else max(taus_req)
        curve = _solver_curve(args.method, p, T, args)
        if taus_req is None:
            rows = [(float(t), float(v)) for t, v in zip(curve.grid.taus, curve.rhos)]
        else:
            rows = [(t, float(curve.value(t))) for t in taus_req]
    else:
        if args.tau is None and args.T is None:
            raise SystemExit(parser.exit_with_usage("need --tau (or --T with --m)"))
        if args.tau is not None:
            taus_req = _parse_taus(args.tau, parser)
        else:
            m = args.m if args.m is not None else 100
            taus_req = list(np.linspace(0.0, args.T, m + 1))
        ev = _method_evaluator(args.method, p, args.T or 0.0, args)
        rows = [(t, ev(t)) for t in taus_req]

    lines = ["tau,rho"]
    for t, v in rows:
        lines.append(f"{_fmt(t, args.precision)},{_fmt(v, args.precision)}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args, parser: _Parser) -> int:
    methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
    if len(methods) < 2:
        raise SystemExit(parser.exit_with_usage("compare needs at least two methods"))
    for mname in methods:
        if mname not in ALL_METHODS:
            raise SystemExit(parser.exit_with_usage(f"unknown method {mname!r}"))
    bench = args.benchmark
    if bench not in methods:
        raise SystemExit(
            parser.exit_with_usage(f"benchmark {bench!r} not among the compared methods")
        )
    p = MarketParams(r=args.r, sigma=args.sigma, strike=args.E)
    taus = _parse_taus(args.tau, parser)
    T = max(taus)

    # columns are positional so the same method may appear twice; evaluators
    # are built in command-line order, so the first to fail is the one reported
    unique = {
        mname: _method_evaluator(mname, p, T, args) for mname in dict.fromkeys(methods)
    }
    bench_pos = methods.index(bench)
    values: list[list[float | None]] = []
    for t in taus:
        row = []
        for mname in methods:
            try:
                row.append(unique[mname](t))
            except DomainError:
                row.append(None)
        values.append(row)

    other_pos = [k for k in range(len(methods)) if k != bench_pos]
    header = (
        "tau,"
        + ",".join(methods)
        + ","
        + ",".join(f"relerr_{methods[k]}" for k in other_pos)
    )
    lines = [header]
    for idx, t in enumerate(taus):
        cells = [_fmt(t, args.precision)]
        row = values[idx]
        for v in row:
            cells.append("n/a" if v is None else _fmt(v, args.precision))
        bv = row[bench_pos]
        for k in other_pos:
            v = row[k]
            if v is None or bv is None or bv == 0.0:
                cells.append("n/a")
            else:
                cells.append(_fmt(abs(v - bv) / bv, args.precision))
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_gamma0(args, parser: _Parser) -> int:
    cfg = QuadratureConfig()
    g0 = gamma_critical(cfg)
    peak = f2_max(g0, cfg)
    if abs(peak - math.pi) > 1e-5:
        raise NumericalError(
            f"self-check failed: f2_max(gamma0) = {peak!r} deviates from pi"
        )
    _write(f"{g0:.7g}\n", args.out)
    return EXIT_OK


def cmd_mispricing(args, parser: _Parser) -> int:
    p = MarketParams(r=args.r, sigma=args.sigma, strike=args.E)
    T = args.T
    if args.benchmark == "psor":
        cfg = PsorConfig(
            n=args.n,
            m=args.m if args.m is not None else 600,
            T=T,
            L=args.L,
            omega=args.omega,
        )
        bench_curve = extract_boundary(psor_solve(p, cfg))
        tau_min = max(2.0 * cfg.k, T / 1000.0)
    else:
        m = args.m if args.m is not None else 400
        bench_curve = solve_boundary(p, T, m, MeshKind.QUADRATIC)
        tau_min = float(bench_curve.grid.taus[1])
    app = _method_evaluator(args.method, p, T, args)

    taus = np.geomspace(tau_min, T, args.points)
    lines = ["tau,eps,err"]
    for t in taus:
        t = float(t)
        try:
            eps = boundary_rel_err(bench_curve, app, t)
            eps_cell = _fmt(eps, args.precision)
        except DomainError:
            eps_cell = "n/a"
        try:
            err = mispricing_err(bench_curve, app, t, p)
            err_cell = _fmt(err, args.precision)
        except DomainError:
            err_cell = "n/a"
        lines.append(f"{_fmt(t, args.precision)},{eps_cell},{err_cell}")
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
    parser built at import.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        for flag in ("precision", "points", "m", "n"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise SystemExit(_PARSER.exit_with_usage(f"--{flag} must be >= 0, got {value}"))
        return _COMMANDS[args.command](args, _PARSER)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DomainError as exc:
        print(f"putboundary: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"putboundary: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
