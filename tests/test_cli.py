"""Tests for the command-line front end: exit codes, formats, determinism."""

import ast
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsops.basis
import gsops.catalog
import gsops.cli
import gsops.operators
import gsops.quadrature
from gsops.analysis import _eigen_relation_dev
from gsops.basis import bernstein_matrix, t_matrix
from gsops.catalog import catalog_names
from gsops.cli import (
    _COLUMNS,
    _COMMANDS,
    _VERIFY_COLUMNS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    RunConfig,
    _fail_row,
    build_parser,
    config_from_args,
    main,
    parse_n_spec,
    render,
)

from helpers import break_u_coefficients, sweep_U

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"
#: The output of the benchmark's invocations where it has moved off the
#: benchmark's references, which predate the closed-form coefficients of exp,
#: sinpi and abs52 and D-tilde as j(n-j) times the second differences: the
#: rows of those functions and a few D-tilde rows of norms moved, within the
#: benchmark's gate.  verify runs no such function and keeps its reference.
MOVED = ROOT / "tests" / "reference"


def run_cli(tmp_path, *args, name="out.csv"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


# -- n spec parsing -------------------------------------------------------------


def test_parse_n_spec():
    assert parse_n_spec("2:2:5") == (2, 4, 8, 16, 32)
    assert parse_n_spec("3,5,9") == (3, 5, 9)
    assert parse_n_spec("7") == (7,)
    with pytest.raises(ValueError):
        parse_n_spec("2:1:5")
    with pytest.raises(ValueError):
        parse_n_spec("2:2")


# -- configuration validation ----------------------------------------------------


def test_n_below_two_is_usage_error(capsys):
    assert main(["verify", "--n", "1"]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_unknown_function_is_usage_error():
    assert main(["verify", "--fns", "nosuch", "--n", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["table", "verify", "kfunc"])
def test_repeated_function_id_is_usage_error(command, capsys):
    # a repeated id printed each of its rows twice, two slope rows in table
    assert main([command, "--fns", "one,t,one", "--n", "2,4,8,16"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "gsops: configuration error: duplicate function ids: one\n"


def test_empty_function_list_is_usage_error():
    assert main(["table", "--fns", "", "--n", "4,8,16,32"]) == EXIT_USAGE


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == EXIT_USAGE


# -- verify -----------------------------------------------------------------------


def test_verify_small_passes(tmp_path):
    code, text = run_cli(tmp_path, "verify", "--fns", "one,t,t2,exp", "--n", "2,3")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0].startswith("# gsops 0.1.0 config=")
    assert "seed=" in lines[0]
    assert lines[1] == "name,f,n,lhs,rhs,margin,pass"
    assert all(not line.endswith(",fail") for line in lines[2:])
    assert any(line.startswith("telescope,t2,") for line in lines)
    assert any(line.startswith("phi_identity,") for line in lines)


def test_verify_fails_on_a_broken_exact_engine(tmp_path, monkeypatch):
    # N_1 one too large in the exact engine: each exact row compares two
    # sides built from it, and fails
    break_u_coefficients(monkeypatch)
    code, text = run_cli(tmp_path, "verify", "--fns", "t2", "--n", "16")
    assert code == EXIT_VIOLATION
    failed = {line.split(",")[0] for line in text.splitlines()[2:] if line.endswith(",fail")}
    assert failed == {"utilde_routes", "commute_identities", "telescope"}


def eigen_relation_dev_loop(n: int, xs: np.ndarray) -> float:
    """Oracle: the eigen-relation deviation with phi P'' built one column at a time."""
    B = bernstein_matrix(n, xs)
    B2 = bernstein_matrix(n - 2, xs)
    phi = xs * (1.0 - xs)
    k = np.arange(n + 1, dtype=float)
    second = np.zeros_like(B)
    for j in range(n + 1):
        acc = np.zeros_like(xs)
        if j >= 2:
            acc += B2[:, j - 2]
        if 1 <= j <= n - 1:
            acc -= 2.0 * B2[:, j - 1]
        if j <= n - 2:
            acc += B2[:, j]
        second[:, j] = n * (n - 1) * acc
    lhs = phi[:, None] * second
    T = t_matrix(n, xs)
    Tbar = T + 4.0 * k * (n - k)
    rhs = T * B
    mask = B > 1e-30
    dev = np.abs(lhs - rhs)[mask] / (Tbar * B + 1e-300)[mask]
    return float(np.max(dev))


def test_eigen_relation_dev_matches_loop_oracle():
    # every n: a reordered second difference moves the result only at some n
    # (9 and 33, say, but not 2, 3, 16 or 128)
    xs = np.linspace(0.02, 0.98, 25)  # the verify grid
    for n in range(2, 129):
        assert _eigen_relation_dev(n, xs) == eigen_relation_dev_loop(n, xs), n


def test_verify_deterministic(tmp_path):
    args = ("verify", "--fns", "t,t2", "--n", "2,4", "--seed", "7")
    _, first = run_cli(tmp_path, *args, name="a.csv")
    _, second = run_cli(tmp_path, *args, name="b.csv")
    assert first == second
    # different seed -> different recorded config hash
    _, third = run_cli(tmp_path, "verify", "--fns", "t,t2", "--n", "2,4", "--seed", "8", name="c.csv")
    assert first.splitlines()[0] != third.splitlines()[0]


# -- table ------------------------------------------------------------------------


def test_table_t2_closed_form(tmp_path):
    code, text = run_cli(tmp_path, "table", "--fns", "t2", "--n", "4:2:5")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[1] == "f,n,err_U,err_Utilde,lambda_n,bound_jackson,ratio"
    data = {}
    slope_row = None
    for line in lines[2:]:
        parts = line.split(",")
        if parts[1] == "slope":
            slope_row = parts
            continue
        data[int(parts[1])] = parts
    for n in (4, 8, 16, 32, 64):
        err_ut = float(data[n][3])
        assert err_ut == pytest.approx(1.0 / (2 * n * (n + 1)), abs=1e-10)
        assert float(data[n][4]) == pytest.approx(1.0 / (2 * n**2), rel=0.5)
        assert float(data[n][6]) <= 1.0 + 1e-9  # measured error under the bound
    assert slope_row is not None
    assert -1.1 <= float(slope_row[2]) <= -0.9
    assert -2.1 <= float(slope_row[3]) <= -1.9


# -- norms ------------------------------------------------------------------------


def test_norms_lebesgue_below_sqrt3(tmp_path):
    code, text = run_cli(
        tmp_path, "norms", "--fns", "t2,exp", "--n", "2:2:7", "--probes", "50"
    )
    lines = [l for l in text.splitlines() if l.startswith("lebesgue_bound")]
    assert len(lines) == 7
    values = [float(l.split(",")[4]) for l in lines]
    assert max(values) <= math.sqrt(3.0)  # 1.7321
    assert min(values) >= 1.0 - 1e-12
    probe_lines = [l for l in text.splitlines() if l.startswith("bernstein_probes")]
    assert len(probe_lines) == 7 and all(",pass," in l for l in probe_lines)
    # b_n decomposition rows fail beyond n = 36 (stated bound defect), so the
    # sweep up to 128 exits with the violation code on those rows alone
    bn = [l for l in text.splitlines() if l.startswith("b_n_bound")]
    assert any(",fail," in l for l in bn) and code == 1


def test_norms_small_n_all_pass(tmp_path):
    code, text = run_cli(tmp_path, "norms", "--fns", "t2", "--n", "2:2:5", "--probes", "20")
    assert code == EXIT_OK


# -- kfunc ------------------------------------------------------------------------


def test_kfunc_rows_carry_candidate(tmp_path):
    code, text = run_cli(tmp_path, "kfunc", "--fns", "t2,abs52", "--n", "2,4")
    assert code == EXIT_OK
    rows = [l for l in text.splitlines() if l.startswith("kf_sandwich")]
    assert len(rows) == 4
    for row in rows:
        parts = row.split(",")
        assert parts[8].startswith(("utilde3_m", "f_itself"))  # candidate_id in note
        assert float(parts[4]) <= float(parts[5]) * (1 + 1e-9) + 1e-12
    assert sum(1 for l in text.splitlines() if l.startswith("direct")) == 4


# -- voronovskaya -------------------------------------------------------------------


def test_voronovskaya_command_skips_rough(tmp_path):
    code, text = run_cli(tmp_path, "voronovskaya", "--fns", "t2,abs52", "--n", "2,4")
    assert code == EXIT_OK  # skips are not failures
    skips = [l for l in text.splitlines() if l.startswith("voronovskaya,abs52")]
    assert len(skips) == 2 and all(",skip," in l for l in skips)
    passes = [l for l in text.splitlines() if l.startswith("voronovskaya,t2")]
    assert len(passes) == 2 and all(",pass," in l for l in passes)


# -- converse ----------------------------------------------------------------------


def test_converse_command(tmp_path):
    code, text = run_cli(tmp_path, "converse", "--fns", "t2", "--n", "2", "--ell-mult", "16")
    assert code == EXIT_OK
    main_rows = [l for l in text.splitlines() if l.startswith("converse,")]
    assert len(main_rows) == 1
    parts = main_rows[0].split(",")
    assert parts[3] == "32"  # ell = 16 * 2
    assert ",pass," in main_rows[0]
    assert any(l.startswith("iterate_contraction") for l in text.splitlines())


def test_converse_below_threshold_skips(tmp_path):
    code, text = run_cli(tmp_path, "converse", "--fns", "t2", "--n", "4", "--ell-mult", "8")
    assert code == EXIT_OK
    rows = [l for l in text.splitlines() if l.startswith("converse,")]
    assert len(rows) == 1 and ",skip," in rows[0] and "ceil" in rows[0]


# -- JSON format --------------------------------------------------------------------


def test_json_output(tmp_path):
    code, text = run_cli(
        tmp_path, "kfunc", "--fns", "t2", "--n", "2", "--format", "json", name="out.json"
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["version"] == "0.1.0"
    assert doc["command"] == "kfunc"
    assert isinstance(doc["seed"], int) and len(doc["config_hash"]) == 12
    names = {row["name"] for row in doc["rows"]}
    assert names == {"kf_sandwich", "direct"}
    for row in doc["rows"]:
        assert row["pass"] == "pass"


def test_stdout_output(capsys):
    code = main(["kfunc", "--fns", "t", "--n", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# gsops")


# -- eval ---------------------------------------------------------------------------


def test_eval_round_trip(tmp_path):
    from gsops.catalog import get_function
    from gsops.operators import utilde_from_u

    form = utilde_from_u(sweep_U(get_function("t2"), 3))
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps({"degree": form.n, "coeffs": form.coeffs.tolist()}), encoding="utf-8")
    code, text = run_cli(tmp_path, "eval", "--form", str(form_path), "--points", "0,0.5,1")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[1] == "x,value"
    values = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
    assert values[0.5] == pytest.approx(0.25 + 0.25 / 6.0, abs=1e-15)  # x^2 + phi/6
    assert values[0.0] == 0.0 and values[1.0] == 1.0


def test_eval_missing_file_is_usage_error(tmp_path):
    code, _ = run_cli(tmp_path, "eval", "--form", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE


def test_eval_bad_points_is_usage_error(tmp_path):
    form_path = tmp_path / "f.json"
    form_path.write_text('{"degree": 1, "coeffs": [0.0, 1.0]}', encoding="utf-8")
    code, _ = run_cli(tmp_path, "eval", "--form", str(form_path), "--points", "0.5,1.5")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("points", ["nan,0.5", "0.5,inf", "0.5,-inf"])
def test_eval_non_finite_points_is_usage_error(tmp_path, capsys, points):
    form_path = tmp_path / "f.json"
    form_path.write_text('{"degree": 1, "coeffs": [0.0, 1.0]}', encoding="utf-8")
    code, text = run_cli(tmp_path, "eval", "--form", str(form_path), "--points", points)
    assert code == EXIT_USAGE
    assert text == ""
    assert "points must be finite" in capsys.readouterr().err


# -- boundaries: bad input is a usage error, never a traceback or a NaN --------------


def test_negative_probes_is_usage_error(capsys):
    assert main(["norms", "--fns", "t2", "--n", "4", "--probes", "-3"]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("mult", ["0", "-1"])
@pytest.mark.parametrize("command", ["kfunc", "converse"])
def test_ell_mult_below_one_is_usage_error(command, mult, capsys):
    # ell = mult * n <= 0 is no operator index, not a below-threshold skip
    assert main([command, "--fns", "t2", "--n", "2", "--ell-mult", mult]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "gsops: configuration error: ell multiplier must be >= 1\n"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_negative_seed_is_usage_error_before_any_work(command, capsys):
    argv = [command, "--fns", "t2", "--n", "2", "--seed", "-1"]
    if command == "eval":
        argv += ["--form", "no-such-form.json"]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "gsops: configuration error: --seed must be >= 0\n"


def test_retired_tol_is_an_unknown_option(capsys):
    # the coefficient bound is fixed in gsops.quadrature, not an option
    with pytest.raises(SystemExit) as exc_info:
        main(["table", "--fns", "exp", "--n", "4", "--tol", "1e-10"])
    assert exc_info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --tol 1e-10" in err
    assert "Traceback" not in err


@pytest.fixture
def unreachable_tol(monkeypatch):
    """A coefficient bound that no route certifies."""
    monkeypatch.setattr(gsops.quadrature, "COEFFICIENT_TOL", 1e-300)


def test_unreachable_tolerance_is_usage_error_without_traceback(unreachable_tol, capsys):
    # an unreachable bound: the coefficient route raises ToleranceError
    assert main(["table", "--fns", "exp", "--n", "4"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("gsops: ToleranceError:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kfunc", "--fns", "abs52", "--n", "2"],
        ["norms", "--fns", "exp", "--n", "7"],
        ["verify", "--fns", "exp", "--n", "4"],
        ["voronovskaya", "--fns", "exp", "--n", "4"],
    ],
    ids=["kfunc", "norms", "verify", "voronovskaya"],
)
def test_unreachable_tolerance_inside_a_check_is_usage_error(argv, unreachable_tol, capsys):
    # exit 1 is kept for violated checks; a route that cannot certify
    # COEFFICIENT_TOL is not a verdict on the inequality
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gsops: ToleranceError:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unreachable_tolerance_in_a_shared_quadrature_is_the_first_functions(unreachable_tol, capsys):
    # both functions miss tol = 1e-300; the run takes f outer, so it stops at
    # the first coefficients of exp (m = 2 at n = 2), with that call's line
    from gsops.catalog import get_function
    from gsops.errors import ToleranceError
    from gsops.quadrature import u_coefficients_numeric

    with pytest.raises(ToleranceError) as lone:
        u_coefficients_numeric(get_function("exp"), 2)
    assert main(["kfunc", "--fns", "exp,abs52"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gsops: ToleranceError: {lone.value}\n"
    assert err.startswith("gsops: ToleranceError: u_{2,k}(exp) is certified to ")
    assert err.endswith(", not to tol=1e-300\n")


def test_oversized_sizes_are_usage_errors(tmp_path, capsys):
    # a 10^15-point grid asks numpy for 7 PiB, which fails at once without
    # touching memory; MemoryError is a usage error, not a violated check
    form_path = tmp_path / "f.json"
    form_path.write_text('{"degree": 1, "coeffs": [0.0, 1.0]}', encoding="utf-8")
    for argv in (
        ["verify", "--fns", "t", "--n", "2", "--grid", "1000000000000000"],
        ["eval", "--form", str(form_path), "--points", "grid:1000000000000000"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gsops: MemoryError:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_probe_count_beyond_numpy_integers_is_usage_error(capsys):
    # numpy's random choice raises OverflowError for a size past its C long;
    # that is a configuration error, not a violated check
    assert main(["norms", "--n", "3", "--probes", "99999999999999999999"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gsops: OverflowError:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, where):
    # the rows are computed, but an --out that cannot be opened for writing
    # is a configuration error, not a violated check
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "out.csv"
    assert main(["table", "--fns", "t2", "--n", "4,8,16,32", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gsops: configuration error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_csv_note_with_comma_keeps_the_header_width():
    # the note names u_{4,k}, whose comma is quoted
    cfg = config_from_args(build_parser().parse_args(["voronovskaya", "--fns", "exp", "--n", "4"]))
    note = "InvariantViolation: u_{4,k}(exp) disagrees"
    text = render(cfg, [_fail_row("voronovskaya", "exp", 4, note)], _COLUMNS)
    header, row = csv.reader(text.splitlines()[1:])
    assert len(row) == len(header)
    assert dict(zip(header, row))["note"] == note


def test_eval_non_finite_coefficient_is_usage_error(tmp_path, capsys):
    form_path = tmp_path / "nan.json"
    form_path.write_text('{"degree": 2, "coeffs": [0, NaN, 1]}', encoding="utf-8")
    code, text = run_cli(tmp_path, "eval", "--form", str(form_path), "--points", "0,0.5,1")
    assert code == EXIT_USAGE
    assert text == ""
    assert "non-finite coefficient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [
        "[1, 2]",
        '{"degree": null, "coeffs": [0.0]}',
        '{"degree": 1, "coeffs": {"a": 1}}',
        '{"degree": 2.5, "coeffs": [0.0, 1.0, 2.0]}',
        '{"degree": true, "coeffs": [0.0, 1.0]}',
        '{"degree": -1, "coeffs": []}',
        '{"degree": 1, "coeffs": [0.0]}',
        '{"degree": 1, "coeffs": ["0", "1"]}',
        '{"degree": 1, "coeffs": [false, true]}',
        '{"degree": 1, "coeffs": [0.0, 1e999999]}',
        '{"degree": 1, "coeffs": [0, 1' + "0" * 400 + "]}",
        '{"coeffs": [0.0, 1.0]}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=[
        "list", "null_degree", "object_coeffs", "float_degree", "bool_degree", "negative_degree",
        "short_coeffs", "string_coeffs", "bool_coeffs", "inf_coeff", "huge_int_coeff", "no_degree",
        "deep_nesting",
    ],
)
def test_eval_malformed_form_is_usage_error(tmp_path, capsys, document):
    # a form is an object with an integer degree n >= 0 (not a bool) and a
    # list of n + 1 finite numbers (not bools, not strings)
    form_path = tmp_path / "f.json"
    form_path.write_text(document, encoding="utf-8")
    code, text = run_cli(tmp_path, "eval", "--form", str(form_path), "--points", "0,0.5,1")
    assert code == EXIT_USAGE
    assert text == ""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gsops: configuration error:") and err.count("\n") == 1
    assert "Traceback" not in err


# -- layering: the CLI parses, guards, sorts and renders -----------------------------------


def test_cli_defines_no_check():
    # every inequality check and its report are built in gsops.analysis (the
    # CLI builds only the exact identity rows of verify); the CLI binds
    # nothing of the basis layer and constructs no InequalityReport itself
    bound = [
        name for name, obj in vars(gsops.cli).items()
        if getattr(obj, "__module__", None) == gsops.basis.__name__
    ]
    assert bound == []
    source = Path(gsops.cli.__file__).read_text(encoding="utf-8")
    assert "InequalityReport(" not in source


def test_analysis_takes_operator_outputs_from_the_sweep():
    # U_n f and Utilde_n f are built in analysis.Sweep alone, which computes
    # each once per run; no other function of gsops.analysis reads a builder
    builders = {"utilde_from_u", "apply_Utilde_to_form", "u_coefficients_numeric", "u_coefficients_exact"}
    readers = set()
    for node in _module_trees()["analysis"].body:
        if isinstance(node, ast.ClassDef) and node.name == "Sweep":
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in builders:
                readers.add(getattr(node, "name", "<module>"))
    assert sorted(readers) == []


def test_U_m_f_is_formed_in_analysis_alone():
    # operators is float algebra on Bernstein forms and imports nothing of
    # quadrature; no module but analysis (where Sweep alone reads them, see
    # above) reads the coefficients of U_m f, apart from exactpoly's own
    # exact operators
    trees = _module_trees()
    from_quadrature = [
        node for node in ast.walk(trees["operators"])
        if isinstance(node, ast.ImportFrom) and "quadrature" in (node.module, *(a.name for a in node.names))
        or isinstance(node, ast.Import) and any(a.name.endswith("quadrature") for a in node.names)
    ]
    assert from_quadrature == []
    readers = [
        f"{stem}.{name}"
        for stem, tree in trees.items() if stem != "analysis"
        for name in ("u_coefficients_numeric", "u_coefficients_exact")
        if name in _names_used(tree) and (stem, name) != ("exactpoly", "u_coefficients_exact")
    ]
    assert readers == []


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in tree as bare names or attributes, outside the subtree skip."""
    used: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _module_trees() -> dict[str, ast.Module]:
    package = Path(gsops.cli.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def test_every_public_function_has_a_caller_in_src():
    # a public function that only tests reach is a deletion candidate; the
    # __all__ strings are not callers
    trees = _module_trees()
    used = {stem: _names_used(tree) for stem, tree in trees.items()}
    uncalled = []
    for module in ("basis", "exactpoly", "quadrature", "catalog", "operators", "analysis"):
        public = set(importlib.import_module(f"gsops.{module}").__all__)
        for node in trees[module].body:
            if not isinstance(node, ast.FunctionDef) or node.name not in public:
                continue
            used_elsewhere = any(node.name in names for stem, names in used.items() if stem != module)
            if not used_elsewhere and node.name not in _names_used(trees[module], skip=node):
                uncalled.append(f"{module}.{node.name}")
    assert uncalled == []


def _names_read(tree: ast.AST) -> set[str]:
    """Bare names read in tree, including those inside string annotations."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _names_read(ast.parse(annotation.value, mode="eval"))
    return names


def test_every_public_name_has_one_home():
    # callers import each name from the module that defines it: the package
    # binds only its dunders (__version__) and its submodules, no module lists
    # a name in __all__ that it imports, and no module imports a name only to
    # pass it on or to mention it in a docstring
    loose = [
        name for name, obj in vars(gsops).items()
        if not (name.startswith("__") and name.endswith("__")) and not inspect.ismodule(obj)
    ]
    assert loose == []
    borrowed, unused = [], []
    for stem, tree in _module_trees().items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        module = importlib.import_module("gsops" if stem == "__init__" else f"gsops.{stem}")
        borrowed += [f"{stem}.{name}" for name in getattr(module, "__all__", ()) if name not in defined]
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{stem}.{name}" for name in bound if name not in read]
    assert borrowed == []
    assert unused == []


# -- byte identity with the recorded reference ----------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        # n up to 256, the flat one/t rows (every grid point is a max
        # candidate) and the slope rows fitted from the errors of the same run
        ["table", "--n", "16:2:5"],
        # the kf_sandwich and direct rows built from one sandwich, whose error
        # is the direct row's lhs; the t2, n = 2 notes rest on a last-bit tie
        ["kfunc", "--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16"],
        # err_ell and iterate_contraction read from the run's Sweep
        ["converse", "--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16"],
        # the Voronovskaya margins of every catalog function up to n = 256
        ["voronovskaya", "--n", "16:2:5"],
    ],
    ids=["table", "kfunc", "converse", "voronovskaya"],
)
def test_table_rates_byte_identical_to_reference(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (MOVED / f"{argv[0]}.csv").read_bytes()


def test_norms_matches_reference(tmp_path):
    # the lebesgue_bound rows with their argmax notes, the guarded bernstein
    # rows and the two expected-red b_n_bound rows (n = 64, 128)
    out = tmp_path / "out.csv"
    assert main(["norms", "--n", "16:2:4", "--seed", "1", "--out", str(out)]) == EXIT_VIOLATION
    assert out.read_bytes() == (MOVED / "norms.csv").read_bytes()


@pytest.mark.parametrize("command", ["table", "kfunc", "converse", "voronovskaya", "norms"])
def test_moved_output_passes_the_benchmark_gate(monkeypatch, command):
    # same header, rows, verdicts and notes as the benchmark's reference, and
    # every number within its gate; only rows of exp, sinpi and abs52 moved,
    # the lhs of norms' c_n_bound row at n = 128, which the vectorized
    # T_{n,k} moved by 5.7e-14 (1.9e-16 relative) before them, and the lhs
    # of seven polynomial and probe rows of norms, which D-tilde as
    # j(n-j) times the second differences moved by at most 4.4e-16 relative
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    check = importlib.import_module("check")
    reference = (REFERENCE / f"{command}.csv").read_text(encoding="utf-8")
    moved = (MOVED / f"{command}.csv").read_text(encoding="utf-8")
    verdict = check.compare(reference, moved, "", check.expected_exit(reference), check.REFERENCE_SEED)
    assert (verdict.failed, verdict.problems) == (0, [])
    ref_lines, lines = reference.splitlines(), moved.splitlines()
    f_col = lines[1].split(",").index("f")
    changed = [line for ref_line, line in zip(ref_lines, lines, strict=True) if line != ref_line]
    dtilde_moved = (
        "bernstein,t2,128,,",
        "bernstein,t5mt2,16,,",
        "bernstein,t5mt2,32,,",
        "bernstein,t5mt2,128,,",
        "bernstein_probes,random,16,,",
        "bernstein_probes,random,32,,",
        "bernstein_probes,random,64,,",
    )
    assert changed and all(
        line.split(",")[f_col] in ("exp", "sinpi", "abs52") or line.startswith(("c_n_bound,-,128,", *dtilde_moved))
        for line in changed
    )


def test_benchmark_headers_unchanged(monkeypatch):
    # the header's config hash covers every RunConfig field and the fixed
    # coefficient bound: each invocation of the benchmark, at its arguments and
    # --seed 1, heads its output with its reference's first line (the tests
    # above run them and compare whole files)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("run").WORKLOADS
    invocations = [argv for workload in workloads.values() for argv in workload]
    assert sorted(argv[0] for argv in invocations) == sorted(p.stem for p in REFERENCE.glob("*.csv"))
    for argv in invocations:
        cfg = config_from_args(build_parser().parse_args([*argv, "--seed", "1"]))
        header = render(cfg, [], _COMMANDS[cfg.command][1]).split("\n", 1)[0]
        assert header == (REFERENCE / f"{argv[0]}.csv").read_text(encoding="utf-8").split("\n", 1)[0], argv


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_options_are_the_hashed_config(command):
    # every option is a RunConfig field and the digest hashes every field but
    # out, plus the coefficient bound that --tol once set (the stored headers
    # hash it): a new knob cannot enter or leave the header silently
    parsed_into = {"n_spec": "n_list", "grid": "grid_size"}
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    dests = {parsed_into.get(a.dest, a.dest) for a in sub._actions if a.dest != "help"}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    eval_only = set() if command == "eval" else {"form_path", "points"}
    assert dests | {"command"} == fields - eval_only
    cfg = config_from_args(build_parser().parse_args([command, "--form", "f.json"] if command == "eval" else [command]))
    payload = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out"}
    payload["tol"] = gsops.quadrature.COEFFICIENT_TOL
    assert cfg.digest() == hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
    assert dataclasses.replace(cfg, out="elsewhere.csv").digest() == cfg.digest()


def test_verify_matches_reference(tmp_path):
    # the exact identity rows (utilde_routes, commute_identities, telescope)
    # up to n = 128, the float identity rows and the seeded phi_identity rows
    out = tmp_path / "out.csv"
    argv = ["verify", "--fns", "one,t,t2,t3,t5mt2", "--n", "16:2:4", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    got = out.read_text(encoding="utf-8").splitlines()
    want = (REFERENCE / "verify.csv").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if not want_line.startswith(("eigen_relation,-,64,", "eigen_relation,-,128,")):
            assert got_line == want_line
            continue
        # lhs moved at rounding-noise level (5.08e-16 -> 4.39e-16 and
        # 4.354e-16 -> 4.417e-16 against a 1e-10 bound), and margin with it
        g, w = got_line.split(","), want_line.split(",")
        assert len(g) == len(w) == len(_VERIFY_COLUMNS)
        for col, gv, wv in zip(_VERIFY_COLUMNS, g, w):
            if col not in ("lhs", "margin"):
                assert gv == wv, col


def test_traced_benchmark_pass_runs(tmp_path):
    # perfbench's tracer hooks public names and reads the Beta matrix's
    # lru_cache; a refactor that drops either fails here
    spans = tmp_path / "spans.json"
    argv = ["kfunc", "--fns", "t2", "--n", "2,4", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "trace", str(spans), "kfunc", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    counters, names = doc["counters"], doc["names"]
    assert counters["operators.u_coefficient_matrix.misses"] > 0
    # golden-section probes go in batches (954 one-point evals with one-point
    # probes), and the sweep forms U_m t2 once for each m in {2, 4, 8, 16, 32}
    assert counters["operators.eval.point_calls"] < 100
    exact = [s for s in doc["spans"] if names[s[0]] == "exactpoly.u_coefficients_exact"]
    assert len(exact) == 5


def test_traced_verify_spans_the_exact_checks(tmp_path):
    # the per-layer metrics of the exact engine read these three spans
    spans = tmp_path / "spans.json"
    argv = ["verify", "--fns", "t2", "--n", "16", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "trace", str(spans), "verify", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    traced = {doc["names"][s[0]] for s in doc["spans"]}
    for name in ("commute_check_exact", "telescope_check_exact", "u_coefficients_exact"):
        assert f"exactpoly.{name}" in traced, name


@pytest.mark.parametrize(
    ("command", "most", "quadratures"),
    [
        ("kfunc", 40, None),
        ("converse", 57, None),
        ("verify", 35, 10),
        ("voronovskaya", 12, 5),
        ("norms", 23, 10),
        ("table", 32, 10),
    ],
    ids=["kfunc", "converse", "verify", "voronovskaya", "norms", "table"],
)
def test_sandwich_sweep_takes_each_norm_once(tmp_path, monkeypatch, command, most, quadratures):
    # kfunc and converse took 145 and 175 sup norms while they recomputed the
    # candidates of every n and Utilde_n^3 f for converse, and 65 and 77 with
    # each taken once; pruning the sandwich's candidates by their screened
    # lower bounds leaves 37 and 54, and a pruned m = n candidate costs
    # converse's iterate_contraction its distance alone.  verify, voronovskaya
    # and norms made 55, 20 and 35 while they took U_n f once per check and
    # ||Dtilde^ell f|| and ||f|| once per n.  With one Sweep per run, every
    # command takes the coefficients of U_m f once per (f, m): verify, norms
    # and table those of exp and abs52 at each n (25 when each check ran its
    # own), and voronovskaya those of exp alone: its abs52 rows are
    # precondition skips, so abs52 is never evaluated
    import gsops.analysis

    calls, quadrature_calls, evaluated = [], [], set()
    plain = gsops.analysis.sup_norms
    plain_derivative = gsops.catalog.FunctionSpec.derivative

    def recording(self, order, x):
        evaluated.add(self.name)
        return plain_derivative(self, order, x)

    monkeypatch.setattr(gsops.catalog.FunctionSpec, "derivative", recording)

    def counting(fns, *args, **kwargs):  # every walk, one at a time or in lockstep
        calls.extend(fns)
        return plain(fns, *args, **kwargs)

    monkeypatch.setattr(gsops.analysis, "sup_norms", counting)
    plain_quadrature = gsops.analysis.u_coefficients_numeric

    def counting_quadrature(*args, **kwargs):
        quadrature_calls.append((args[0].name, args[1]))
        return plain_quadrature(*args, **kwargs)

    monkeypatch.setattr(gsops.analysis, "u_coefficients_numeric", counting_quadrature)
    argv = [command, "--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert 0 < len(calls) <= most
    assert len(set(quadrature_calls)) == len(quadrature_calls)
    if quadratures is not None:
        assert len(quadrature_calls) <= quadratures
    assert ("abs52" in evaluated) == (command != "voronovskaya")


@pytest.mark.parametrize(("command", "most"), [("table", 12), ("verify", 19)])
def test_linear_functions_take_one_distance_per_n(tmp_path, monkeypatch, command, most):
    # U_n f and Utilde_n f of one and t hold the same bits at n = 2, 4, ..., 32,
    # so table's err_U and err_Utilde share one sup norm per (f, n), and so do
    # verify's contraction_U and linear_reproduction: 10 in all.  table adds
    # ||Dtilde^2 f|| per f, verify ||Dtilde f|| and ||Dtilde^2 f|| per f and the
    # Lebesgue bound per n.  Each distance taken apart made 22 and 29
    import gsops.analysis

    calls = []
    plain = gsops.analysis.sup_norms

    def counting(fns, *args, **kwargs):  # every walk, one at a time or in lockstep
        calls.extend(fns)
        return plain(fns, *args, **kwargs)

    monkeypatch.setattr(gsops.analysis, "sup_norms", counting)
    argv = [command, "--fns", "one,t", "--n", "2:2:5", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert 0 < len(calls) <= most


#: BernsteinForm.eval points of the rates commands at --n 16:2:5 --seed 1 when
#: each sup norm walked alone: 1,050 and 525 calls of 210 and 105 per degree.
_RATES_EVAL_POINTS = {"table": 33046, "voronovskaya": 26551}


@pytest.mark.parametrize("command", sorted(_RATES_EVAL_POINTS))
def test_rates_commands_walk_each_degree_in_lockstep(tmp_path, monkeypatch, command):
    # timing-free: the sup norms of one degree share their evaluation calls
    # (a confirmation, a first pair and 13 lookahead blocks), and together
    # they evaluate no more points than the walks taken one at a time
    calls, points = {}, []
    plain = gsops.operators.BernsteinForm.eval

    def counting(self, x, *args, **kwargs):
        calls[self.n] = calls.get(self.n, 0) + 1
        points.append(np.asarray(x).size)
        return plain(self, x, *args, **kwargs)

    monkeypatch.setattr(gsops.operators.BernsteinForm, "eval", counting)
    argv = [command, "--n", "16:2:5", "--seed", "1", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_OK
    assert sorted(calls) == [16, 32, 64, 128, 256]
    assert max(calls.values()) <= 16
    assert sum(points) <= _RATES_EVAL_POINTS[command]


#: BernsteinForm.eval calls and points of the sandwich commands at the
#: benchmark's arguments when each candidate's two norms share one lockstep
#: call; taken one walk at a time, the same points took 525 and 780 calls.
_SANDWICH_EVALS = {"kfunc": (375, 6521), "converse": (630, 9687)}


@pytest.mark.parametrize("command", sorted(_SANDWICH_EVALS))
def test_sandwich_commands_walk_each_candidate_in_lockstep(tmp_path, monkeypatch, command):
    # timing-free: ||Utilde_m^3 f - f|| and ||Dtilde^2 Utilde_m^3 f|| of a kept
    # candidate walk together, and they evaluate no more points than alone
    calls, points = [], []
    plain = gsops.operators.BernsteinForm.eval

    def counting(self, x, *args, **kwargs):
        calls.append(self.n)
        points.append(np.asarray(x).size)
        return plain(self, x, *args, **kwargs)

    monkeypatch.setattr(gsops.operators.BernsteinForm, "eval", counting)
    argv = [command, "--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    most_calls, most_points = _SANDWICH_EVALS[command]
    assert len(calls) <= most_calls
    assert sum(points) <= most_points


# -- fuzz: every command over bounded inputs ----------------------------------------------


@pytest.fixture(scope="module")
def form_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("form") / "form.json"
    path.write_text('{"degree": 3, "coeffs": [0.0, -1.0, 2.5, 1.0]}', encoding="utf-8")
    return str(path)


_POINT = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(float("nan")))


@st.composite
def cli_argv(draw, form_path: str) -> list[str]:
    command = draw(st.sampled_from(["verify", "table", "norms", "kfunc", "voronovskaya", "converse", "eval"]))
    fns = draw(st.lists(st.sampled_from(catalog_names()), min_size=1, max_size=2, unique=True))
    ns = draw(st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=4))
    argv = [
        command,
        "--fns", ",".join(fns),
        "--n", ",".join(map(str, ns)),
        "--grid", str(draw(st.integers(min_value=64, max_value=128))),
        "--probes", str(draw(st.integers(min_value=0, max_value=3))),
        "--ell-mult", str(draw(st.integers(min_value=0, max_value=20))),
        "--format", draw(st.sampled_from(["csv", "json"])),
        "--seed", str(draw(st.integers(min_value=0, max_value=9))),
    ]
    if command == "eval":
        points = draw(st.lists(_POINT, min_size=1, max_size=4))
        argv += ["--form", form_path, "--points=" + ",".join(map(repr, points))]
    return argv


def _assert_finite(value) -> None:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return
    assert math.isfinite(number), f"non-finite field {value!r}"


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_bounded_inputs(form_file, data):
    argv = data.draw(cli_argv(form_file))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if code == EXIT_USAGE:
        return
    if argv[argv.index("--format") + 1] == "json":
        doc = json.loads(text)
        for row in doc["rows"]:
            for value in row.values():
                _assert_finite(value)
        return
    header, *rows = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    for row in rows:
        assert len(row) == len(header), row
        for value in row:
            _assert_finite(value)
