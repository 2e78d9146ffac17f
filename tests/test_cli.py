"""Tests for the command-line front end: exit codes, formats, determinism."""

import contextlib
import csv
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

from gsops.basis import bernstein_matrix, t_matrix
from gsops.catalog import catalog_names
from gsops.cli import (
    _COLUMNS,
    _VERIFY_COLUMNS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _eigen_relation_dev,
    _fail_row,
    build_parser,
    config_from_args,
    main,
    parse_n_spec,
    render,
)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"


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
    from gsops.operators import apply_Utilde

    form = apply_Utilde(get_function("t2"), 3)
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form.to_json_dict()), encoding="utf-8")
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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_non_positive_or_non_finite_tol_is_usage_error(tol, capsys):
    assert main(["table", "--fns", "exp", "--n", "4", "--tol", tol]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_negative_probes_is_usage_error(capsys):
    assert main(["norms", "--fns", "t2", "--n", "4", "--probes", "-3"]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_unreachable_tolerance_is_usage_error_without_traceback(capsys):
    # a valid but unreachable target: the quadrature raises ToleranceError
    assert main(["table", "--fns", "exp", "--n", "4", "--tol", "1e-300"]) == EXIT_USAGE
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
def test_unreachable_tolerance_inside_a_check_is_usage_error(argv, capsys):
    # exit 1 is kept for violated checks; a quadrature that cannot reach
    # --tol is not a verdict on the inequality
    assert main([*argv, "--tol", "1e-300"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gsops: ToleranceError:") and err.count("\n") == 1
    assert "Traceback" not in err


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
        # err_ell and iterate_contraction read from the sweep's memo
        ["converse", "--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16"],
        # the Voronovskaya margins of every catalog function up to n = 256
        ["voronovskaya", "--n", "16:2:5"],
    ],
    ids=["table", "kfunc", "converse", "voronovskaya"],
)
def test_table_rates_byte_identical_to_reference(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (REFERENCE / f"{argv[0]}.csv").read_bytes()


def test_norms_matches_reference(tmp_path):
    # the lebesgue_bound rows with their argmax notes, the guarded bernstein
    # rows and the two expected-red b_n_bound rows (n = 64, 128)
    out = tmp_path / "out.csv"
    assert main(["norms", "--n", "16:2:4", "--seed", "1", "--out", str(out)]) == EXIT_VIOLATION
    got = out.read_text(encoding="utf-8").splitlines()
    want = (REFERENCE / "norms.csv").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if not want_line.startswith("c_n_bound,-,128,"):
            assert got_line == want_line
            continue
        # the vectorized T_{n,k} moved this row's lhs by 5.7e-14 (1.9e-16 relative)
        for g, w in zip(got_line.split(","), want_line.split(","), strict=True):
            try:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0)
            except ValueError:
                assert g == w


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
    counters = json.loads(spans.read_text(encoding="utf-8"))["counters"]
    assert counters["operators.u_coefficient_matrix.misses"] > 0
    # golden-section probes go in batches (954 one-point evals with one-point
    # probes), and the sweep applies each operator once
    assert counters["operators.eval.point_calls"] < 100
    assert counters.get("operators.apply.repeats", 0) == 0


@pytest.mark.parametrize(("command", "most"), [("kfunc", 72), ("converse", 87)], ids=["kfunc", "converse"])
def test_sandwich_sweep_takes_each_norm_once(tmp_path, monkeypatch, command, most):
    # half of the 145 (kfunc) and 175 (converse) sup norms of a sweep that
    # recomputes the candidates of every n and Utilde_n^3 f for converse
    import gsops.analysis
    import gsops.cli

    calls = []
    plain = gsops.analysis.sup_norm

    def counting(*args, **kwargs):
        calls.append(args[0])
        return plain(*args, **kwargs)

    monkeypatch.setattr(gsops.analysis, "sup_norm", counting)
    monkeypatch.setattr(gsops.cli, "sup_norm", counting, raising=False)
    argv = [command, "--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert 0 < len(calls) <= most


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
        "--tol", draw(st.sampled_from(["1e-8", "1e-300"])),
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
