"""Tests of the benchmark itself: tracer fidelity, the correctness gate, the
metric names in BENCHMARK.json, and refusal without the program.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = [
    ["kfunc", "--fns", "t2,exp", "--n", "2:2:2", "--seed", "1"],
    ["norms", "--fns", "exp", "--n", "40", "--probes", "5", "--grid", "257", "--seed", "1"],
]


@pytest.fixture(scope="module", params=SMALL, ids=lambda argv: argv[0])
def traced_pair(request, tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    argv = request.param
    deadline = time.perf_counter() + 120
    plain = run.spawn(["run", "--", *argv], work, deadline)
    spans = work / "spans.json"
    traced = run.spawn(["trace", str(spans), argv[0], "--", *argv], work, deadline)
    doc = json.loads(spans.read_text(encoding="utf-8"))
    return plain, traced, doc


def test_traced_output_is_byte_identical(traced_pair):
    (_, _, rc, out, err), (_, _, trc, tout, terr), _ = traced_pair
    assert "Traceback" not in err + terr
    assert (trc, tout) == (rc, out)


def test_self_times_and_remainder_add_up_to_traced_wall(traced_pair):
    _, (wall, *_), doc = traced_pair
    totals = tracer.totals(doc, wall)
    layers = [totals[name] for name in tracer.SELF_LAYERS]
    assert min(layers) >= -1e-9
    assert totals["trace.unattributed_s"] >= 0.0
    assert sum(layers) + totals["trace.unattributed_s"] == pytest.approx(wall, abs=1e-6)
    metrics = tracer.derive(totals, 0.0, wall)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["operators.eval.calls"] > 0 and metrics["analysis.sup_norm.calls"] > 0


def test_spans_nest_inside_their_parents(traced_pair):
    *_, doc = traced_pair
    spans = doc["spans"]
    roots = [s for s in spans if s[3] < 0]
    assert [doc["names"][s[0]] for s in roots] == ["cli.main"]
    for _, t0, t1, parent in spans:
        assert t0 <= t1
        if parent >= 0:
            assert spans[parent][1] <= t0 and t1 <= spans[parent][2]


def _reference(command):
    return (run.REFERENCE / f"{command}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [a[0] for seq in run.WORKLOADS.values() for a in seq])
def test_gate_accepts_the_reference_itself(command):
    ref = _reference(command)
    v = check.compare(ref, ref, "", check.expected_exit(ref), check.REFERENCE_SEED)
    assert (v.failed, v.problems) == (0, [])
    assert v.attempted == len(ref.splitlines()) - 1  # rows + the invocation, less the two header lines


def _replace_row(text, prefix, edit):
    lines = text.splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = edit(lines[i])
    return "".join(lines)


def test_gate_counts_expected_red_rows_turning_green_as_mismatch():
    ref = _reference("norms")
    assert check.expected_exit(ref) == 1
    green = _replace_row(ref, "b_n_bound,-,64,", lambda ln: ln.replace(",fail,", ",pass,"))
    green = _replace_row(green, "b_n_bound,-,128,", lambda ln: ln.replace(",fail,", ",pass,"))
    v = check.compare(ref, green, "", 0, check.REFERENCE_SEED)
    assert v.failed == 1 + ref.count("\n") - 2  # the invocation's exit code fails it and all its rows
    v = check.compare(ref, green, "", 1, check.REFERENCE_SEED)
    assert v.failed == 2


def test_gate_numeric_tolerance_and_nan():
    ref = _reference("kfunc")

    def scale(factor):
        def edit(line):
            fields = line.split(",")
            fields[4] = repr(float(fields[4]) * factor)
            return ",".join(fields)
        return edit

    close = _replace_row(ref, "direct,exp,8,", scale(1 + 1e-9))
    far = _replace_row(ref, "direct,exp,8,", scale(1 + 1e-4))
    nan = _replace_row(ref, "direct,exp,8,", lambda ln: ln.replace(ln.split(",")[4], "nan"))
    assert check.compare(ref, close, "", 0, check.REFERENCE_SEED).failed == 0
    assert check.compare(ref, far, "", 0, check.REFERENCE_SEED).failed == 1
    assert check.compare(ref, nan, "", 0, check.REFERENCE_SEED).failed == ref.count("\n") - 1
    crashed = check.compare(ref, "", "Traceback (most recent call last):\n", 1, check.REFERENCE_SEED)
    assert crashed.failed == crashed.attempted


def test_gate_checks_seeded_rows_by_verdict_for_other_seeds():
    ref = _reference("norms")
    other_seed = check.REFERENCE_SEED + 1
    header = ref.splitlines(keepends=True)[0]
    moved = _replace_row(ref, "bernstein_probes,random,16,", lambda ln: ln.replace(ln.split(",")[4], "1.0"))
    reseeded = moved.replace(header, header.replace(f"seed={check.REFERENCE_SEED}", f"seed={other_seed}"))
    assert check.compare(ref, reseeded, "", 1, other_seed).failed == 0
    assert check.compare(ref, moved, "", 1, check.REFERENCE_SEED).failed == 1
    flipped = _replace_row(reseeded, "bernstein_probes,random,16,", lambda ln: ln.replace(",pass,", ",fail,"))
    assert check.compare(ref, flipped, "", 1, other_seed).failed == 1


def test_each_run_gets_its_own_time_limit(monkeypatch, tmp_path):
    argv = ("kfunc", "--fns", "t2", "--n", "2:2:1")
    _, _, rc, out, _ = run.spawn(["run", "--", *argv, "--seed", "1"], tmp_path, time.perf_counter() + 60)
    assert rc == 0
    (tmp_path / "kfunc.csv").write_text(out, encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": (argv,)})
    monkeypatch.setattr(run, "RUN_LIMIT_S", 10.0)
    time.sleep(run.RUN_LIMIT_S)  # as if a first workload had used its whole limit
    report = run.measure("tiny", 1, 0.0, False, tmp_path)
    assert (report["correct"], report["passes"], report["problems"]) == (True, 1, [])
    assert report["metrics"]["setup_s"]["n"] == run.SETUP_FIRST + run.SETUP_BETWEEN


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
