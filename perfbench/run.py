#!/usr/bin/env python3
"""Fresh-process benchmark of the gsops CLI; see README.md in this directory.

    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seed 1

Each workload is a fixed sequence of gsops invocations, each in a fresh
interpreter, run one at a time (a closed loop with one client).  Passes over
the sequence repeat while another pass fits in ``--seconds``; there is always
at least one.  With ``--trace 0`` the run reports the end-to-end metrics,
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Every output is checked against ``reference/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and a ``{"perfbench": ...}`` report that carries the
provenance, quartiles, per-invocation figures and any mismatches.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
WORK = HERE / "_work"

_SANDWICH = ("--fns", "t2,exp,abs52", "--n", "2:2:5", "--ell-mult", "16")
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "sandwich": (("kfunc", *_SANDWICH), ("converse", *_SANDWICH)),
    "rates": (("table", "--n", "16:2:5"), ("voronovskaya", "--n", "16:2:5")),
    "identities": (("verify", "--fns", "one,t,t2,t3,t5mt2", "--n", "16:2:4"), ("norms", "--n", "16:2:4")),
}

#: End-to-end metrics of BENCHMARK.json: name -> unit.  The report adds the
#: wall time of each invocation as <command>_s, and error_rate.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_FIRST = 5  # setup_s probes before the first invocation ...
SETUP_BETWEEN = 3  # ... and after every untraced invocation
#: The probes run with one OpenBLAS thread.  With the default two, the
#: worker thread's start-up spin costs a probe either nothing or about 0.08 s,
#: depending on where the scheduler puts it; the commands keep the default.
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # children still running this long after a run starts are killed


@dataclass
class Invocation:
    command: str
    wall: float
    rss_mb: float
    verdict: check.Verdict
    trace_totals: dict | None = None


def spawn(args: list[str], work: Path, deadline: float,
          env: dict | None = None) -> tuple[float, float, int, str, str]:
    """Run one child to completion, killing it at ``deadline`` (a perf_counter
    time): (wall s, peak RSS MB, exit code, stdout, stderr)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
            env={**os.environ, **env} if env else None,
        )
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_pass(workload: str, seed: int, work: Path, traced: bool, deadline: float, after_each=None) -> list[Invocation]:
    done = []
    for argv in WORKLOADS[workload]:
        command = argv[0]
        gsops_argv = [*argv, "--seed", str(seed)]
        spans = work / f"{command}.spans.json"
        mode = ["trace", str(spans), command] if traced else ["run"]
        wall, rss, rc, out, err = spawn([*mode, "--", *gsops_argv], work, deadline)
        reference = (REFERENCE / f"{command}.csv").read_text(encoding="utf-8")
        verdict = check.compare(reference, out, err, rc, seed)
        totals = None
        if traced and spans.exists():
            totals = tracer.totals(json.loads(spans.read_text(encoding="utf-8")), wall)
            spans.unlink()
        elif traced:
            verdict.fail(f"{command}: no trace written")
        done.append(Invocation(command, wall, rss, verdict, totals))
        if rc < 0:  # killed at the run limit: stop here
            break
        if after_each:
            after_each()
    return done


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One run of one workload; returns the report."""
    report = {"workload": workload, "seed": seed, "trace": int(traced), "seconds": seconds,
              "provenance": provenance(seed)}
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup: list[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            wall, _, rc, _, err = spawn(["setup"], work, deadline, SETUP_ENV)
            if rc < 0 and time.perf_counter() >= deadline:
                return  # killed at the run limit
            if rc != 0:
                raise SystemExit(f"perfbench: setup probe failed (exit {rc}): {err.strip()}")
            setup.append(wall)

    # setup probes are spread over the run, so that they sample the machine
    # as the invocations do
    between = None if traced else (lambda: probe(SETUP_BETWEEN))
    if not traced:
        probe(SETUP_FIRST)

    passes: list[list[Invocation]] = []
    traced_passes: list[list[Invocation]] = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(workload, seed, work, False, deadline, after_each=between))
        if traced:
            traced_passes.append(run_pass(workload, seed, work, True, deadline))
        now = time.perf_counter()
        complete = all(len(p) == len(WORKLOADS[workload]) for p in passes + traced_passes)
        if not complete or (now - t0) + (now - p0) > seconds:
            break

    checked = [inv for p in passes + traced_passes for inv in p]
    attempted = sum(inv.verdict.attempted for inv in checked)
    failed = sum(inv.verdict.failed for inv in checked)
    # a pass cut short by the run limit is missing its later invocations
    missing = sum(len(WORKLOADS[workload]) - len(p) for p in passes + traced_passes)
    attempted += missing
    failed += missing
    max_rel_dev = max(inv.verdict.max_rel_dev for inv in checked)
    report.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "max_rel_dev": max_rel_dev,
        "problems": [f"{inv.command}: {p}" for inv in checked for p in inv.verdict.problems][:20],
        "passes": len(passes),
    })

    commands = [argv[0] for argv in WORKLOADS[workload]]
    full = [p for p in passes if len(p) == len(commands)]
    series: dict[str, list[float]] = {"wall_s": [sum(inv.wall for inv in p) for p in full]}
    for i, command in enumerate(commands):
        series[f"{command}_s"] = [p[i].wall for p in full]
    if setup:
        series["setup_s"] = setup
    series["peak_rss_mb"] = [max(inv.rss_mb for p in passes for inv in p)]
    report["metrics"] = {
        name: {**quartiles(vals), "unit": END_TO_END.get(name, "s")} for name, vals in series.items() if vals
    }
    report["metrics"]["error_rate"] = {**quartiles([failed / attempted]), "unit": "ratio"}

    if traced:
        untraced = statistics.median(series["wall_s"]) if series["wall_s"] else 0.0
        per_pass = []
        for p in traced_passes:
            parts = [inv.trace_totals for inv in p if inv.trace_totals]
            if len(parts) == len(commands):
                per_pass.append(tracer.derive(tracer.add_totals(parts), max_rel_dev, untraced))
        report["layers"] = {
            name: statistics.median(m[name] for m in per_pass) for name in tracer.PER_LAYER
        } if per_pass else {}
        last = traced_passes[-1]
        report["layers_by_invocation"] = {
            inv.command: tracer.derive(
                inv.trace_totals, inv.verdict.max_rel_dev, statistics.median(series[f"{inv.command}_s"])
            )
            for inv in last if inv.trace_totals and series.get(f"{inv.command}_s")
        }
        report["layer_shares"] = {
            inv.command: shares(inv.trace_totals) for inv in last if inv.trace_totals
        }
    return report


def shares(totals: dict) -> dict:
    """Self-time layers and the unattributed remainder as shares of the traced wall."""
    wall = totals["trace.wall_s"]
    names = [*tracer.SELF_LAYERS, "trace.unattributed_s"]
    return {name: totals[name] / wall for name in names}


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {
            name: {"value": report["layers"].get(name, 0.0), "unit": unit}
            for name, (unit, _) in tracer.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": report["metrics"][name]["median"], "unit": unit}
            for name, unit in END_TO_END.items() if name in report["metrics"]
        }
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def summary(report: dict) -> list[str]:
    lines = [
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"passes={report['passes']} correct={report['correct']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"error_rate={report['error_rate']:.6g} max_rel_dev={report['max_rel_dev']:.3g}"
    ]
    for name, m in report["metrics"].items():
        lines.append(
            f"  {name:<16} {m['median']:>12.6g} {m['unit']:<6} "
            f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
        )
    for command, share in report.get("layer_shares", {}).items():
        top = sorted(share.items(), key=lambda kv: -kv[1])
        lines.append(f"  {command} layers: " + ", ".join(f"{k} {v:.1%}" for k, v in top if v >= 0.005))
    for problem in report["problems"]:
        lines.append(f"  MISMATCH {problem}")
    return lines


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": len(os.sched_getaffinity(0)),
        **_lscpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas(np),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "loadavg": os.getloadavg(),
        "calib_ms": _calibrate(),
    }


def _lscpu() -> dict:
    wanted = {"Model name": "cpu", "L2 cache": "l2", "L3 cache": "l3"}
    found = {v: None for v in wanted.values()}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return found
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in wanted:
            found[wanted[key.strip()]] = value.strip()
    return found


_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas(np) -> dict:
    """BLAS name and the thread count it runs with (left at its default)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    return {"blas": name, "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _calibrate() -> float:
    """Median ms of a fixed pure-Python loop: tells a slower machine from slower code."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(300_000))
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gsops" / "cli.py").is_file():
        print(f"perfbench: no gsops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    missing = [a[0] for seq in WORKLOADS.values() for a in seq if not (REFERENCE / f"{a[0]}.csv").is_file()]
    if missing:
        print(f"perfbench: no reference output for {', '.join(missing)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            report = measure(name, args.seed, args.seconds, bool(args.trace), work)
            print("\n".join(summary(report)))
            print(json.dumps({"perfbench": report}, sort_keys=True))
            results.append((name, result_line(report)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
