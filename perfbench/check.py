"""Correctness gate: one invocation's output against its stored reference.

The references in ``reference/<command>.csv`` are the outputs of the seed
code at ``REFERENCE_SEED``.  A row is keyed by its leading label columns
(``name, f, n, ell`` or ``f, n``).  Text columns, the verdict ``pass``
column among them, must match exactly; numeric columns must agree within
``RTOL`` relative plus ``ATOL`` absolute.  Numbers inside the ``note``
column (an ``argmax=`` or a ``trials=``) get the same test, the rest of the
note must match exactly.

Only the rows named in ``SEED_ROWS`` depend on ``--seed``: ``norms`` draws
its random ``bernstein_probes`` from it, and ``verify`` its ``phi_identity``
sample points.  For another seed those rows are checked by verdict only and
their numbers must merely be finite.  Every other row is deterministic, so
a fresh seed cannot change it.

An operation is a row or an invocation.  A row fails when it is missing,
unexpected, or disagrees with the reference.  An invocation fails on an
exit code other than the reference's (1 when a reference verdict is
``fail``, else 0), a traceback, a NaN or infinity, or a header that does
not match.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

REFERENCE_SEED = 1
RTOL = 1e-6
ATOL = 1e-12
SEED_ROWS = frozenset({"bernstein_probes", "phi_identity"})

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_HEADER = re.compile(r"# gsops (\S+) config=[0-9a-f]{12} seed=(-?\d+)$")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    max_rel_dev: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def expected_exit(reference: str) -> int:
    """The exit code the reference implies: 1 if a reference verdict is fail."""
    _, rows = _parse(reference)
    return 1 if any(r.get("pass") == "fail" for r in rows) else 0


def compare(reference: str, output: str, stderr: str, returncode: int, seed: int) -> Verdict:
    v = Verdict()
    ref_header, ref_rows = _parse(reference)
    v.attempted = len(ref_rows) + 1

    problem = _invocation_problem(reference, output, stderr, returncode, seed)
    try:
        out_header, out_rows = _parse(output)
    except (csv.Error, ValueError) as exc:
        problem = problem or f"unparsable output: {exc}"
        out_header, out_rows = [], []
    if not problem and out_header != ref_header:
        problem = f"columns {out_header} != {ref_header}"
    if problem:
        v.fail(problem)
        v.failed += len(ref_rows)
        return v

    same_seed = seed == REFERENCE_SEED
    keys = _key_columns(ref_header)
    pending: dict[tuple, list[dict]] = {}
    for row in out_rows:
        pending.setdefault(tuple(row[k] for k in keys), []).append(row)
    for ref in ref_rows:
        key = tuple(ref[k] for k in keys)
        if not pending.get(key):
            v.fail(f"missing row {key}")
            continue
        out = pending[key].pop(0)
        loose = not same_seed and ref.get("name") in SEED_ROWS
        for col in ref_header:
            diff = _field_problem(col, ref, out, loose, v)
            if diff:
                v.fail(f"row {key} column {col}: {diff}")
                break
    extra = [key for key, rows in pending.items() for _ in rows]
    for key in extra:
        v.attempted += 1
        v.fail(f"unexpected row {key}")
    return v


def _invocation_problem(reference, output, stderr, returncode, seed) -> str:
    if "Traceback (most recent call last)" in stderr or "Traceback (most recent call last)" in output:
        return "traceback"
    want = expected_exit(reference)
    if returncode != want:
        return f"exit code {returncode}, expected {want}"
    ref_first = reference.split("\n", 1)[0]
    out_first = output.split("\n", 1)[0]
    if seed == REFERENCE_SEED:
        if out_first != ref_first:
            return f"header {out_first!r} != {ref_first!r}"
    else:
        m, r = _HEADER.match(out_first), _HEADER.match(ref_first)
        if not m or m.group(1) != r.group(1) or int(m.group(2)) != seed:
            return f"header {out_first!r} does not match version {r.group(1)} seed {seed}"
    for token in re.split(r"[,\s]", output):
        if token.lower() in ("nan", "inf", "-inf", "+inf"):
            return "non-finite value in output"
    return ""


def _parse(text: str) -> tuple[list[str], list[dict]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        return [], []
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    rows = []
    for values in reader:
        if len(values) != len(header):
            raise ValueError(f"row of {len(values)} fields under {len(header)} columns")
        rows.append(dict(zip(header, values)))
    return header, rows


def _key_columns(header: list[str]) -> list[str]:
    if "name" in header:
        return [c for c in ("name", "f", "n", "ell") if c in header]
    return ["f", "n"]


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _numbers_close(a: float, b: float, scale: float, atol: float = ATOL) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale) + atol


def _field_problem(col: str, ref: dict, out: dict, loose: bool, v: Verdict) -> str:
    a_text, b_text = ref[col], out[col]
    if col == "note":
        return _note_problem(a_text, b_text)
    a, b = _as_float(a_text), _as_float(b_text)
    if a is None or b is None:
        return "" if a_text == b_text else f"{b_text!r} != {a_text!r}"
    if loose:
        return "" if math.isfinite(b) else f"{b_text} is not finite"
    if a != b:
        v.max_rel_dev = max(v.max_rel_dev, abs(a - b) / max(abs(a), abs(b)))
    # a margin is rhs - lhs: judge it on the scale of the two sides
    scale = 0.0
    if col == "margin":
        sides = [_as_float(ref.get(c, "")) for c in ("lhs", "rhs")]
        scale = max((abs(s) for s in sides if s is not None), default=0.0)
    return "" if _numbers_close(a, b, scale) else f"{b_text} != {a_text}"


def _note_problem(a_text: str, b_text: str) -> str:
    if _NUMBER.sub("#", a_text) != _NUMBER.sub("#", b_text):
        return f"{b_text!r} != {a_text!r}"
    for a, b in zip(_NUMBER.findall(a_text), _NUMBER.findall(b_text)):
        # notes print at most six decimals
        if not _numbers_close(float(a), float(b), 0.0, atol=1.5e-6):
            return f"{b_text!r} != {a_text!r}"
    return ""
