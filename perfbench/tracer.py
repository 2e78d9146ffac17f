"""Outside-in tracer for one gsops CLI invocation.

Wraps, after ``gsops.cli`` is imported, every public function of each gsops
module (the callables named in the module's ``__all__`` and defined there) in
every gsops module namespace that bound it, so that ``from .x import f``
copies are wrapped too.  ``functools.lru_cache`` objects are wrapped from
outside, so their caching stays and ``cache_info()`` still reads the
original cache.  ``BernsteinForm.eval``, ``FunctionSpec.eval`` and
``FunctionSpec.derivative`` are patched on their classes.  Nothing under
``src/`` changes.  A hook that the program no longer has raises in
:meth:`Tracer.install`, so the traced invocation fails instead of reporting
zeros.

Every wrapped call records a span ``[name_id, start, end, parent_index]``.
A few boundaries also keep counters (points evaluated, quadrature nodes,
cache misses, repeated operator applications).  Spans and counters stay in
memory and are written out as one JSON file by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

#: Modules whose ``__all__`` functions are wrapped; ``gsops.cli`` has no
#: ``__all__`` but holds from-imported copies, which are replaced too.
MODULES = ("basis", "exactpoly", "quadrature", "catalog", "operators", "analysis")

# apply_* calls keyed by (function, f, n, times, tol) for operators.apply.repeat_frac
_APPLY = ("apply_U", "apply_Utilde", "iterate_Utilde")


class Tracer:
    def __init__(self, invocation: str) -> None:
        self.invocation = invocation
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.apply_seen: set = set()
        self.quad_sweeps: list[list[int]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` returns a token for
        ``after(token, error, start, end)``, which runs when the call ends
        (``error`` is the exception it raised, or None)."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if after:
                    after(token, error, rec[1], rec[2])

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every gsops module (import gsops.cli first)."""
        mods = {name: sys.modules[f"gsops.{name}"] for name in MODULES}
        namespaces = [sys.modules["gsops"], *mods.values(), sys.modules["gsops.cli"]]
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if _is_function(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap_public(short, attr, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and _is_function(obj):
                    setattr(ns, attr, wrappers[id(obj)])

        analysis = mods["analysis"]
        analysis._abs_values = self._counting(analysis._abs_values, "analysis.sup_norm.evals")
        form = mods["operators"].BernsteinForm
        form.eval = self.wrap("operators.eval", form.eval, before=self._eval_before)
        spec = mods["catalog"].FunctionSpec
        spec.eval = self.wrap("catalog.eval", spec.eval)
        spec.derivative = self.wrap("catalog.derivative", spec.derivative)

    def _wrap_public(self, module: str, attr: str, fn):
        name = f"{module}.{attr}"
        sig = inspect.signature(fn)

        def arguments(args, kwargs) -> dict:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if attr in _APPLY:
            return self.wrap(name, fn, before=lambda a, k: self._apply_before(attr, arguments(a, k)))
        if attr == "u_coefficient_matrix":
            info = fn.cache_info
            return self.wrap(
                name, fn,
                before=lambda a, k: info().misses,
                after=lambda m0, error, t0, t1: self._matrix_after(info().misses - m0, t1 - t0),
            )
        if attr == "u_coefficients_numeric":
            return self.wrap(name, fn, before=self._quad_before, after=self._quad_after)
        if attr == "bernstein_matrix":
            return self.wrap(name, fn, before=lambda a, k: self._basis_before(arguments(a, k)))
        return self.wrap(name, fn)

    def _counting(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- counters at the boundaries ------------------------------------------

    def _eval_before(self, args, kwargs):
        form, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
        points = getattr(x, "size", 1)
        if points == 1:
            self.count("operators.eval.point_calls")
        self.count("operators.eval.flops", 3 * points * form.n * (form.n + 1) // 2)

    def _apply_before(self, attr: str, a: dict) -> None:
        key = (attr, getattr(a.get("f"), "name", None), a.get("n"), a.get("times", 1), a.get("tol"))
        self.count("operators.apply.calls")
        if key in self.apply_seen:
            self.count("operators.apply.repeats")
        self.apply_seen.add(key)

    def _matrix_after(self, missed: int, seconds: float) -> None:
        if missed:
            self.count("operators.u_coefficient_matrix.misses", missed)
            self.count("operators.u_coefficient_matrix.build_s", seconds)

    def _basis_before(self, a: dict) -> None:
        n, xs = a.get("n", 0), a.get("xs", ())
        points = xs.size if hasattr(xs, "size") else len(xs) if hasattr(xs, "__len__") else 1
        self.count("basis.bernstein_matrix.entries", points * (n + 1))
        if self.quad_sweeps:
            self.quad_sweeps[-1].append(points)

    def _quad_before(self, args, kwargs):
        self.quad_sweeps.append([])

    def _quad_after(self, token, error, t0, t1) -> None:
        sweeps = self.quad_sweeps.pop()
        self.count("quadrature.nodes", sum(sweeps))
        if error is None and sweeps:
            self.count("quadrature.accepted_nodes", sweeps[-1])
        if type(error).__name__ == "ToleranceError":
            self.count("quadrature.tolerance_errors")

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        doc = {
            "invocation": self.invocation,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


# ---------------------------------------------------------------------------
# Aggregation, done by run.py from the dumped file
# ---------------------------------------------------------------------------

#: Self-time layers.  Together with trace.unattributed_s they partition the
#: traced wall time of an invocation.
SELF_LAYERS = {
    "operators.eval.self_s": lambda name: name == "operators.eval",
    "operators.rest.self_s": lambda name: name.startswith("operators.") and name != "operators.eval",
    "analysis.sup_norm.self_s": lambda name: name == "analysis.sup_norm",
    "analysis.checks_self_s": lambda name: name.startswith("analysis.") and name != "analysis.sup_norm",
    "basis.self_s": lambda name: name.startswith("basis."),
    "exactpoly.self_s": lambda name: name.startswith("exactpoly."),
    "quadrature.self_s": lambda name: name.startswith("quadrature."),
    "catalog.eval.self_s": lambda name: name.startswith("catalog."),
    "cli.self_s": lambda name: name.startswith("cli."),
}

#: Per-layer metrics in output order: name -> (unit, better).
PER_LAYER = {
    "operators.eval.calls": ("count", "lower"),
    "operators.eval.point_calls": ("count", "lower"),
    "operators.eval.flops": ("flop", "lower"),
    "operators.eval.self_s": ("s", "lower"),
    "operators.rest.self_s": ("s", "lower"),
    "operators.apply.calls": ("count", "lower"),
    "operators.apply.repeat_frac": ("ratio", "lower"),
    "operators.u_coefficient_matrix.misses": ("count", "lower"),
    "operators.u_coefficient_matrix.build_s": ("s", "lower"),
    "analysis.sup_norm.calls": ("count", "lower"),
    "analysis.sup_norm.self_s": ("s", "lower"),
    "analysis.sup_norm.evals_per_call": ("count", "lower"),
    "analysis.checks_self_s": ("s", "lower"),
    "exactpoly.self_s": ("s", "lower"),
    "exactpoly.commute_check_exact.incl_s": ("s", "lower"),
    "exactpoly.telescope_check_exact.incl_s": ("s", "lower"),
    "exactpoly.u_coefficients_exact.calls": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.u_coefficients_numeric.calls": ("count", "lower"),
    "quadrature.u_coefficients_numeric.incl_s": ("s", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "quadrature.accepted_node_ratio": ("ratio", "higher"),
    "quadrature.tolerance_errors": ("count", "lower"),
    "basis.self_s": ("s", "lower"),
    "basis.bernstein_matrix.calls": ("count", "lower"),
    "basis.bernstein_matrix.self_s": ("s", "lower"),
    "basis.bernstein_matrix.entries": ("count", "lower"),
    "catalog.eval.calls": ("count", "lower"),
    "catalog.eval.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.max_rel_dev": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_COUNTERS = (
    "operators.eval.point_calls",
    "operators.eval.flops",
    "operators.apply.calls",
    "operators.apply.repeats",
    "operators.u_coefficient_matrix.misses",
    "operators.u_coefficient_matrix.build_s",
    "analysis.sup_norm.evals",
    "quadrature.nodes",
    "quadrature.accepted_nodes",
    "quadrature.tolerance_errors",
    "basis.bernstein_matrix.entries",
)


def totals(doc: dict, wall: float) -> dict:
    """Additive per-invocation quantities from one dumped trace and its wall time."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    roots = 0.0
    nested_catalog = 0
    for i, (nid, t0, t1, parent) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
        if parent < 0:
            roots += t1 - t0
        elif name.startswith("catalog.") and names[spans[parent][0]].startswith("catalog."):
            nested_catalog += 1

    out = {key: doc["counters"].get(key, 0) for key in _COUNTERS}
    for layer, member in SELF_LAYERS.items():
        out[layer] = sum(s for name, s in self_s.items() if member(name))
    out.update({
        "operators.eval.calls": calls.get("operators.eval", 0),
        "analysis.sup_norm.calls": calls.get("analysis.sup_norm", 0),
        "exactpoly.commute_check_exact.incl_s": incl.get("exactpoly.commute_check_exact", 0.0),
        "exactpoly.telescope_check_exact.incl_s": incl.get("exactpoly.telescope_check_exact", 0.0),
        "exactpoly.u_coefficients_exact.calls": calls.get("exactpoly.u_coefficients_exact", 0),
        "quadrature.u_coefficients_numeric.calls": calls.get("quadrature.u_coefficients_numeric", 0),
        "quadrature.u_coefficients_numeric.incl_s": incl.get("quadrature.u_coefficients_numeric", 0.0),
        "basis.bernstein_matrix.calls": calls.get("basis.bernstein_matrix", 0),
        "basis.bernstein_matrix.self_s": self_s.get("basis.bernstein_matrix", 0.0),
        "catalog.eval.calls": calls.get("catalog.eval", 0) + calls.get("catalog.derivative", 0) - nested_catalog,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - roots,
    })
    return out


def add_totals(parts: list[dict]) -> dict:
    return {key: sum(p[key] for p in parts) for key in parts[0]}


def derive(total: dict, max_rel_dev: float, untraced_wall: float) -> dict:
    """The PER_LAYER metrics from summed totals."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = dict(total)
    m["operators.apply.repeat_frac"] = ratio(total["operators.apply.repeats"], total["operators.apply.calls"])
    m["analysis.sup_norm.evals_per_call"] = ratio(total["analysis.sup_norm.evals"], total["analysis.sup_norm.calls"])
    m["quadrature.accepted_node_ratio"] = ratio(total["quadrature.accepted_nodes"], total["quadrature.nodes"])
    m["cli.max_rel_dev"] = max_rel_dev
    m["trace.overhead_frac"] = ratio(total["trace.wall_s"], untraced_wall) - 1.0
    return {name: m[name] for name in PER_LAYER}
