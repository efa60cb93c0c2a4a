"""Per-layer tracing of the ``epwb`` modules, installed from outside the package.

The tracer wraps the public functions and methods of every module under
``src/epwb`` while one pass runs and restores the originals afterwards, so
the untraced passes run the program exactly as shipped.

Two kinds of wrapper:

* span: module-level functions (pipelines and residual kernels) keep a full
  span in memory: name, start, end, parent span and the id of the check
  that caused it.
* leaf: methods and per-point helpers, which run up to about a million times
  a pass (``Trajectory.sample``, ``BasisCurve.eval``, ``TimeFunction.eval``),
  keep only a call count and self time.

A wrapper's self time is its duration minus the time covered by wrapped
calls made inside it.  Expression-tree nodes (``Expr.eval`` / ``Expr.diff``)
are accounted only at the outermost node reached from outside the
``expressions`` module; nested node calls, and tree walks started inside an
``expressions`` function such as ``TimeFunction.eval``, count as that
function's own time.

``integrate`` is wrapped so that it also counts right-hand-side evaluations
and accepted steps; grid-based kernels also count the points they check.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import statistics
import time

MODULES = (
    "expressions",
    "ode",
    "oscillator",
    "pinney",
    "third_order",
    "symmetry",
    "reduction",
    "central_field",
    "audit",
    "cli",
)

# Peephole tree constructors: called by the thousand while differentiating;
# their cost stays with the expressions function that called them.
_UNWRAPPED = {
    "expressions": {
        "const", "var", "add", "sub", "mul", "div", "power", "neg",
        "sin", "cos", "exp", "log", "sqrt", "canonical",
    },
}

# Module-level functions called once per grid point: counted, no spans.
_LEAF_FUNCTIONS = {
    "ode.as_curve",
    "oscillator.wronskian",
    "pinney.ermakov_invariant",
    "pinney.lewis_invariant",
    "pinney.lorentz_adiabatic",
    "pinney.autonomous_energy",
    "third_order.first_integral",
    "central_field.polar_from_cartesian",
}

# name -> number of points a grid-based kernel checked, from (arguments, result)
_POINTS = {
    "ode.residual": lambda args, result: len(args["grid"]),
    "pinney.ep_residual": lambda args, result: len(args["grid"]),
    "third_order.third_order_residual": lambda args, result: len(args["grid"]),
    "third_order.rho_substitution": lambda args, result: len(args["grid"]),
    "symmetry.symmetry_residual": lambda args, result: len(args["samples"]),
    "reduction.transform_trajectory": lambda args, result: len(result.t),
    "reduction.abel_residual": lambda args, result: len(args["orbit"].T),
    "central_field.radial_ep_residual": lambda args, result: args["n"],
}

# (name, unit, better): the per-layer metrics, in the order they are reported
PER_LAYER = (
    ("expressions.parse_expression.calls", "count", "lower"),
    ("expressions.differentiate.calls", "count", "lower"),
    ("expressions.differentiate.self_s", "s", "lower"),
    ("expressions.TimeFunction.eval.calls", "count", "lower"),
    ("expressions.TimeFunction.eval.us_per_call", "us", "lower"),
    ("expressions.Expr.eval.calls", "count", "lower"),
    ("expressions.Expr.eval.us_per_call", "us", "lower"),
    ("expressions.self_share", "share", "lower"),
    ("ode.integrate.calls", "count", "lower"),
    ("ode.integrate.self_s", "s", "lower"),
    ("ode.integrate.accepted_steps", "count", "lower"),
    ("ode.integrate.rhs_evals", "count", "lower"),
    ("ode.integrate.steps_per_rhs_eval", "ratio", "higher"),
    ("ode.integrate.us_per_step", "us", "lower"),
    ("ode.Trajectory.sample.calls", "count", "lower"),
    ("ode.Trajectory.sample.us_per_call", "us", "lower"),
    ("ode.Trajectory.derivative.calls", "count", "lower"),
    ("ode.residual.us_per_point", "us", "lower"),
    ("ode.self_share", "share", "lower"),
    ("oscillator.basis_with_ics.self_s", "s", "lower"),
    ("oscillator.BasisCurve.eval.calls", "count", "lower"),
    ("oscillator.BasisCurve.eval.us_per_call", "us", "lower"),
    ("oscillator.QuadraticFormCurve.eval.calls", "count", "lower"),
    ("oscillator.self_share", "share", "lower"),
    ("pinney.ep_residual.us_per_point", "us", "lower"),
    ("pinney.SqrtCurve.eval.calls", "count", "lower"),
    ("pinney.ermakov_invariant.calls", "count", "lower"),
    ("pinney.self_share", "share", "lower"),
    ("third_order.third_order_residual.us_per_point", "us", "lower"),
    ("third_order.rho_substitution.us_per_point", "us", "lower"),
    ("third_order.self_share", "share", "lower"),
    ("symmetry.symmetry_residual.us_per_sample", "us", "lower"),
    ("symmetry.compatible_family.self_s", "s", "lower"),
    ("symmetry.structure_constants.self_s", "s", "lower"),
    ("symmetry.lie_bracket.calls", "count", "lower"),
    ("symmetry.self_share", "share", "lower"),
    ("reduction.canonical_chart.self_s", "s", "lower"),
    ("reduction.transform_trajectory.us_per_point", "us", "lower"),
    ("reduction.abel_residual.us_per_point", "us", "lower"),
    ("reduction.self_share", "share", "lower"),
    ("central_field.simulate_polar.self_s", "s", "lower"),
    ("central_field.radial_ep_residual.us_per_point", "us", "lower"),
    ("central_field.self_share", "share", "lower"),
    ("audit.audit_all.self_s", "s", "lower"),
    ("audit.audit_all.total_s", "s", "lower"),
    ("audit.self_share", "share", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.self_share", "share", "lower"),
    ("bench.self_share", "share", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Counts, self times and spans of the wrapped ``epwb`` callables."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters = {"ode.integrate.accepted_steps": 0, "ode.integrate.rhs_evals": 0}
        self.points: dict[str, int] = {}
        self.spans: list = []  # (name, start, end, parent index, check id)
        self.check_id = None
        self._open: list[int] = []  # indices of open spans
        self._child = [0.0]  # child time of each open accounted call
        self._in_expr = [False]
        self._targets = self._collect()

    def reset(self) -> None:
        """Zero every count and drop the spans, keeping the wrappers."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0
        self.points.clear()
        self.spans.clear()
        self._open.clear()
        self._child[:] = [0.0]
        self._in_expr[0] = False

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, name: str, fn, in_expressions: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child, in_expr = self._child, self._in_expr
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = in_expr[0]
            in_expr[0] = in_expressions
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child.pop()
                child[-1] += duration
                in_expr[0] = outer
                stat[0] += 1
                stat[1] += duration - inner
                stat[2] += duration

        return wrapper

    def _node(self, name: str, fn):
        """Expr node method: accounted at the outermost node only."""
        accounted = self._leaf(name, fn, True)
        in_expr = self._in_expr

        def wrapper(*args, **kwargs):
            if in_expr[0]:
                return fn(*args, **kwargs)
            return accounted(*args, **kwargs)

        return wrapper

    def _span(self, name: str, fn, in_expressions: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child, in_expr = self._child, self._in_expr
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter
        points = _POINTS.get(name)
        signature = inspect.signature(fn) if points else None

        def wrapper(*args, **kwargs):
            outer = in_expr[0]
            in_expr[0] = in_expressions
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            child.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                duration = end - start
                inner = child.pop()
                child[-1] += duration
                in_expr[0] = outer
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.check_id)
                stat[0] += 1
                stat[1] += duration - inner
                stat[2] += duration
                if points and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count = points(bound.arguments, result)
                    self.points[name] = self.points.get(name, 0) + count

        return wrapper

    def _counting_integrate(self, integrate):
        counters = self.counters

        def counted(system, *args, **kwargs):
            rhs = system.rhs
            calls = [0]

            def counting_rhs(t, y):
                calls[0] += 1
                return rhs(t, y)

            traj = integrate(dataclasses.replace(system, rhs=counting_rhs), *args, **kwargs)
            traj.rhs = rhs  # later slope evaluations are not integration work
            counters["ode.integrate.rhs_evals"] += calls[0]
            counters["ode.integrate.accepted_steps"] += len(traj.times) - 1
            return traj

        return counted

    # -- installation --------------------------------------------------------

    def _collect(self):
        """(owner, attribute, original, wrapper) for every wrapped callable."""
        package = importlib.import_module("epwb")
        modules = {m: importlib.import_module(f"epwb.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        expr_base = modules["expressions"].Expr
        targets = []
        for short, module in modules.items():
            skip = _UNWRAPPED.get(short, set())
            in_expressions = short == "expressions"
            for attr, obj in vars(module).items():
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    fn = self._counting_integrate(obj) if name == "ode.integrate" else obj
                    if name in _LEAF_FUNCTIONS:
                        wrapper = self._leaf(name, fn, in_expressions)
                    else:
                        wrapper = self._span(name, fn, in_expressions)
                    for ns in namespaces:
                        if getattr(ns, attr, None) is obj:
                            targets.append((ns, attr, obj, wrapper))
                elif inspect.isclass(obj) and obj is not expr_base:
                    targets.extend(self._class_targets(short, obj, expr_base, in_expressions))
        return targets

    def _class_targets(self, short, cls, expr_base, in_expressions):
        is_node = in_expressions and issubclass(cls, expr_base)
        targets = []
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties, constants
            if is_node:
                wrapper = self._node(f"expressions.Expr.{attr}", fn)
            else:
                wrapper = self._leaf(f"{short}.{cls.__name__}.{attr}", fn, in_expressions)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            targets.append((cls, attr, raw, wrapper))
        return targets

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def check(self, check_id: str, fn, state):
        """Run one check inside a check-level span carrying its id."""
        self.check_id = check_id
        try:
            return self._span("bench.check", fn, False)(state)
        finally:
            self.check_id = None

    def snapshot(self, wall_s: float, speed: float) -> dict:
        """Counters and raw times of the pass just traced, and the machine speed."""
        return {
            "wall_s": wall_s,
            "speed": speed,
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
            "points": dict(self.points),
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(snap: dict) -> dict[str, float]:
    """Every PER_LAYER metric but the overhead ratio, from one traced pass.

    Times are scaled to nominal speed; shares are ratios of raw times.
    """
    stats, counters, wall, speed = snap["stats"], snap["counters"], snap["wall_s"], snap["speed"]
    shares = dict.fromkeys(MODULES, 0.0)
    for name, (_, self_s, _) in stats.items():
        module = name.split(".", 1)[0]
        if module in shares:
            shares[module] += self_s
    steps = counters["ode.integrate.accepted_steps"]
    evals = counters["ode.integrate.rhs_evals"]
    values = {}
    for metric, _, _ in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        calls, self_s, total_s = stats.get(head, (0, 0.0, 0.0))
        self_s, total_s = self_s * speed, total_s * speed
        if metric == "trace.overhead_ratio":
            continue
        if stat == "self_share":
            share = shares[head] if head in shares else wall - sum(shares.values())
            values[metric] = max(0.0, share / wall)
        elif metric in counters:
            values[metric] = float(counters[metric])
        elif stat == "steps_per_rhs_eval":
            values[metric] = _ratio(steps, evals)
        elif stat == "us_per_step":
            values[metric] = _ratio(1e6 * self_s, steps)
        elif stat == "calls":
            values[metric] = float(calls)
        elif stat == "self_s":
            values[metric] = self_s
        elif stat == "total_s":
            values[metric] = total_s
        elif stat == "us_per_call":
            values[metric] = _ratio(1e6 * self_s, calls)
        elif stat in ("us_per_point", "us_per_sample"):
            values[metric] = _ratio(1e6 * self_s, snap["points"].get(head, 0))
        else:
            raise KeyError(metric)
    return values


def summarize(snaps: list[dict], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    per_pass = [layer_values(s) for s in snaps]
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric == "trace.overhead_ratio":
            value = statistics.median(traced_walls) / statistics.median(plain_walls)
        elif unit == "count":
            value = per_pass[0][metric]
        else:
            value = statistics.median(v[metric] for v in per_pass)
        out[metric] = {"value": value, "unit": unit}
    return out
