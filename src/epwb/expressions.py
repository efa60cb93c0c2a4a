"""Tiny expression language over scalar functions, with exact derivatives.

Grammar (infix, whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom (('^' | '**') factor)?      right-associative exponent
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

so precedence is pow > unary minus > mul/div > add/sub.  Recognized
identifiers are the variable names passed to ``parse_expression`` (``t`` by
default) and the functions sin, cos, exp, log, sqrt.  The parser scans the
text once and parses its tokens in one operator-precedence loop over an
operand stack and an operator stack, without recursion: a parenthesis
costs a push and a pop and no tree level.  No walk of a tree below
recurses either: ``differentiate``, ``evaluate`` and ``scalar_kernel``
each loop over one post-order of the distinct nodes under a root, and
``canonical`` over a stack of its own.  So no tree is too deep, a
derivative, deeper than its tree, included: an expression's limit is the
size of its text, not its depth.  Everything evaluates in float64.
Evaluation at a point where a subexpression is undefined (log of a
non-positive value, division by zero, sqrt of a negative value,
fractional power of a non-positive base, zero to a negative power, sin or
cos of a non-finite value, overflow) raises DomainError instead of
producing a silent NaN or inf.

Trees are DAGs: one node may be the child of many.  Nodes are weakly
interned: every way of building one (the parser, the smart constructors,
the operators, copy and pickle) returns the live node of that structure if
there is one, so structurally equal trees are one object and structural
equality is identity.  The intern table is a plain dict from a node's
structure to an entry: a weak reference to the node that carries the
node's key.  Every entry shares one callback, which removes the entry when
its node goes, so the table holds no node alive and no node costs a
callback object of its own.  A new node's fields are written through its
slots' descriptors, at about half the cost of ``object.__setattr__``.

Each operation's domain rule is stated once, in ``_RULES``: its value and
the conditions under which it is defined, each with the ``_MESSAGES`` key
it raises.  Both evaluators render that table.

``evaluate(exprs, env, positive=())`` is the evaluator: it computes one
tree or a sequence of trees on whole NumPy arrays (or at one point) in one
interpreted post-order walk, one function per operation (compiled from
the table once, at import) and so one NumPy operation per distinct node:
an error at any point raises, so it never returns NaN or inf.  It refuses
a non-finite input, so every operand in the walk is finite, and it leaves
the rules to NumPy's IEEE 754 exception flags, set to raise, save those
IEEE does not signal (``_SILENT``), which stay masks; a node that raised
a flag runs again with its whole rule as masks, which choose the message,
naming the first bad point.  It reads each curve leaf's curve once per
call, at the highest order it meets first, and takes lower orders from
that jet's rows.  ``fail_first`` names a bad point the same way for
checks made outside a tree.

``scalar_kernel(exprs, variables)`` serves the two hot single-point
callers, an ODE system's ``rhs`` and ``PointSymmetry.components``, where
one array call would cost more than the arithmetic: it compiles trees
into a generated straight-line Python function over floats, with one
local per distinct node in the post-order of a tree walk, so a DAG
costs its distinct nodes, not its paths.  Names,
constants and curves reach a kernel through its namespace, never through
its source, so the compiled code of a source is reused by every tree of
that shape.  A kernel checks only what float arithmetic does not signal
and then tests one sum of its results and watched operands for
finiteness.  When an operation raises or that sum is not finite, it
returns what ``evaluate`` gives on the one point, which raises if a rule
fails there; so a kernel fails by the same rule at the same node as
``evaluate``, with the same message (a non-finite input or constant named
as such), by construction.  Its values agree with ``evaluate``'s up to
the last bit, where libm's exp, log, sin and cos may differ from NumPy's
(``math.exp(1.20703125)`` is one bit above ``np.exp``'s).
``kernel_parts`` is the same walk without the assembly: the kernel's text
(body lines, result locals, watched sum) and its namespace, from which
the integrator emits the bare body into each stage of a step.

``differentiate`` is purely structural and memoised per call (or per
``TimeFunction``, across its orders and any functions built over the same
memo), never on the nodes: a subtree shared by several parents is
differentiated once and its derivative is shared in the result.  Each node
carries the set of variables it depends on, built with it from its
children's, so a subtree free of the variable is zero at once, never
walked.  Results are routed through light peephole constructors
(constant folding, 0/1 identities) so repeated differentiation stays
tractable; a constant node is folded to what ``evaluate`` gives it, so
folding can only shrink the set of points where evaluation raises, never
change a defined value.

The canonical printed form is fully parenthesized infix, e.g.
``((2)*(cos((2)*(t))))``, and ``parse_expression`` of a canonical print
of a tree without curve leaves reproduces a pointwise-equal expression.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import NamedTuple

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class DomainError(ValueError):
    """Evaluation hit a point where the expression is undefined."""


class ExprSyntaxError(ValueError):
    """Malformed expression text. ``offset`` is a byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class Expr:
    """Base node. Subclasses implement _diff; evaluate and scalar_kernel evaluate them.

    Nodes are interned and immutable: each subclass's ``__new__`` returns the
    live node of that structure if there is one, so equal trees are one
    object and ``==`` and ``hash`` are those of identity.

    ``vars`` is the frozenset of the variable names the node depends on (a
    curve leaf depends on "t"), computed from the children when the node is
    built.  It is structure, like ``op``: it holds no node, and it is not a
    field of ``__new__``, which each subclass lists in its own ``__slots__``.
    """

    __slots__ = ("__weakref__", "vars")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle get the tree as a flat post-order, children by
        # index, and rebuild it in one loop through the interning
        # constructors, so they get the interned node, at any depth
        index, entries = {}, []
        for node in _post_order(self, index):
            index[node] = len(entries)
            cls = type(node)
            if cls is Binary:
                entries.append((cls, node.op, index[node.left], index[node.right]))
            elif cls is Unary:
                entries.append((cls, node.op, index[node.arg]))
            else:  # a leaf: a curve leaf's curve is copied as any other object
                entries.append((cls, *(getattr(node, name) for name in cls.__slots__)))
        return _rebuilt, (entries,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {canonical(self)}>"

    def _diff(self, var: str, d) -> "Expr":
        """Derivative by ``var``; ``d`` gives a child's derivative, taken before its parent's."""
        raise NotImplementedError

    def __str__(self) -> str:
        return canonical(self)

    # Operator sugar so other modules can assemble trees readably.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return power(self, _coerce(other))

    def __neg__(self):
        return neg(self)


# Every live node, by its structure (class, op, children by identity and
# leaf data), as an _Entry: a weak reference to the node that carries the
# node's key, so the table holds no node alive.  Every entry has the one
# callback _dropped, which removes the entry when its node goes, unless a
# newer node has taken the key by then.  The constructors and _dropped look
# the table up by its global name on every call.  Two threads racing on one
# key can only leave two equal nodes, which costs sharing, never a value.
_NODES = {}


class _Entry(weakref.ref):
    """The intern table's weak reference to a node, with the node's key."""

    __slots__ = ("key",)


def _dropped(entry):
    if _NODES.get(entry.key) is entry:
        _NODES.pop(entry.key, None)


def _interned(key, cls, free, *fields):
    """The live node under ``key``, or a new ``cls`` node of ``fields`` and ``vars`` ``free``.

    Const, Unary and Binary, the nodes built most often, take the same
    steps inline; Var and CurveVal come here.
    """
    entry = _NODES.get(key)
    node = None if entry is None else entry()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            getattr(cls, name).__set__(node, value)
        _set_vars(node, free)
        entry = _Entry(node, _dropped)
        _set_key(entry, key)
        _NODES[key] = entry
    return node


_NO_VARS = frozenset()


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)
        # 0.0 == -0.0, so the key keeps the sign apart
        key = (cls, value, math.copysign(1.0, value))
        entry = _NODES.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_value(node, value)
            _set_vars(node, _NO_VARS)
            entry = _Entry(node, _dropped)
            _set_key(entry, key)
            _NODES[key] = entry
        return node

    def _diff(self, var, d):
        return _ZERO


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _interned((cls, name), cls, frozenset((name,)), name)

    def _diff(self, var, d):
        return _ONE if self.name == var else _ZERO


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __new__(cls, op, arg):
        key = (cls, op, arg)
        entry = _NODES.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_unary_op(node, op)
            _set_arg(node, arg)
            _set_vars(node, arg.vars)
            entry = _Entry(node, _dropped)
            _set_key(entry, key)
            _NODES[key] = entry
        return node

    def _diff(self, var, d):
        u, du = self.arg, d(self.arg)
        if self.op == "neg":
            return neg(du)
        if self.op == "sin":
            return mul(cos(u), du)
        if self.op == "cos":
            return neg(mul(sin(u), du))
        if self.op == "exp":
            return mul(exp(u), du)
        if self.op == "log":
            return div(du, u)
        if self.op == "sqrt":
            return div(du, mul(Const(2.0), sqrt(u)))
        raise AssertionError(f"bad unary op {self.op!r}")


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op, left, right):
        key = (cls, op, left, right)
        entry = _NODES.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            _set_binary_op(node, op)
            _set_left(node, left)
            _set_right(node, right)
            # a child's own set wherever it holds the other's, so few sets are built
            lv, rv = left.vars, right.vars
            _set_vars(node, lv if lv is rv or rv <= lv else rv if lv <= rv else lv | rv)
            entry = _Entry(node, _dropped)
            _set_key(entry, key)
            _NODES[key] = entry
        return node

    def _diff(self, var, d):
        a, b = self.left, self.right
        da, db = d(a), d(b)
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, b), mul(a, db))
        if self.op == "/":
            return div(sub(mul(da, b), mul(a, db)), mul(b, b))
        if self.op == "^":
            if isinstance(b, Const):
                # power rule; valid wherever the original is differentiable
                return mul(mul(b, power(a, Const(b.value - 1.0))), da)
            # general a^b = exp(b log a), requires a > 0 anyway
            return mul(self, add(mul(db, log(a)), div(mul(b, da), a)))
        raise AssertionError(f"bad binary op {self.op!r}")


class CurveVal(Expr):
    """Leaf wrapping a curve c(t) with ``jet(ts, k)``; evaluates c's derivative of ``order``.

    Lets symmetry coefficient fields be built over computed solutions (basis
    trajectories) while keeping structural differentiation exact.  Not part of
    the parse grammar and excluded from print/parse round trips.
    """

    __slots__ = ("curve", "order", "label")

    def __new__(cls, curve, order=0, label="curve"):
        # the node holds its curve, so the curve's id is not reused while the entry lives
        return _interned((cls, id(curve), order, label), cls, _T.vars, curve, order, label)

    def _diff(self, var, d):
        if var == "t":
            return CurveVal(self.curve, self.order + 1, self.label)
        return _ZERO


# Each field is written through its slot's descriptor, which bypasses the
# nodes' refusing __setattr__ at about half the cost of object.__setattr__.
_set_vars, _set_key, _set_value = Expr.vars.__set__, _Entry.key.__set__, Const.value.__set__
_set_unary_op, _set_arg = Unary.op.__set__, Unary.arg.__set__
_set_binary_op, _set_left, _set_right = Binary.op.__set__, Binary.left.__set__, Binary.right.__set__

# built once: t for curve leaves, the constants the smart constructors fold
# by.  They live as long as the module, so every Const(0.0), Const(-0.0)
# and Const(1.0) is one of them and a constructor tests for them by identity.
_T, _ZERO, _NEG_ZERO, _ONE = Var("t"), Const(0.0), Const(-0.0), Const(1.0)


# ---------------------------------------------------------------------------
# peephole smart constructors (used by diff and by programmatic tree building)

def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(v)


def const(v: float) -> Const:
    return Const(v)


def var(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and type(b) is Const:
        r = a.value + b.value
        if math.isfinite(r):
            return Const(r)
    if a is _ZERO or a is _NEG_ZERO:
        return b
    if b is _ZERO or b is _NEG_ZERO:
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and type(b) is Const:
        r = a.value - b.value
        if math.isfinite(r):
            return Const(r)
    if b is _ZERO or b is _NEG_ZERO:
        return a
    if a is _ZERO or a is _NEG_ZERO:
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and type(b) is Const:
        r = a.value * b.value
        if math.isfinite(r):
            return Const(r)
    if a is _ZERO or a is _NEG_ZERO or b is _ZERO or b is _NEG_ZERO:
        return _ZERO
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and type(b) is Const and b.value != 0.0:
        r = a.value / b.value
        if math.isfinite(r):
            return Const(r)
    if b is _ONE:
        return a
    if a is _ZERO or a is _NEG_ZERO:
        return _ZERO
    return Binary("/", a, b)


def power(a: Expr, b: Expr) -> Expr:
    if b is _ONE:
        return a
    if b is _ZERO or b is _NEG_ZERO:
        return _ONE
    if type(a) is Const and type(b) is Const:
        return _folded(Binary("^", a, b))
    return Binary("^", a, b)


def neg(e: Expr) -> Expr:
    if type(e) is Const:
        return Const(-e.value)
    if type(e) is Unary and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def _fold_unary(op: str, e: Expr) -> Expr:
    if type(e) is Const:
        return _folded(Unary(op, e))
    return Unary(op, e)


def _folded(node: Expr) -> Expr:
    """``node`` of constants as its value, or as itself where it is undefined."""
    try:
        return Const(evaluate(node, {}))
    except DomainError:
        return node


def sin(e: Expr) -> Expr:
    return _fold_unary("sin", e)


def cos(e: Expr) -> Expr:
    return _fold_unary("cos", e)


def exp(e: Expr) -> Expr:
    return _fold_unary("exp", e)


def log(e: Expr) -> Expr:
    return _fold_unary("log", e)


def sqrt(e: Expr) -> Expr:
    return _fold_unary("sqrt", e)


def _post_order(root, known, variable=None):
    """Each distinct node under ``root`` that ``known`` lacks, children first, left child first.

    The caller puts each node it takes into ``known`` before it takes the
    next, so no node comes twice.  With ``variable``, a node free of it is
    skipped, subtree and all, and a curve leaf's t is no child.  A node met
    goes back on the explicit stack under a None, its children above, and
    comes out with the None, so a tree of any depth is walked.
    """
    if not isinstance(root, Expr):
        raise TypeError(f"not an expression node: {root!r}")
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            yield stack.pop()
        elif (variable is None or variable in node.vars) and node not in known:
            cls = type(node)
            if cls is Binary:
                stack += (node, None, node.right, node.left)
            elif cls is Unary:
                stack += (node, None, node.arg)
            elif cls is CurveVal and variable is None:
                stack += (node, None, _T)
            else:
                yield node


def _rebuilt(entries) -> Expr:
    """The root of the flat post-order that ``Expr.__reduce__`` hands over."""
    nodes = []
    for cls, *fields in entries:
        if cls is Binary or cls is Unary:
            fields[1:] = [nodes[i] for i in fields[1:]]
        nodes.append(cls(*fields))
    return nodes[-1]


def differentiate(e: Expr, variable: str = "t", memo: dict | None = None) -> Expr:
    """Exact structural derivative of ``e`` with respect to ``variable``.

    A node whose ``vars`` lacks ``variable`` is zero at once: its subtree
    is neither walked nor looked up.  Each other distinct node is
    differentiated once, after its children, so a subtree shared by several
    parents gets one shared derivative.  Calls by the same ``variable`` may
    share a ``memo`` to reuse each other's work.  No derivative is cached on
    the nodes: the derivative of exp(u) contains exp(u), so a cache there
    would form a reference cycle.
    """
    memo = {} if memo is None else memo
    d = lambda node: memo[node] if variable in node.vars else _ZERO
    for node in _post_order(e, memo, variable):
        memo[node] = node._diff(variable, d)
    return d(e)


# ---------------------------------------------------------------------------
# domain rules, and the two evaluators that render them

_MESSAGES = {
    "SIN": "sin of non-finite value {!r}",
    "COS": "cos of non-finite value {!r}",
    "EXP": "exp overflow at argument {!r}",
    "LOG": "log of non-positive value {!r}",
    "SQRT": "sqrt of negative value {!r}",
    "DIV": "division by zero",
    "FRAC": "fractional power of non-positive base {!r}",
    "ZERONEG": "zero raised to a negative power",
    "UNBOUND": "no value bound for variable {!r}",
    "POSITIVE": "outside the domain {} > 0 (value {!r})",
    "NONFINITE": "non-finite value {!r} in {}",
    "OVER_ADD": "overflow in '+' of {!r} and {!r}",
    "OVER_SUB": "overflow in '-' of {!r} and {!r}",
    "OVER_MUL": "overflow in '*' of {!r} and {!r}",
    "OVER_DIV": "overflow in '/' of {!r} and {!r}",
    "OVER_POW": "overflow in '^' of {!r} and {!r}",
}

# Each operation's value as the local {r} of its operands {a} and {b}, then
# the conditions under which it is defined, in the order they are checked,
# each with the _MESSAGES key it raises and the operands its message shows.
# A condition on {r} is checked after the value, the others before it.  The
# functions named are math's in a scalar kernel and NumPy's in evaluate, so
# one text holds for floats and for arrays.
_RULES = {
    "neg": ("-{a}",),
    "sin": ("sin({a})", ("isfinite({a})", "SIN", "{a}")),
    "cos": ("cos({a})", ("isfinite({a})", "COS", "{a}")),
    "exp": ("exp({a})", ("isfinite({r})", "EXP", "{a}")),
    "log": ("log({a})", ("{a} > 0.0", "LOG", "{a}")),
    "sqrt": ("sqrt({a})", ("{a} >= 0.0", "SQRT", "{a}")),
    "+": ("{a} + {b}", ("isfinite({r})", "OVER_ADD", "{a}, {b}")),
    "-": ("{a} - {b}", ("isfinite({r})", "OVER_SUB", "{a}, {b}")),
    "*": ("{a} * {b}", ("isfinite({r})", "OVER_MUL", "{a}, {b}")),
    "/": ("{a} / {b}", ("{b} != 0.0", "DIV", ""), ("isfinite({r})", "OVER_DIV", "{a}, {b}")),
    "^": (
        "pow({a}, {b})",
        ("({a} > 0.0) | ({b} % 1.0 == 0.0)", "FRAC", "{a}"),
        ("({a} != 0.0) | ({b} >= 0.0)", "ZERONEG", ""),
        ("isfinite({r})", "OVER_POW", "{a}, {b}"),
    ),
    # not operations: a domain tree {a} printed as {b}, and (on grids) an input {a} named {b}
    "positive": ("{a}", ("{a} > 0.0", "POSITIVE", "{b}, {a}")),
    "finite": ("{a}", ("isfinite({a})", "NONFINITE", "{a}, {b}")),
}
_FUNCTIONS = ("isfinite", "sin", "cos", "exp", "log", "sqrt")


def _fail(message: str, *values):
    raise DomainError(message.format(*values)) from None


def _first(bad, *values) -> list:
    """Each of ``values`` (an array, a scalar or a label) at the first point where ``bad`` holds."""
    return [np.broadcast_to(v, np.shape(bad))[bad][0].item() for v in values]


def fail_first(bad, message: str, *values) -> None:
    """Raise DomainError of ``message`` formatted with ``values`` at the first point where ``bad`` holds.

    Returns if ``bad`` holds nowhere.  Each value is an array over the
    grid, a scalar or a label, so a message names the first bad point the
    way ``evaluate`` does.
    """
    if bad.any():
        _fail(message, *_first(bad, *values))


def _rendered(op: str, check, keys=None) -> tuple[str, ...]:
    """Template lines of an ``op`` node: ``check`` of each condition around its value.

    With ``keys``, only the conditions whose message key is in it are checked.
    """
    value, *conditions = _RULES[op]
    conditions = [c for c in conditions if keys is None or c[1] in keys]
    lines = [line for c in conditions if "{r}" not in c[0] for line in check(*c)]
    lines.append("{r} = " + value)
    lines += [line for c in conditions if "{r}" in c[0] for line in check(*c)]
    return tuple(lines)


def _scalar_check(cond: str, key: str, args: str):
    # over floats each side of | is a bool, so "or" means the same and stops early
    return (f"if not ({cond.replace(' | ', ' or ')}): fail({key}{args and ', ' + args})",)


def _grid_check(cond: str, key: str, args: str):
    return (f"ok = {cond}", f"if not ok.all(): fail({key}, *first(~ok, {args}))")


# The conditions that IEEE 754 arithmetic does not signal.  Given finite
# operands, every other condition fails exactly where its operation raises
# NumPy's overflow, invalid or divide-by-zero flag, and where the float
# operation raises or gives inf or NaN: a non-finite result of finite
# operands always does.  Zero to a positive fractional power is 0 with no
# flag, and the checks of a positive tree and of an input are no arithmetic.
_SILENT = frozenset({"FRAC", "POSITIVE", "NONFINITE"})

# Template lines of each operation in a kernel, which checks only the
# conditions in ``_SILENT``.
_SCALAR_LINES = {op: _rendered(op, _scalar_check, keys=_SILENT) for op in _RULES}
_SCALAR_LINES["curve"] = ("{r} = float({c}.jet([{t}], {k})[{k}, 0])",)
_SCALAR_LINES["unbound"] = ("{r} = fail(UNBOUND, {name})",)
# A domain tree's value feeds no result, so a kernel states its check alone.
_SCALAR_LINES["positive"] = _scalar_check(*_RULES["positive"][1])
# The operands that float arithmetic can turn from inf or NaN into a finite
# value without raising (exp(-inf), x/inf, 0.5^inf, inf^-1, 1^nan, nan^0):
# a kernel watches them, and each domain tree.
_WATCHED = {"exp": "a", "/": "b", "^": "ab"}

_KERNEL_GLOBALS = {
    "__builtins__": {},
    "float": float,
    "SIGNALLED": (ArithmeticError, ValueError),
    **{name: getattr(math, name) for name in _FUNCTIONS},
    "pow": math.pow,
    "fail": _fail,
    **_MESSAGES,
}


_FLAGS = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}


def _grid_function(op: str):
    """``op`` over arrays, as the pair of functions (flagged, checked), compiled together.

    ``checked`` states the rule with each condition a mask that must hold
    everywhere.  ``flagged`` computes the value and checks as masks only the
    conditions in ``_SILENT``; run under ``np.errstate(**_FLAGS)``, NumPy
    raises FloatingPointError wherever another condition would fail.  A
    rule lists its silent conditions first, so a mask that fails in
    ``flagged`` is also the first to fail in ``checked``.
    """
    conditions = [c[1] in _SILENT for c in _RULES[op][1:]]
    assert conditions == sorted(conditions, reverse=True), f"{op}: silent conditions must come first"
    source = ""
    for name, keys in (("flagged", _SILENT), ("checked", None)):
        lines = (*_rendered(op, _grid_check, keys=keys), "return r")
        body = "".join(f"    {line.format(r='r', a='a', b='b')}\n" for line in lines)
        source += f"def {name}(a, b=None):\n{body}"
    # NumPy imports lazily through the builtins of its caller's frame, so
    # this namespace keeps the interpreter's own
    namespace = {
        **{name: getattr(np, name) for name in _FUNCTIONS},
        "pow": np.power,
        "fail": _fail,
        "first": _first,
        **_MESSAGES,
    }
    exec(compile(source, f"<grid {op}>", "exec"), namespace)
    return namespace["flagged"], namespace["checked"]


_GRID, _CHECKED = {}, {}
for _op in _RULES:
    _GRID[_op], _CHECKED[_op] = _grid_function(_op)


def _rechecked(op: str, *operands):
    """``op`` run again with every condition a mask, after NumPy raised a flag in it.

    Raises the DomainError of the first condition that fails, at its first
    bad point, as the masks alone would; a flag that no condition confirms
    leaves the value standing.
    """
    with np.errstate(all="ignore"):
        return _CHECKED[op](*operands)


def evaluate(exprs, env, positive=()):
    """Value of a tree, or a list of the values of a sequence of trees, over the arrays in ``env``.

    ``env`` binds names to arrays or scalars, and each result has their
    broadcast shape.  The trees in ``positive`` are checked first, each
    raising DomainError unless > 0 everywhere.  Each distinct node runs once,
    as one NumPy operation, in the post-order of a walk over the trees, so a
    subtree shared by several trees is computed once.  Raises DomainError if
    an input is not finite or a tree is undefined at any point, so no NaN or
    inf is ever returned.
    """
    grid = {name: np.asarray(value, dtype=float) for name, value in env.items()}
    roots = (exprs,) if isinstance(exprs, Expr) else tuple(exprs)
    # jets: the highest-order jet read so far of each curve, by id; the rows
    # of a curve's jet of order k are its jets of every lower order
    values, jets = {}, {}
    with np.errstate(**_FLAGS):
        for i, tree in enumerate((*positive, *roots)):
            for node in _post_order(tree, values):
                if isinstance(node, Binary):
                    a, b = values[node.left], values[node.right]
                    try:
                        value = _GRID[node.op](a, b)
                    except FloatingPointError:
                        value = _rechecked(node.op, a, b)
                elif isinstance(node, Unary):
                    a = values[node.arg]
                    try:
                        value = _GRID[node.op](a)
                    except FloatingPointError:
                        value = _rechecked(node.op, a)
                elif isinstance(node, Const):
                    if not math.isfinite(node.value):
                        _fail(_MESSAGES["NONFINITE"], node.value, "constant")
                    value = np.float64(node.value)
                elif isinstance(node, Var):
                    if node.name not in grid:
                        _fail(_MESSAGES["UNBOUND"], node.name)
                    value = _GRID["finite"](grid[node.name], f"variable {node.name!r}")
                else:  # a curve leaf, after its t
                    ts = values[_T]
                    jet = jets.get(id(node.curve))
                    if jet is None or len(jet) <= node.order:
                        with np.errstate(all="ignore"):
                            jet = jets[id(node.curve)] = node.curve.jet(ts.reshape(-1), node.order)
                    value = _GRID["finite"](jet[node.order].reshape(ts.shape), f"curve {node.label!r}")
                values[node] = value
            if i < len(positive):
                _GRID["positive"](values[tree], canonical(tree)[1:-1])
    results = [values[root] for root in roots]
    shape = np.broadcast_shapes(*(a.shape for a in grid.values()))
    results = [v if v.shape == shape else np.broadcast_to(v, shape).copy() for v in results]
    return results[0] if isinstance(exprs, Expr) else results


def scalar_kernel(exprs, variables=("t",), positive=()):
    """Compile a tree, or a sequence of trees, into one function of ``variables``.

    The function takes one value per entry of ``variables``, positionally
    (an entry that is a tuple of names takes a sequence, as a system's
    state), and returns a float for a single tree or a tuple for a
    sequence.  The trees in ``positive`` come first, each raising
    DomainError unless > 0.  Each distinct node is one local, computed once,
    in the post-order of a walk over the trees (left child first).  Names,
    constants and curves reach the function through its namespace, never
    through its source, so trees of one shape share compiled code.

    The function checks only the ``_SILENT`` conditions; every other
    failure raises (ArithmeticError or ValueError) or leaves inf or NaN in
    a node, which reaches a result, a domain tree or a ``_WATCHED``
    operand, so one ``isfinite`` of their sum returns the values.  Anything
    else returns ``_fallback``, ``evaluate`` on the one point: the function
    raises exactly the DomainError ``evaluate`` raises there, a variable
    not in ``variables`` or a non-finite input included, or, where no rule
    fails (a false alarm, such as finite operands whose sum overflows),
    returns ``evaluate``'s values.  Its values agree with ``evaluate``'s up
    to the last bit of libm's transcendental functions against NumPy's.
    """
    return kernel_parts(exprs, variables, positive).kernel()


class KernelText(NamedTuple):
    """What a scalar kernel's source is made of, without its namespace.

    Equal texts assemble one source, so a text keys code built from it.
    Parameter ``params[i]`` unpacks into the locals ``unpacked[i]``, or is
    None for a single value.  ``lines`` compute each node and the partial
    sums of the watched operands; ``results`` name the values returned,
    one (``single``) or a tuple, when ``isfinite(watched)`` holds or
    nothing is ``watched`` (""); otherwise, or where a line raised, the
    kernel returns ``fallback`` of its parameters.
    """

    params: tuple[str, ...]
    unpacked: tuple[tuple[str, ...] | None, ...]
    lines: tuple[str, ...]
    results: tuple[str, ...]
    single: bool
    watched: str

    @property
    def source(self) -> str:
        args = ", ".join(self.params)
        value = self.results[0] if self.single else "(" + "".join(r + ", " for r in self.results) + ")"
        unpack = "".join(
            "    (" + "".join(f"{name}, " for name in names) + f") = {param}\n"
            for param, names in zip(self.params, self.unpacked)
            if names is not None
        )
        last = f"if isfinite({self.watched}): return {value}" if self.watched else f"return {value}"
        body = "".join(f"        {line}\n" for line in (*self.lines, last))
        tail = f"    except SIGNALLED:\n        pass\n    return fallback({args})\n"
        return f"def kernel({args}):\n{unpack}    try:\n{body}{tail}"


class KernelParts(NamedTuple):
    """A scalar kernel before assembly: its ``text`` and the ``namespace`` its code runs in.

    The namespace holds the constants, curves and names the text refers
    to, the kernel's functions and its ``fallback``.
    """

    text: KernelText
    namespace: dict

    def kernel(self):
        """The function ``scalar_kernel`` returns: the text's shared code over this namespace."""
        exec(_compiled(self.text.source), self.namespace)
        # popped, so that the kernel's globals do not hold the kernel itself
        return self.namespace.pop("kernel")


def kernel_parts(exprs, variables=("t",), positive=()) -> KernelParts:
    """The kernel of ``scalar_kernel(exprs, variables, positive)``, walked but not assembled.

    One walk over the trees builds the text and the namespace; a caller
    may assemble the kernel (``KernelParts.kernel``) or emit its lines
    into code of its own, as the integrator's steps do.
    """
    roots = (exprs,) if isinstance(exprs, Expr) else tuple(exprs)
    params = [f"a{i}" for i in range(len(variables))]
    args, unpacked = {}, []
    for a, spec in zip(params, variables):
        if isinstance(spec, str):
            args[spec] = a
            unpacked.append(None)
        else:  # a sequence, unpacked into one local per name
            names = tuple(f"{a}_{j}" for j in range(len(spec)))
            args.update(zip(spec, names))
            unpacked.append(names)
    lines = []
    namespace = dict(_KERNEL_GLOBALS)
    refs, watched, computed = {}, {}, 0

    def bind(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def watch(*locals_):
        # only operations can fail, so an input or a constant needs no watch
        watched.update((local, None) for local in locals_ if local.startswith("v"))

    def compute(op, **operands) -> str:
        nonlocal computed
        r, computed = f"v{computed}", computed + 1
        lines.extend(line.format(r=r, **operands) for line in _SCALAR_LINES[op])
        watch(*(operands[name] for name in _WATCHED.get(op, "")))
        return r

    for i, tree in enumerate((*positive, *roots)):
        for node in _post_order(tree, refs):
            if isinstance(node, Binary):
                refs[node] = compute(node.op, a=refs[node.left], b=refs[node.right])
            elif isinstance(node, Unary):
                refs[node] = compute(node.op, a=refs[node.arg])
            elif isinstance(node, Const):
                refs[node] = bind(node.value)
            elif isinstance(node, Var):
                refs[node] = args[node.name] if node.name in args else compute("unbound", name=bind(node.name))
            else:  # a curve leaf, after its t
                refs[node] = compute("curve", t=refs[_T], c=bind(node.curve), k=bind(node.order))
        if i < len(positive):
            a, b = refs[tree], bind(canonical(tree)[1:-1])
            lines.extend(line.format(a=a, b=b) for line in _SCALAR_LINES["positive"])
            watch(a)
    results = [refs[root] for root in roots]
    watch(*results)
    terms = list(watched)
    while len(terms) > 100:  # CPython compiles a sum recursing once per term: 100 a line, in order
        lines.append("w = " + " + ".join(terms[:100]))
        terms[:100] = ["w"]
    single = isinstance(exprs, Expr)
    namespace["fallback"] = functools.partial(_fallback, roots, variables, positive, single)
    text = KernelText(tuple(params), tuple(unpacked), tuple(lines), tuple(results), single, " + ".join(terms))
    return KernelParts(text, namespace)


def _fallback(roots, variables, positive, single, *args):
    """What a kernel returns or raises at ``args`` once its body raised or its sum was not finite.

    Runs ``evaluate`` on the one-point grid of ``args``, which raises the
    DomainError of the first rule that fails.  If none does, the alarm was
    false, and ``evaluate``'s values are returned as floats.
    """
    env = {}
    for spec, arg in zip(variables, args):
        env.update([(spec, arg)] if isinstance(spec, str) else zip(spec, arg))
    found = evaluate(roots, {name: np.array([value]) for name, value in env.items()}, positive)
    return found[0].item() if single else tuple(v.item() for v in found)


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """Code of a kernel; trees of one shape share it, whatever their constants and curves."""
    return compile(source, "<scalar kernel>", "exec")


# ---------------------------------------------------------------------------
# canonical printing

def _format_number(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # so inf and nan print as themselves
        return str(int(v))
    return repr(v)


def canonical(e: Expr) -> str:
    """Fully parenthesized infix form; parseable back to a pointwise-equal tree.

    Printed in text order over a stack: a subtree met again is appended as
    one piece, joined from the ``spans`` of its first print, so a DAG costs
    its distinct nodes and a chain its text's length, not the square.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression node: {e!r}")
    pieces, spans, stack = [], {}, [e]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is str:
            pieces.append(node)
        elif cls is tuple:  # the end of a node's first print
            node, start = node
            pieces.append(")")
            spans[node] = start, len(pieces)
        elif node in spans:
            start, end = spans[node]
            spans[node] = len(pieces), len(pieces) + 1
            pieces.append("".join(pieces[start:end]))
        elif cls is Binary:
            stack += ((node, len(pieces)), node.right, node.op, node.left)
            pieces.append("(")
        elif cls is Unary:
            stack += ((node, len(pieces)), node.arg)
            pieces.append("(-" if node.op == "neg" else "(" + node.op)
        elif cls is Const:
            pieces.append("(" + _format_number(node.value) + ")")
        elif cls is Var:
            pieces.append("(" + node.name + ")")
        else:
            pieces.append("(" + node.label + "'" * node.order + ")")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# parser

_NUMBER_START = set("0123456789.")
# What a token opens where a value is expected: a group, a negation, or the
# function of a call, which its own "(" token follows.
_PREFIX = {"(": "(", "-": "neg", **{f + "(": f for f in FUNCTIONS}}
# Each binary operator reduces the stacked operators of at least this
# precedence before it is pushed; '^' reduces only functions, so it is
# right-associative.
_REDUCES = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 5}
# The precedence of each stacked operator.  The bottom of the stack ("") and
# an open group are never reduced; a function is applied to its group by the
# first reduction after the group's ')'.
_PRECEDENCE = {"": -1, "(": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, **dict.fromkeys(FUNCTIONS, 5)}


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def parse_expression(text: str, variables: tuple[str, ...] = ("t",)) -> Expr:
    """Parse ``text`` into an Expr over the given variable names.

    Raises ExprSyntaxError (with a byte offset) on malformed input, and
    UnknownIdentifierError for identifiers outside ``variables`` +
    functions.  The whole text is scanned before the grammar is checked, so
    a bad character or number literal anywhere comes first.  No tree is too
    deep: what bounds an expression is the size of its text.

    One scan makes the tokens: an operator character, the node of a number
    or variable (built once per call for each distinct literal or name), a
    call's "name(" or an unknown name.  One loop parses them by operator
    precedence, with an operand stack and an operator stack, so a
    parenthesis costs one push and one pop.
    """
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 0)
    tokens, starts, leaves = [], [], {}
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()+-*/^":
            starts.append(i)
            i += 1
            if ch == "*" and text.startswith("*", i):
                ch, i = "^", i + 1
            tokens.append(ch)
            continue
        j = i + 1
        if ch in _NUMBER_START:
            dot = ch == "."
            while j < n:
                c = text[j]
                if c == "." and not dot:
                    dot = True
                elif not c.isdigit():
                    break
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            token = leaves.get(lit)
            if token is None:
                try:
                    value = float(lit)
                except ValueError:
                    raise ExprSyntaxError(f"bad number literal {lit!r}", _byte_offset(text, i))
                if not math.isfinite(value):
                    raise ExprSyntaxError(f"number literal {lit!r} overflows", _byte_offset(text, i))
                token = leaves[lit] = Const(value)
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k] == "(":
                token = name + "("
            else:
                token = leaves.get(name)
                if token is None:
                    token = leaves[name] = Var(name) if name in variables else name
        elif ch.isspace():
            i += 1
            continue
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(text, i))
        tokens.append(token)
        starts.append(i)
        i = j
    tokens.append("")  # the end of the input
    starts.append(n)

    operands, ops = [], [""]
    value_next = True
    for pos, token in enumerate(tokens):
        if value_next:
            # prefixes, then a number or a variable
            opener = _PREFIX.get(token)
            if opener is not None:
                ops.append(opener)
            elif type(token) is not str:
                operands.append(token)
                value_next = False
            elif not token:
                raise ExprSyntaxError("unexpected end of input", _byte_offset(text, starts[pos]))
            elif token in _REDUCES or token == ")":
                raise ExprSyntaxError(f"expected a value, got {token!r}", _byte_offset(text, starts[pos]))
            else:
                raise UnknownIdentifierError(token.rstrip("("), _byte_offset(text, starts[pos]))
            continue
        # after a value: apply what binds tighter, then close a group, push an operator or end
        floor = _REDUCES.get(token, 1)
        while _PRECEDENCE[ops[-1]] >= floor:
            op = ops.pop()
            node = operands.pop()
            if op in _REDUCES:
                node = Binary(op, operands.pop(), node)
            else:
                node = Unary(op, node)
            operands.append(node)
        if token == ")" and ops[-1] == "(":
            ops.pop()
        elif token in _REDUCES:
            ops.append(token)
            value_next = True
        elif ops[-1] == "(":
            raise ExprSyntaxError("expected ')'", _byte_offset(text, starts[pos]))
        elif token:  # a value or a '(', shown as a number, a name (a call's too) or '('
            shown = token.value if type(token) is Const else getattr(token, "name", None) or token.rstrip("(") or "("
            raise ExprSyntaxError(f"unexpected trailing input {shown!r}", _byte_offset(text, starts[pos]))
    return operands[0]


# ---------------------------------------------------------------------------
# single-variable function of time with precomputed derivatives

class TimeFunction:
    """Scalar function of t with exact derivative expressions.

    Each order is built when first requested, from the order before, with
    one differentiation ``memo`` by t, so successive orders share their
    work.  The memo is the function's own unless one is given: functions
    built over one memo, and any caller differentiating by t with it, derive
    each node they share once.  ``eval`` (one point) and ``jet`` (a grid)
    both run ``evaluate`` and surface DomainError from subexpressions.
    """

    def __init__(self, expr: Expr, memo: dict | None = None):
        self.expr = expr
        self._derivs = [expr]
        self.memo = {} if memo is None else memo

    def derivative_expr(self, order: int) -> Expr:
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        while len(self._derivs) <= order:
            self._derivs.append(differentiate(self._derivs[-1], "t", self.memo))
        return self._derivs[order]

    def eval(self, t: float, order: int = 0) -> float:
        return float(evaluate(self.derivative_expr(order), {"t": t}))

    def jet(self, ts, k: int) -> np.ndarray:
        """Rows 0..k hold the derivatives over the grid ``ts`` (a scalar t is [t]): shape (k+1, len(ts))."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        return np.array(evaluate([self.derivative_expr(j) for j in range(k + 1)], {"t": ts}))

    def scaled(self, factor: float) -> "TimeFunction":
        return TimeFunction(mul(Const(factor), self.expr))

    def __repr__(self):
        return f"TimeFunction({canonical(self.expr)})"


def time_function(text: str) -> TimeFunction:
    return TimeFunction(parse_expression(text))


GRAMMAR_HELP = """\
expression grammar
------------------
  expr   := term (('+' | '-') term)*
  term   := factor (('*' | '/') factor)*
  factor := '-' factor | power
  power  := atom (('^' | '**') factor)?      right-associative exponent
  atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

precedence: pow > unary minus > mul/div > add/sub (left-associative
except pow).  Nesting has no bound: an expression is limited by the
size of its text, not by its depth.  NUMBER is a decimal float literal
(optional fraction and exponent).  IDENT is the variable 't' (equation
fields may also use 'x' and 'v' for position and velocity) or one of the
functions:
  sin cos exp log sqrt

evaluation is float64.  log of a non-positive value, division by zero,
sqrt of a negative value, fractional powers of non-positive bases, zero
raised to a negative power, sin or cos of a non-finite value and overflow
all raise a domain error; no NaN is ever returned.

canonical printed form is fully parenthesized infix, for example
  ((2)*(cos((2)*(t))))
"""
