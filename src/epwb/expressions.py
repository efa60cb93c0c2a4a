"""Tiny expression language over scalar functions, with exact derivatives.

Grammar (infix, whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom (('^' | '**') factor)?      right-associative exponent
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

so precedence is pow > unary minus > mul/div > add/sub.  Recognized
identifiers are the variable names passed to ``parse_expression`` (``t`` by
default) and the functions sin, cos, exp, log, sqrt.  Everything evaluates
in float64.  Evaluation at a point where a subexpression is undefined (log
of a non-positive value, division by zero, sqrt of a negative value,
fractional power of a non-positive base, zero to a negative power, sin or
cos of a non-finite value, overflow) raises DomainError instead of
producing a silent NaN or inf.

Trees are DAGs: one node may be the child of many.  ``evaluate(expr, env)``
computes a tree on whole NumPy arrays, one array operation per distinct
node, and keeps the DomainError contract as mask checks over the grid (an
error at any point raises); it never returns NaN or inf.  Its ``memo``
(keyed by node identity) can be shared across several trees evaluated on
the same ``env``, so common subtrees are computed once.

Single points, such as an integrator's right-hand side, go through
``scalar_kernel(exprs, variables)``: it compiles one or more trees into a
generated straight-line Python function with one local per distinct node
(equal operations on equal operands share one), in the post-order of a
tree walk, and every domain rule checked inline, so a DAG costs its
distinct nodes, not its paths.  Callers that evaluate often
(``TimeFunction.eval``, ``PointSymmetry.components`` at a point,
``SecondOrderODE.w_at``) build their kernel once and keep it;
``Expr.eval(env)`` builds an uncached one per call.  Names, constants and
curves reach a kernel through its namespace, never through its source, so
the compiled code of a source is reused by every tree of that shape.

``differentiate`` is purely structural and memoised by node identity: a
subtree shared by several parents is differentiated once and its
derivative is shared in the result.  Results are routed through light
peephole constructors (constant folding, 0/1 identities) so repeated
differentiation stays tractable; folding can only shrink the set of points
where evaluation raises, never change a defined value.

The canonical printed form is fully parenthesized infix, e.g.
``((2)*(cos((2)*(t))))``, and ``parse_expression`` of a canonical print
reproduces a pointwise-equal expression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    """Base node. Subclasses implement _on_grid (arrays) and _diff; scalar_kernel does one point."""

    __slots__ = ()

    def eval(self, env) -> float:
        """Value at the single point ``env``; builds a kernel per call (hot callers keep theirs)."""
        return scalar_kernel(self, tuple(env))(*env.values())

    def _on_grid(self, env, ev) -> np.ndarray:
        """Value over the arrays in ``env``; ``ev`` evaluates a child (memoised)."""
        raise NotImplementedError

    def _diff(self, var: str, d) -> "Expr":
        """Derivative by ``var``; ``d`` differentiates a child (memoised)."""
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


def _first(values, bad) -> float:
    """The first of ``values`` where the mask ``bad`` holds (for error messages)."""
    return float(np.broadcast_to(values, np.shape(bad))[bad].flat[0])


def _bound(env, name: str):
    try:
        return env[name]
    except KeyError:
        raise DomainError(f"no value bound for variable {name!r}") from None


def _finite_grid(values, what: str):
    if not np.isfinite(values).all():
        raise DomainError(f"non-finite value {_first(values, ~np.isfinite(values))!r} in {what}")
    return values


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float

    def _on_grid(self, env, ev):
        return _finite_grid(np.float64(self.value), "constant")

    def _diff(self, var, d):
        return Const(0.0)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def _on_grid(self, env, ev):
        return _finite_grid(_bound(env, self.name), f"variable {self.name!r}")

    def _diff(self, var, d):
        return Const(1.0 if self.name == var else 0.0)


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    arg: Expr

    def _on_grid(self, env, ev):
        # every child value is finite, so sin and cos need no check
        v = ev(self.arg)
        op = self.op
        if op == "neg":
            return -v
        if op == "sin":
            return np.sin(v)
        if op == "cos":
            return np.cos(v)
        if op == "exp":
            r = np.exp(v)
            if not np.isfinite(r).all():
                raise DomainError(f"exp overflow at argument {_first(v, ~np.isfinite(r))!r}")
            return r
        if op == "log":
            bad = v <= 0.0
            if bad.any():
                raise DomainError(f"log of non-positive value {_first(v, bad)!r}")
            return np.log(v)
        if op == "sqrt":
            bad = v < 0.0
            if bad.any():
                raise DomainError(f"sqrt of negative value {_first(v, bad)!r}")
            return np.sqrt(v)
        raise AssertionError(f"bad unary op {op!r}")

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


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def _on_grid(self, env, ev):
        a = ev(self.left)
        b = ev(self.right)
        op = self.op
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        elif op == "/":
            if (b == 0.0).any():
                raise DomainError("division by zero")
            r = a / b
        elif op == "^":
            r = _pow_grid(a, b)
        else:
            raise AssertionError(f"bad binary op {op!r}")
        if not np.isfinite(r).all():
            raise DomainError(f"overflow in {op!r}")
        return r

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


def _pow_grid(a, b):
    """Domain rules of a power over arrays; overflow is left to the caller's finiteness check."""
    frac = b != np.floor(b)
    bad = frac & (a <= 0.0)
    if bad.any():
        raise DomainError(f"fractional power of non-positive base {_first(a, bad)!r}")
    if (~frac & (a == 0.0) & (b < 0.0)).any():
        raise DomainError("zero raised to a negative power")
    return np.power(a, b)


@dataclass(frozen=True, slots=True)
class CurveVal(Expr):
    """Leaf wrapping a curve c(t) with ``jet(ts, k)``; evaluates c's derivative of ``order``.

    Lets symmetry coefficient fields be built over computed solutions (basis
    trajectories) while keeping structural differentiation exact.  Not part of
    the parse grammar and excluded from print/parse round trips.
    """

    curve: object
    order: int = 0
    label: str = "curve"

    def _on_grid(self, env, ev):
        ts = ev(_T)
        values = self.curve.jet(ts.reshape(-1), self.order)[self.order]
        return _finite_grid(values.reshape(ts.shape), f"curve {self.label!r}")

    def _diff(self, var, d):
        if var == "t":
            return CurveVal(self.curve, self.order + 1, self.label)
        return Const(0.0)


_T = Var("t")


# ---------------------------------------------------------------------------
# peephole smart constructors (used by diff and by programmatic tree building)

def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def const(v: float) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        r = a.value + b.value
        if math.isfinite(r):
            return Const(r)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        r = a.value - b.value
        if math.isfinite(r):
            return Const(r)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        r = a.value * b.value
        if math.isfinite(r):
            return Const(r)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        r = a.value / b.value
        if math.isfinite(r):
            return Const(r)
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return Const(0.0)
    return Binary("/", a, b)


def power(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            return Const(_fold_kernel("^")(a.value, b.value))
        except DomainError:
            pass
    return Binary("^", a, b)


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def _fold_unary(op: str, e: Expr) -> Expr:
    if isinstance(e, Const):
        try:
            return Const(_fold_kernel(op)(e.value))
        except DomainError:
            pass
    return Unary(op, e)


@functools.cache
def _fold_kernel(op: str):
    """``op`` applied to its one or two arguments; compiled once per op, not once per fold."""
    a, b = Var("a"), Var("b")
    if op in _BINARY_LINES:
        return scalar_kernel(Binary(op, a, b), ("a", "b"))
    return scalar_kernel(Unary(op, a), ("a",))


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


def differentiate(e: Expr, variable: str = "t", memo: dict | None = None) -> Expr:
    """Exact structural derivative of ``e`` with respect to ``variable``.

    Each distinct node is differentiated once, so a subtree shared by
    several parents gets one shared derivative.  Calls by the same
    ``variable`` may share a ``memo`` to reuse each other's work.
    """
    memo = {} if memo is None else memo

    def d(node: Expr) -> Expr:
        hit = memo.get(id(node))
        if hit is None:
            # the node is kept with its derivative so its id cannot be reused
            hit = memo[id(node)] = (node, node._diff(variable, d))
        return hit[1]

    return d(e)


def evaluate(expr: Expr, env, memo: dict | None = None) -> np.ndarray:
    """Value of ``expr`` over the arrays (or scalars) bound in ``env``.

    Each distinct node runs once, as one NumPy operation, and the result has
    the broadcast shape of ``env``'s values.  Raises DomainError if the tree
    is undefined at any point, so no NaN or inf is ever returned.  Calls that
    evaluate on the same ``env`` may share a ``memo`` so subtrees common to
    several trees are computed once.
    """
    memo = {} if memo is None else memo
    grid = {name: np.asarray(value, dtype=float) for name, value in env.items()}

    def ev(node: Expr) -> np.ndarray:
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = (node, node._on_grid(grid, ev))
        return hit[1]

    with np.errstate(all="ignore"):
        value = ev(expr)
    shape = np.broadcast_shapes(*(a.shape for a in grid.values()))
    return value if value.shape == shape else np.broadcast_to(value, shape).copy()


# ---------------------------------------------------------------------------
# scalar kernels: a set of trees compiled into one straight-line function

_MESSAGES = {
    "SIN": "sin of non-finite value {!r}",
    "COS": "cos of non-finite value {!r}",
    "EXP": "exp overflow at argument {!r}",
    "LOG": "log of non-positive value {!r}",
    "SQRT": "sqrt of negative value {!r}",
    "DIV": "division by zero",
    "FRAC": "fractional power of non-positive base {!r}",
    "ZERONEG": "zero raised to a negative power",
    "POW": "power {!r}^{!r} undefined: {}",
    "UNBOUND": "no value bound for variable {!r}",
    "OVER_ADD": "overflow in '+' of {!r} and {!r}",
    "OVER_SUB": "overflow in '-' of {!r} and {!r}",
    "OVER_MUL": "overflow in '*' of {!r} and {!r}",
    "OVER_DIV": "overflow in '/' of {!r} and {!r}",
    "OVER_POW": "overflow in '^' of {!r} and {!r}",
}


def _fail(message: str, *values):
    raise DomainError(message.format(*values)) from None


# Lines computing one node: {r} is its local, {a} and {b} its operands.
_UNARY_LINES = {
    "neg": ("{r} = -{a}",),
    "sin": ("if not isfinite({a}): fail(SIN, {a})", "{r} = sin({a})"),
    "cos": ("if not isfinite({a}): fail(COS, {a})", "{r} = cos({a})"),
    "exp": ("try: {r} = exp({a})", "except OverflowError: fail(EXP, {a})"),
    "log": ("if {a} <= 0.0: fail(LOG, {a})", "{r} = log({a})"),
    "sqrt": ("if {a} < 0.0: fail(SQRT, {a})", "{r} = sqrt({a})"),
}
_BINARY_LINES = {
    "+": ("{r} = {a} + {b}", "if not isfinite({r}): fail(OVER_ADD, {a}, {b})"),
    "-": ("{r} = {a} - {b}", "if not isfinite({r}): fail(OVER_SUB, {a}, {b})"),
    "*": ("{r} = {a} * {b}", "if not isfinite({r}): fail(OVER_MUL, {a}, {b})"),
    "/": (
        "if {b} == 0.0: fail(DIV)",
        "{r} = {a} / {b}",
        "if not isfinite({r}): fail(OVER_DIV, {a}, {b})",
    ),
    "^": (
        "if not {b}.is_integer():",
        "    if {a} <= 0.0: fail(FRAC, {a})",
        "elif {a} == 0.0 and {b} < 0.0: fail(ZERONEG)",
        "try: {r} = pow({a}, {b})",
        "except (OverflowError, ValueError) as e: fail(POW, {a}, {b}, e)",
        "if not isfinite({r}): fail(OVER_POW, {a}, {b})",
    ),
}
_CURVE_LINES = ("{r} = float({c}.jet([{t}], {k})[{k}, 0])",)
_UNBOUND_LINES = ("{r} = fail(UNBOUND, {name})",)

_KERNEL_GLOBALS = {
    "__builtins__": {},
    "float": float,
    "OverflowError": OverflowError,
    "ValueError": ValueError,
    "isfinite": math.isfinite,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "pow": math.pow,
    "fail": _fail,
    **_MESSAGES,
}


def scalar_kernel(exprs, variables=("t",)):
    """Compile a tree, or a sequence of trees, into one function of ``variables``.

    The function takes one value per name in ``variables``, positionally,
    and returns a float for a single tree or a tuple for a sequence.  Each
    distinct node is one local, computed once, in the post-order of a walk
    over the trees (left child first); a node repeating an earlier node's
    operation on equal operands reuses that local.  Every DomainError rule
    is checked inline.  So values, and the first error raised with its
    message, are those of evaluating node by node.  A variable not in
    ``variables`` raises DomainError where it is first used.  Names,
    constants and curves reach the function through its namespace, never
    through its source, so trees of one shape share compiled code.
    """
    roots = (exprs,) if isinstance(exprs, Expr) else tuple(exprs)
    args = {name: f"a{i}" for i, name in enumerate(variables)}
    namespace = dict(_KERNEL_GLOBALS)
    lines, refs, floats, computed = [], {}, {}, {}

    def bind(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def constant(value) -> str:
        # equal floats share a name, so equal operations on them share a local
        if type(value) is not float:
            return bind(value)
        if repr(value) not in floats:
            floats[repr(value)] = bind(value)
        return floats[repr(value)]

    def compute(template, **operands) -> str:
        # one operation on the same operands is computed once (value numbering)
        key = (template, *operands.values())
        if key not in computed:
            r = computed[key] = f"v{len(computed)}"
            lines.extend(line.format(r=r, **operands) for line in template)
        return computed[key]

    def emit(node: Expr) -> str:
        if isinstance(node, Const):
            return constant(node.value)
        if isinstance(node, Var):
            if node.name in args:
                return args[node.name]
            return compute(_UNBOUND_LINES, name=bind(node.name))
        if isinstance(node, Unary):
            if node.op not in _UNARY_LINES:
                raise AssertionError(f"bad unary op {node.op!r}")
            return compute(_UNARY_LINES[node.op], a=ref(node.arg))
        if isinstance(node, Binary):
            if node.op not in _BINARY_LINES:
                raise AssertionError(f"bad binary op {node.op!r}")
            return compute(_BINARY_LINES[node.op], a=ref(node.left), b=ref(node.right))
        if isinstance(node, CurveVal):
            return compute(_CURVE_LINES, t=ref(_T), c=bind(node.curve), k=bind(node.order))
        raise TypeError(f"cannot compile node {node!r}")

    def ref(node: Expr) -> str:
        hit = refs.get(id(node))
        if hit is None:
            # the node is kept with its local so its id cannot be reused
            hit = refs[id(node)] = (node, emit(node))
        return hit[1]

    results = [ref(root) for root in roots]
    if isinstance(exprs, Expr):
        value = results[0]
    else:
        value = "(" + "".join(r + ", " for r in results) + ")"
    body = "".join(f"    {line}\n" for line in (*lines, "return " + value))
    source = f"def kernel({', '.join(args.values())}):\n{body}"
    exec(_compiled(source), namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """Code of a kernel; trees of one shape share it, whatever their constants and curves."""
    return compile(source, "<scalar kernel>", "exec")


# ---------------------------------------------------------------------------
# canonical printing

def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def canonical(e: Expr) -> str:
    """Fully parenthesized infix form; parseable back to a pointwise-equal tree."""
    return "(" + _inner(e) + ")"


def _inner(e: Expr) -> str:
    if isinstance(e, Const):
        return _format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + canonical(e.arg)
        return e.op + "(" + _inner(e.arg) + ")"
    if isinstance(e, Binary):
        return canonical(e.left) + e.op + canonical(e.right)
    if isinstance(e, CurveVal):
        return e.label + "'" * e.order
    raise AssertionError(f"unprintable node {e!r}")


# ---------------------------------------------------------------------------
# parser

_NUMBER_START = set("0123456789.")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _NUMBER_START:
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
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
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {lit!r}", _byte_offset(text, i))
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number literal {lit!r} overflows", _byte_offset(text, i))
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(("end", "", n))
    return tokens


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok):
        raise ExprSyntaxError(message, _byte_offset(self.text, tok[2]))

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected trailing input {tok[1]!r}", tok)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                e = Binary(tok[1], e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "*/":
                self.next()
                e = Binary(tok[1], e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.next()
            return Binary("^", e, self.factor())
        return e

    def atom(self) -> Expr:
        tok = self.next()
        if tok[0] == "num":
            return Const(tok[1])
        if tok[0] == "ident":
            name = tok[1]
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifierError(name, _byte_offset(self.text, tok[2]))
                self.next()
                arg = self.expr()
                close = self.next()
                if close[0] != "op" or close[1] != ")":
                    self.error("expected ')'", close)
                return Unary(name, arg)
            if name not in self.variables:
                raise UnknownIdentifierError(name, _byte_offset(self.text, tok[2]))
            return Var(name)
        if tok[0] == "op" and tok[1] == "(":
            e = self.expr()
            close = self.next()
            if close[0] != "op" or close[1] != ")":
                self.error("expected ')'", close)
            return e
        self.error(f"expected a value, got {tok[1]!r}" if tok[0] != "end" else "unexpected end of input", tok)


def parse_expression(text: str, variables: tuple[str, ...] = ("t",)) -> Expr:
    """Parse ``text`` into an Expr over the given variable names.

    Raises ExprSyntaxError (with a byte offset) on malformed input and
    UnknownIdentifierError for identifiers outside ``variables`` + functions.
    """
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# single-variable function of time with precomputed derivatives

class TimeFunction:
    """Scalar function of t with exact derivative expressions.

    Orders 0..3 are built once at construction; higher orders extend lazily
    (internal plumbing for high-order jets), each from the one before with a
    shared differentiation memo.  ``eval`` (one point) and ``jet`` (a grid)
    check the declared domain interval and surface DomainError from
    subexpressions.
    """

    def __init__(self, expr: Expr, domain: tuple[float, float] = (-math.inf, math.inf)):
        if domain[0] >= domain[1]:
            raise ValueError(f"empty domain {domain!r}")
        self.expr = expr
        self.domain = (float(domain[0]), float(domain[1]))
        self._derivs = [expr]
        self._memo = {}
        self._kernels = {}
        self.derivative_expr(3)

    def derivative_expr(self, order: int) -> Expr:
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        while len(self._derivs) <= order:
            self._derivs.append(differentiate(self._derivs[-1], "t", self._memo))
        return self._derivs[order]

    def eval(self, t: float, order: int = 0) -> float:
        lo, hi = self.domain
        if not (lo <= t <= hi):
            raise DomainError(f"t={t!r} outside domain [{lo!r}, {hi!r}]")
        kernel = self._kernels.get(order)
        if kernel is None:
            kernel = self._kernels[order] = scalar_kernel(self.derivative_expr(order), ("t",))
        return kernel(t)

    def __call__(self, t: float) -> float:
        return self.eval(t, 0)

    def jet(self, ts, k: int) -> np.ndarray:
        """Rows 0..k hold the derivatives over the grid ``ts``: shape (k+1, len(ts))."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain
        outside = ~((lo <= ts) & (ts <= hi))
        if outside.any():
            raise DomainError(f"t={_first(ts, outside)!r} outside domain [{lo!r}, {hi!r}]")
        env, memo = {"t": ts}, {}
        return np.array([evaluate(self.derivative_expr(j), env, memo) for j in range(k + 1)])

    def scaled(self, factor: float) -> "TimeFunction":
        return TimeFunction(mul(Const(float(factor)), self.expr), self.domain)

    def __repr__(self):
        return f"TimeFunction({canonical(self.expr)})"


def time_function(text: str, domain: tuple[float, float] = (-math.inf, math.inf)) -> TimeFunction:
    return TimeFunction(parse_expression(text), domain)


GRAMMAR_HELP = """\
expression grammar
------------------
  expr   := term (('+' | '-') term)*
  term   := factor (('*' | '/') factor)*
  factor := '-' factor | power
  power  := atom (('^' | '**') factor)?      right-associative exponent
  atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

precedence: pow > unary minus > mul/div > add/sub (left-associative
except pow).  NUMBER is a decimal float literal (optional fraction and
exponent).  IDENT is the variable 't' (equation fields may also use 'x'
and 'v' for position and velocity) or one of the functions:
  sin cos exp log sqrt

evaluation is float64.  log of a non-positive value, division by zero,
sqrt of a negative value, fractional powers of non-positive bases and
overflow all raise a domain error; no NaN is ever returned.

canonical printed form is fully parenthesized infix, for example
  ((2)*(cos((2)*(t))))
"""
