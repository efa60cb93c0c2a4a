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
of a non-positive value, division by zero, fractional power of a
non-positive base, overflow) raises DomainError instead of producing a
silent NaN or inf.

``differentiate`` is purely structural.  Results are routed through
light peephole constructors (constant folding, 0/1 identities) so repeated
differentiation stays tractable; folding can only shrink the set of points
where evaluation raises, never change a defined value.

The canonical printed form is fully parenthesized infix, e.g.
``((2)*(cos((2)*(t))))``, and ``parse_expression`` of a canonical print
reproduces a pointwise-equal expression.
"""

from __future__ import annotations

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
    """Base node. Subclasses implement eval/diff/children."""

    __slots__ = ()

    def eval(self, env) -> float:
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
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


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise DomainError(f"no value bound for variable {self.name!r}") from None

    def diff(self, var):
        return Const(1.0 if self.name == var else 0.0)


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    arg: Expr

    def eval(self, env):
        v = self.arg.eval(env)
        if self.op == "neg":
            return -v
        if self.op == "sin":
            return math.sin(v)
        if self.op == "cos":
            return math.cos(v)
        if self.op == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise DomainError(f"exp overflow at argument {v!r}") from None
        if self.op == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive value {v!r}")
            return math.log(v)
        if self.op == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v!r}")
            return math.sqrt(v)
        raise AssertionError(f"bad unary op {self.op!r}")

    def diff(self, var):
        u, du = self.arg, self.arg.diff(var)
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

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            r = a + b
        elif self.op == "-":
            r = a - b
        elif self.op == "*":
            r = a * b
        elif self.op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            r = a / b
        elif self.op == "^":
            r = _pow_value(a, b)
        else:
            raise AssertionError(f"bad binary op {self.op!r}")
        if not math.isfinite(r):
            raise DomainError(f"overflow in {self.op!r} of {a!r} and {b!r}")
        return r

    def diff(self, var):
        a, b = self.left, self.right
        da, db = a.diff(var), b.diff(var)
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


def _pow_value(a: float, b: float) -> float:
    if not b.is_integer():
        # fractional exponent: positive base only
        if a <= 0.0:
            raise DomainError(f"fractional power of non-positive base {a!r}")
    elif a == 0.0 and b < 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError) as e:
        raise DomainError(f"power {a!r}^{b!r} undefined: {e}") from None


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

    def eval(self, env):
        return float(self.curve.jet([env["t"]], self.order)[self.order, 0])

    def diff(self, var):
        if var == "t":
            return CurveVal(self.curve, self.order + 1, self.label)
        return Const(0.0)


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
            return Const(_pow_value(a.value, b.value))
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
            return Const(Unary(op, e).eval({}))
        except DomainError:
            pass
    return Unary(op, e)


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


def differentiate(e: Expr, variable: str = "t") -> Expr:
    """Exact structural derivative of ``e`` with respect to ``variable``."""
    return e.diff(variable)


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
    (internal plumbing for high-order jets).  ``eval`` checks the
    declared domain interval and surfaces DomainError from subexpressions.
    """

    def __init__(self, expr: Expr, domain: tuple[float, float] = (-math.inf, math.inf)):
        if domain[0] >= domain[1]:
            raise ValueError(f"empty domain {domain!r}")
        self.expr = expr
        self.domain = (float(domain[0]), float(domain[1]))
        self._derivs = [expr]
        for _ in range(3):
            self._derivs.append(self._derivs[-1].diff("t"))

    def derivative_expr(self, order: int) -> Expr:
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        while len(self._derivs) <= order:
            self._derivs.append(self._derivs[-1].diff("t"))
        return self._derivs[order]

    def eval(self, t: float, order: int = 0) -> float:
        lo, hi = self.domain
        if not (lo <= t <= hi):
            raise DomainError(f"t={t!r} outside domain [{lo!r}, {hi!r}]")
        return self.derivative_expr(order).eval({"t": t})

    def __call__(self, t: float) -> float:
        return self.eval(t, 0)

    def jet(self, ts, k: int) -> np.ndarray:
        """Rows 0..k hold eval(t, j) over the grid ``ts``: shape (k+1, len(ts))."""
        ts = np.asarray(ts, dtype=float).tolist()
        return np.array([[self.eval(t, j) for t in ts] for j in range(k + 1)])

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
