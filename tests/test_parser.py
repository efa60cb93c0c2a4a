"""The operator-precedence parser against the recursive-descent parser it replaced.

``_tokenize`` and ``_Parser`` below are that parser, verbatim, kept as the
reference: on every text the two must return the same node or raise the
same error (class, message, offset and name).  The reference recurses once
per level, so it reads short texts only.  An expression is limited by the
size of its text, not by its depth: deep texts are checked against trees
built in code and through ``epwb run``, and trees far deeper than the
interpreter's recursion limit go through every walk.
"""

import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from epwb import (
    SecondOrderODE,
    cli,
    compatible_family,
    ep_ode,
    surviving_symmetry,
    symmetry_residual,
    time_function,
)
from epwb.expressions import (
    FUNCTIONS,
    Binary,
    Const,
    ExprSyntaxError,
    UnknownIdentifierError,
    Unary,
    TimeFunction,
    Var,
    canonical,
    differentiate,
    evaluate,
    parse_expression,
    scalar_kernel,
    sin,
)
from epwb.symmetry import default_samples

# ---------------------------------------------------------------------------
# the reference parser

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

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected trailing input {tok[1]!r}", tok)
        return e

    def expr(self):
        e = self.term()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                e = Binary(tok[1], e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "*/":
                self.next()
                e = Binary(tok[1], e, self.factor())
            else:
                return e

    def factor(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return Unary("neg", self.factor())
        return self.power()

    def power(self):
        e = self.atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.next()
            return Binary("^", e, self.factor())
        return e

    def atom(self):
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


def reference_parse(text, variables=("t",)):
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# differential test


def outcome(parse, text, variables):
    """The node ``parse`` returns, or the class, message, offset and name of what it raises."""
    try:
        return parse(text, variables)
    except ExprSyntaxError as exc:
        return (type(exc), str(exc), exc.offset, getattr(exc, "name", None))


# pieces that reach every branch of the scanner and of the grammar
FRAGMENTS = (
    "t", "x", "v", "y", "e", "E", "_a", "t2", "sin", "cos(", "exp(", "log(", "sqrt(", "foo", "foo(",
    "(", ")", "((", "))", "+", "-", "*", "/", "^", "**", "0", "7", "2.5", ".5", ".", "..", "1e",
    "1e+", "1e-3", "1.e5", "1e400", "1.5e999", " ", "\t", " ", " ",
    "٣", "²", "é", "$", ",",
)
texts = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet="t(x)+-*/^.1e5 ٣²é$_", max_size=30),
)
variables = st.sampled_from([("t",), ("t", "x", "v"), ("t", "sin")])


@settings(max_examples=2000, deadline=None)
@given(text=texts, variables=variables)
@example(text="1 + + 2 $", variables=("t",))
@example(text="2e", variables=("t",))
@example(text="1٣", variables=("t",))
@example(text="1²", variables=("t",))
@example(text="٣*t", variables=("t",))
@example(text="t +1", variables=("t",))
@example(text="sin (t)^-2^x*-x", variables=("t", "x", "v"))
@example(text="t(1)", variables=("t",))
@example(text="(t foo(t))", variables=("t",))
def test_parses_as_the_reference(text, variables):
    expected = outcome(reference_parse, text, variables)  # held, so the node stays interned
    got = outcome(parse_expression, text, variables)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got is expected


@pytest.mark.parametrize(
    "text, error, message, offset",
    [
        ("1 + + 2 $", ExprSyntaxError, "unexpected character '$'", 8),
        ("2e", ExprSyntaxError, "unexpected trailing input 'e'", 1),
        ("1²", ExprSyntaxError, "bad number literal '1²'", 0),
        ("٣*t", ExprSyntaxError, "unexpected character '٣'", 0),
        ("1.e5.", ExprSyntaxError, "bad number literal '.'", 4),
        ("2 3", ExprSyntaxError, "unexpected trailing input 3.0", 2),
        ("(t foo(t))", ExprSyntaxError, "expected ')'", 3),
        ("t(1)", UnknownIdentifierError, "unknown identifier 't'", 0),
        ("é+", UnknownIdentifierError, "unknown identifier 'é'", 0),
        ("t+é", UnknownIdentifierError, "unknown identifier 'é'", 2),
        ("é $", ExprSyntaxError, "unexpected character '$'", 3),
    ],
)
def test_errors_the_reference_raises(text, error, message, offset):
    with pytest.raises(error) as exc:
        parse_expression(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset
    assert outcome(reference_parse, text, ("t",)) == (error, str(exc.value), offset, getattr(exc.value, "name", None))


def test_what_the_reference_accepts():
    assert parse_expression("1٣") is Const(13.0)
    assert parse_expression("t +1") is reference_parse("t+1")
    assert parse_expression("-2^-t^2") is reference_parse("-2^-t^2")


def test_the_compatible_phi_parses_back():
    for g in ("(1.032521+t)^4", "exp(3.942224*t)"):
        fam = compatible_family(time_function(g), 1.07, 0.8, (0.0, 2.0))
        text = canonical(fam.phi.expr) + "+0.1"
        assert parse_expression(text) is reference_parse(text)


# ---------------------------------------------------------------------------
# deep trees: no walk recurses, so no depth is refused


def test_redundant_parentheses_cost_no_depth():
    assert parse_expression("(" * 300 + "t" + ")" * 300) is Var("t")


def _chain(levels: int, level):
    """The tree of ``levels`` levels that ``level`` builds over t, one level at a time."""
    tree = Var("t")
    for _ in range(levels - 1):
        tree = level(tree)
    return tree


@pytest.mark.parametrize(
    "text, level",
    [
        # left-deep: each '+' takes the sum before it
        ("t" + "+t" * 1500, lambda e: Binary("+", e, Var("t"))),
        # right-deep: '^' is right-associative
        ("t" + "^t" * 1500, lambda e: Binary("^", Var("t"), e)),
        ("-" * 1500 + "t", lambda e: Unary("neg", e)),
        ("sqrt(" * 1500 + "t" + ")" * 1500, lambda e: Unary("sqrt", e)),
    ],
)
def test_a_deep_text_parses_to_the_tree_built_in_code(text, level):
    tree = _chain(1501, level)
    assert parse_expression(text) is tree
    assert parse_expression(canonical(tree)) is tree


def _nested(function: str, levels: int) -> str:
    return (function + "(") * (levels - 2) + "1+t" + ")" * (levels - 2)


def _scenarios(text: str):
    interval = [0.0, 0.2]
    return [
        {"kind": "simulate", "phi": text, "g": text, "interval": interval, "initial": [1.0, 0.0]},
        {"kind": "verify-invariant", "invariant": "lorentz", "phi": text, "interval": interval, "initial": [1.0, 0.0]},
        {"kind": "verify-symmetry", "g": text, "c0": 1.0, "m": 1.0, "interval": interval},
        {"kind": "verify-symmetry", "tau": text, "xi": text, "phi": text, "g": text, "interval": interval},
        {"kind": "reduce", "g": text, "c0": 1.0, "m": 1.0, "interval": interval, "initial": [1.0, 0.0]},
        {"kind": "eliezer-grey", "phi": text, "k": text, "initial": {"r": 1.0, "thetadot": 1.0}, "interval": interval},
    ]


def _run(tmp_path, scenario, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["run", str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("index", range(6))
def test_the_deepest_tree_runs_every_kind(tmp_path, capsys, index):
    # 1,500 levels of sin, so G' stays positive where a chain of sqrt that
    # deep underflows it to 0; verify-symmetry differentiates G four times
    text = _nested("sin", 1500)
    code, err = _run(tmp_path, _scenarios(text)[index], capsys)
    assert code in (0, 2), err  # a verdict or a failed run, never a configuration error
    assert err == "" or err.startswith("epwb: ") and err.count("\n") == 1, err


def test_every_walk_takes_the_deepest_tree_to_third_order():
    # 10,000 levels, ten times the default recursion limit, each adding the
    # one shared sin(t): every derivative is a chain of 10,000 levels too,
    # and the kernel of the four trees stays at 40,000 lines
    shared = sin(Var("t"))
    tree = shared
    for _ in range(9999):
        tree = Binary("+", tree, shared)
    derivatives = [tree]
    for _ in range(3):
        derivatives.append(differentiate(derivatives[-1]))
    values = [v[1] for v in evaluate(derivatives, {"t": [0.0, 0.1]})]
    expected = [10000 * math.sin(0.1), 10000 * math.cos(0.1), -10000 * math.sin(0.1), -10000 * math.cos(0.1)]
    assert values == pytest.approx(expected, rel=1e-9)
    assert list(scalar_kernel(derivatives)(0.1)) == pytest.approx(values, rel=1e-12)
    assert parse_expression(canonical(tree)) is tree
    assert repr(tree) == f"<Binary {canonical(tree)}>"


def test_a_deep_g_reaches_the_symmetry_residual():
    # the G of 85 levels whose G'''' exhausted the interpreter's recursion
    # while every walk recursed: the compatible equation keeps Gamma_s up to
    # rounding, and a shift of phi breaks it
    fam = compatible_family(time_function(_nested("sqrt", 85)), 1.0, 1.0, (0.0, 0.2))
    sym, samples = surviving_symmetry(fam), default_samples((0.0, 0.2), n=4)
    kept = symmetry_residual(sym, ep_ode(fam), samples)
    broken = symmetry_residual(sym, SecondOrderODE.from_ep(TimeFunction(fam.phi.expr + 0.1), fam.g), samples)
    assert math.isfinite(broken) and kept <= 1e-12 * broken
