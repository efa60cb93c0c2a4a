"""The operator-precedence parser against the recursive-descent parser it replaced.

``_tokenize`` and ``_Parser`` below are that parser, verbatim, kept as the
reference: on every text whose tree stays within ``MAX_DEPTH`` the two must
return the same node or raise the same error (class, message, offset and
name).  The depth bound itself is tested through ``epwb run``.
"""

import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from epwb import cli, compatible_family, time_function
from epwb.expressions import (
    FUNCTIONS,
    MAX_DEPTH,
    Binary,
    Const,
    ExprSyntaxError,
    UnknownIdentifierError,
    Unary,
    Var,
    canonical,
    differentiate,
    evaluate,
    parse_expression,
    scalar_kernel,
)

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
# the depth bound


def test_redundant_parentheses_cost_no_depth():
    assert parse_expression("(" * 300 + "t" + ")" * 300) is Var("t")


@pytest.mark.parametrize(
    "text, offset",
    [
        # a sum's node of 64 '+' is reduced at the 65th, at offset 129
        ("t" + "+t" * 64 + "+t", 129),
        ("t" + "+t" * 1500, 129),
        # these are reduced at the end of the input
        ("-" * MAX_DEPTH + "t", MAX_DEPTH + 1),
        ("sqrt(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, 6 * MAX_DEPTH + 1),
    ],
)
def test_a_deeper_tree_is_refused_where_it_is_complete(text, offset):
    assert MAX_DEPTH == 64
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression(text)
    assert str(exc.value) == f"expression deeper than {MAX_DEPTH} levels (byte offset {offset})"


def _nested_sqrt(levels: int) -> str:
    # the shallowest shape found to exhaust the interpreter's recursion: each
    # derivative of a chain of square roots is several times deeper than the
    # chain, and verify-symmetry differentiates G four times
    return "sqrt(" * (levels - 2) + "1+t" + ")" * (levels - 2)


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
    text = _nested_sqrt(MAX_DEPTH)
    e = parse_expression(text)
    assert len(canonical(e)) > len(text)
    code, err = _run(tmp_path, _scenarios(text)[index], capsys)
    assert code in (0, 2), err  # a verdict or a failed run, never a configuration error
    assert err == "" or err.startswith("epwb: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("index", range(6))
def test_one_level_deeper_is_an_expression_error(tmp_path, capsys, index):
    text = _nested_sqrt(MAX_DEPTH + 1)
    code, err = _run(tmp_path, _scenarios(text)[index], capsys)
    assert code == 1
    assert err == f"epwb: expression error: expression deeper than {MAX_DEPTH} levels (byte offset {len(text)})\n"


def test_every_walk_takes_the_deepest_tree_to_third_order():
    derivatives = [parse_expression(_nested_sqrt(MAX_DEPTH))]
    for _ in range(3):
        derivatives.append(differentiate(derivatives[-1]))
    values = evaluate(derivatives, {"t": [0.0, 0.1]})
    assert scalar_kernel(derivatives)(0.1) == pytest.approx([v[1] for v in values], rel=1e-12)
    assert parse_expression(canonical(derivatives[0])) is derivatives[0]
    for tree in derivatives[1:]:
        canonical(tree)  # deeper than the parser takes back, but printable
