"""Scalar expression language used for objectives, moment functions, and kernels.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] power
    power  := atom ['^' factor]
    atom   := NUMBER | VARIABLE | '(' expr ')' | IDENT '(' expr (',' expr)* ')'

'^' is right-associative and binds tighter than unary minus, so -2^2 == -4.
Numbers use standard float syntax including exponent form.  Variables are a
prefix followed by a 1-based index ("x1", "x2", ...); kernels use two prefix
blocks ("y1..ym" then "x1..xn") laid out consecutively in the evaluation point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

FUNCTIONS = {"min": 2, "max": 2, "abs": 1, "exp": 1, "log": 1, "sqrt": 1}


class ExpressionError(ValueError):
    """Base class for parse and evaluation failures."""


class ParseError(ExpressionError):
    """Syntax or name error.  ``offset`` is a byte offset into the UTF-8 source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DomainError(ExpressionError):
    """log/sqrt outside the domain, division by zero, or overflow.

    ``subexpression`` is the printed form of the node that failed.
    """

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Variable:
    slot: int  # 0-based position in the evaluation point
    name: str  # as written, e.g. "x2"


@dataclass(frozen=True)
class Negate:
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Literal, Variable, Negate, Binary, Call]


@dataclass(frozen=True)
class Expression:
    """Parsed expression together with the arity it was declared with."""

    root: Node
    arity: int

    def __str__(self) -> str:
        return format_expression(self)


# ---------------------------------------------------------------------------
# lexer

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", a punctuation char, or "end"
    text: str
    offset: int  # byte offset of the first character


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    byte = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch in " \t\r\n":
            byte += len(ch.encode("utf-8"))
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(source, pos)
            if m is None:
                raise ParseError("malformed number", byte)
            text = m.group()
            tokens.append(_Token("num", text, byte))
            pos = m.end()
            byte += len(text)  # number syntax is ASCII
            continue
        if "a" <= ch.lower() <= "z":
            m = _IDENT.match(source, pos)
            text = m.group()
            tokens.append(_Token("ident", text, byte))
            pos = m.end()
            byte += len(text)
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, byte))
            pos += 1
            byte += 1
            continue
        raise ParseError(f"invalid character {ch!r}", byte)
    tokens.append(_Token("end", "", byte))
    return tokens


# ---------------------------------------------------------------------------
# parser


def _normalize_blocks(arity, variable_prefixes) -> list[tuple[str, int]]:
    """Return ordered (prefix, count) blocks covering all ``arity`` slots."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if isinstance(variable_prefixes, str):
        variable_prefixes = (variable_prefixes,)
    if isinstance(variable_prefixes, Mapping):
        blocks = [(str(p), int(c)) for p, c in variable_prefixes.items()]
    else:
        seq = list(variable_prefixes)
        if seq and all(isinstance(p, str) for p in seq):
            if len(seq) != 1:
                raise ValueError("several prefixes need (prefix, count) pairs")
            blocks = [(seq[0], arity)]
        else:
            blocks = [(str(p), int(c)) for p, c in seq]
    if not blocks:
        raise ValueError("at least one variable prefix is required")
    seen = set()
    for prefix, count in blocks:
        if not prefix or not prefix.isalpha():
            raise ValueError(f"variable prefix must be alphabetic, got {prefix!r}")
        if prefix in seen:
            raise ValueError(f"duplicate variable prefix {prefix!r}")
        if prefix in FUNCTIONS:
            raise ValueError(f"prefix {prefix!r} collides with a function name")
        if count < 1:
            raise ValueError(f"prefix {prefix!r} needs a positive count")
        seen.add(prefix)
    if sum(c for _, c in blocks) != arity:
        raise ValueError(
            f"prefix counts {[c for _, c in blocks]} do not sum to arity {arity}"
        )
    return blocks


class _Parser:
    def __init__(self, tokens: list[_Token], blocks: list[tuple[str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.blocks = blocks

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {kind!r}, found {what}", tok.offset)
        return self.advance()

    def parse(self) -> Node:
        if self.peek().kind == "end":
            raise ParseError("empty expression", self.peek().offset)
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected {tail.text!r}", tail.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek().kind == "-":
            self.advance()
            return Negate(self.power())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                name = tok.text
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.offset)
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                want = FUNCTIONS[name]
                if len(args) != want:
                    raise ParseError(
                        f"{name} takes {want} argument(s), got {len(args)}", tok.offset
                    )
                return Call(name, tuple(args))
            return self._variable(tok)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.offset)
        raise ParseError(f"unexpected {tok.text!r}", tok.offset)

    def _variable(self, tok: _Token) -> Variable:
        base = 0
        for prefix, count in self.blocks:
            tail = tok.text[len(prefix):]
            if tok.text.startswith(prefix) and tail.isdigit():
                index = int(tail)
                if not 1 <= index <= count:
                    raise ParseError(
                        f"variable {tok.text!r} out of range 1..{count}", tok.offset
                    )
                return Variable(base + index - 1, tok.text)
            base += count
        raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)


def parse_expression(source, arity, variable_prefixes=("x",)) -> Expression:
    """Parse ``source`` into an Expression over ``arity`` point slots.

    ``variable_prefixes`` is a single prefix (all slots), or ordered
    (prefix, count) pairs / a mapping whose counts sum to ``arity``; blocks
    occupy consecutive slots, e.g. [("y", m), ("x", n)] reads points laid out
    as (y1..ym, x1..xn).  Raises ParseError with a byte offset on bad input.
    """
    blocks = _normalize_blocks(arity, variable_prefixes)
    root = _Parser(_tokenize(source), blocks).parse()
    return Expression(root=root, arity=arity)


# ---------------------------------------------------------------------------
# printing


def format_node(node: Node) -> str:
    if isinstance(node, Literal):
        text = repr(node.value)
        # the grammar has no signed literals: print the sign as a negation
        return f"(-{text[1:]})" if text.startswith("-") else text
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Negate):
        return f"(-{format_node(node.operand)})"
    if isinstance(node, Binary):
        return f"({format_node(node.left)} {node.op} {format_node(node.right)})"
    return f"{node.func}({', '.join(format_node(a) for a in node.args)})"


def format_expression(e: Expression) -> str:
    """Fully parenthesised source; reparsing evaluates bit-for-bit identically."""
    return format_node(e.root)


# ---------------------------------------------------------------------------
# evaluation


def free_variables(e: Expression) -> set[int]:
    """1-based indices of the point slots the expression actually reads."""
    out: set[int] = set()
    _collect_slots(e.root, out)
    return {slot + 1 for slot in out}


def _collect_slots(node: Node, out: set[int]) -> None:
    if isinstance(node, Variable):
        out.add(node.slot)
    elif isinstance(node, Negate):
        _collect_slots(node.operand, out)
    elif isinstance(node, Binary):
        _collect_slots(node.left, out)
        _collect_slots(node.right, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_slots(a, out)


def evaluate(e: Expression, point: Sequence[float]) -> float:
    """Evaluate at one point (length must equal the declared arity)."""
    if len(point) != e.arity:
        raise ExpressionError(
            f"arity mismatch: expression takes {e.arity} value(s), point has {len(point)}"
        )
    return float(evaluate_many(e, np.array([point], dtype=float))[0])


def evaluate_many(e: Expression, points: np.ndarray) -> np.ndarray:
    """Evaluate at ``points`` of shape (k, arity), returning shape (k,).

    Each value is the same bit for bit whatever the other points are, so
    ``evaluate`` is one row of this.  A domain failure raises DomainError
    at the first offending point, naming the first node that fails there in
    evaluation order (children before parents, left to right).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != e.arity:
        raise ExpressionError(
            f"points must have shape (k, {e.arity}), got {pts.shape}"
        )
    bad: list[tuple[np.ndarray, str, Node]] = []
    with np.errstate(all="ignore"):
        raw = _eval_vec(e.root, pts, bad)
    values = np.empty(pts.shape[0])
    values[:] = raw
    failed = np.isnan(values)
    for mask, _, _ in bad:
        failed |= mask
    if failed.any():
        k = int(np.argmax(failed))
        for mask, message, node in bad:
            if np.broadcast_to(mask, failed.shape)[k]:
                raise DomainError(message, format_node(node))
        raise DomainError("evaluation produced NaN", format_node(e.root))
    return values


def _eval_vec(node: Node, pts: np.ndarray, bad: list):
    """Values of ``node`` at every point.

    A node that fails at some point appends (failure mask, message, node)
    to ``bad``, after its children's entries; the messages are Python's
    ``math`` module's for the same failures.
    """
    if isinstance(node, Literal):
        return np.float64(node.value)
    if isinstance(node, Variable):
        return pts[:, node.slot]
    if isinstance(node, Negate):
        return -_eval_vec(node.operand, pts, bad)
    if isinstance(node, Binary):
        a = _eval_vec(node.left, pts, bad)
        b = _eval_vec(node.right, pts, bad)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            _tag(bad, b == 0.0, "division by zero", node)
            return a / b
        r = np.power(a, b)
        if not np.isfinite(r).all():
            # finite inputs with a non-finite result: a NaN or a pole is a
            # domain error, any other infinity an overflow
            failed = ~np.isfinite(r) & np.isfinite(a) & np.isfinite(b)
            pole = np.isnan(r) | (a == 0.0)
            _tag(bad, failed & pole, "invalid power (math domain error)", node)
            _tag(bad, failed & ~pole, "invalid power (math range error)", node)
        return r
    args = [_eval_vec(a, pts, bad) for a in node.args]
    f = node.func
    if f == "min":
        return np.minimum(args[0], args[1])
    if f == "max":
        return np.maximum(args[0], args[1])
    if f == "abs":
        return np.abs(args[0])
    if f == "exp":
        r = np.exp(args[0])
        if not np.isfinite(r).all():
            _tag(bad, np.isinf(r) & np.isfinite(args[0]), "invalid exp (math range error)", node)
        return r
    if f == "log":
        _tag(bad, args[0] <= 0.0, "invalid log (math domain error)", node)
        return np.log(args[0])
    _tag(bad, args[0] < 0.0, "invalid sqrt (math domain error)", node)
    return np.sqrt(args[0])


def _tag(bad: list, mask, message: str, node: Node) -> None:
    if mask.any():
        bad.append((mask, message, node))


def substitute_variables(e: Expression, replacements: Sequence[Node], arity: int) -> Expression:
    """Replace each variable slot with the given node; result has ``arity`` slots."""
    if len(replacements) != e.arity:
        raise ValueError(
            f"need {e.arity} replacement node(s), got {len(replacements)}"
        )
    return Expression(root=_subst(e.root, replacements), arity=arity)


def _subst(node: Node, repl: Sequence[Node]) -> Node:
    if isinstance(node, Literal):
        return node
    if isinstance(node, Variable):
        return repl[node.slot]
    if isinstance(node, Negate):
        return Negate(_subst(node.operand, repl))
    if isinstance(node, Binary):
        return Binary(node.op, _subst(node.left, repl), _subst(node.right, repl))
    return Call(node.func, tuple(_subst(a, repl) for a in node.args))
