"""Scalar expression language used for objectives, moment functions, and kernels.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] power
    power  := atom ['^' factor]
    atom   := NUMBER | VARIABLE | '(' expr ')' | IDENT '(' expr (',' expr)* ')'

'^' is right-associative and binds tighter than unary minus, so -2^2 == -4.
An expression may nest at most ``MAX_DEPTH`` levels, a chain of operators
included, so that neither parsing nor valuing it runs out of Python stack.
Numbers use standard float syntax including exponent form.  Variables are a
prefix followed by a 1-based index ("x1", "x2", ...); kernels use two prefix
blocks ("y1..ym" then "x1..xn") laid out consecutively in the evaluation point.

There is one evaluator, ``_Program``: it compiles a tuple of expressions
into a straight-line numpy program whose structurally equal subtrees are
computed once, and values them all at a batch of points in one pass.
``evaluate_many`` is its one-row case and ``evaluate`` one point of that.
``moment`` values all of a box's functions with one program per box, and
``density`` each expression with its own; both run them through
``_problem_table``, which rejects a non-finite value naming the box or
expression.  A program of one variable also has a second reading of the
same steps, ``_Program.polynomial``: each row as a piecewise polynomial on
an interval, where it is one.  The programs live in ``_problem_cache``, one
cache of what is built from the last problem valued, emptied when another
is valued; it also holds ``moment``'s exchange scan mesh, seed cuts and
polynomial pieces, which both exchange loops of a problem share.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

FUNCTIONS = {"min": 2, "max": 2, "abs": 1, "exp": 1, "log": 1, "sqrt": 1}
# most levels an expression may nest: a number or variable is one level, and
# each operator, call or pair of parentheses one more than what it encloses;
# parsing a level takes at most 5 Python frames, and valuing it one
MAX_DEPTH = 100


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
        node, _ = self.expr(0)
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected {tail.text!r}", tail.offset)
        return node

    # Each method parses at ``outer`` enclosing levels and returns the node
    # with its depth: ``outer`` plus its own levels.

    @staticmethod
    def _level(depth: int, tok: _Token) -> int:
        """``depth``, or ParseError at ``tok`` when it is past ``MAX_DEPTH``."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok.offset)
        return depth

    def expr(self, outer: int) -> tuple[Node, int]:
        node, depth = self.term(outer)
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            right, d = self.term(outer)
            node, depth = Binary(tok.kind, node, right), self._level(max(depth, d) + 1, tok)
        return node, depth

    def term(self, outer: int) -> tuple[Node, int]:
        node, depth = self.factor(outer)
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            right, d = self.factor(outer)
            node, depth = Binary(tok.kind, node, right), self._level(max(depth, d) + 1, tok)
        return node, depth

    def factor(self, outer: int) -> tuple[Node, int]:
        if self.peek().kind == "-":
            tok = self.advance()
            node, depth = self.power(outer)
            return Negate(node), self._level(depth + 1, tok)
        return self.power(outer)

    def power(self, outer: int) -> tuple[Node, int]:
        base, depth = self.atom(outer)
        if self.peek().kind == "^":
            tok = self.advance()
            exponent, d = self.factor(outer + 1)
            return Binary("^", base, exponent), self._level(max(depth + 1, d), tok)
        return base, depth

    def atom(self, outer: int) -> tuple[Node, int]:
        tok = self.peek()
        depth = self._level(outer + 1, tok)  # parentheses and calls parse their insides at it
        if tok.kind == "num":
            self.advance()
            return Literal(float(tok.text)), depth
        if tok.kind == "(":
            self.advance()
            found = self.expr(depth)
            self.expect(")")
            return found
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                name = tok.text
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.offset)
                self.advance()
                args = [self.expr(depth)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr(depth))
                self.expect(")")
                want = FUNCTIONS[name]
                if len(args) != want:
                    raise ParseError(
                        f"{name} takes {want} argument(s), got {len(args)}", tok.offset
                    )
                return Call(name, tuple(a for a, _ in args)), max(d for _, d in args)
            return self._variable(tok), depth
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
    as (y1..ym, x1..xn).  Raises ParseError with a byte offset on bad input,
    and on an expression nested deeper than ``MAX_DEPTH`` levels.
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

    This is the one-row case of ``_Program``, the evaluator behind every
    value in the package.  Each value is the same bit for bit whatever the
    other points are, so ``evaluate`` is one row of this.  A domain failure
    raises DomainError at the first offending point, naming the first node
    that fails there in evaluation order (children before parents, left to
    right); a NaN that no node is blamed for names the whole expression.
    """
    return _Program((e,)).run(points)[0][0]


# ufuncs by op; negation is "neg"
_UFUNCS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.divide, "^": np.power, "min": np.minimum, "max": np.maximum,
    "abs": np.absolute, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
}
# correctly rounded or exact, so a result written into a dead operand's
# buffer has the bits of a fresh one; only a NaN's sign or payload may
# differ, and no op turns a NaN into a number that depends on them
_IN_PLACE = frozenset(("neg", "+", "-", "*", "min", "max", "abs"))
# the ops that can fail on finite input; each failure gives a non-finite value
_CHECKED = frozenset(("/", "^", "exp", "log", "sqrt"))
_OPS = {ufunc: op for op, ufunc in _UFUNCS.items()}

# the highest degree ``_Program.polynomial`` reads a row at
MAX_POLYNOMIAL_DEGREE = 16
# the most pieces it reads a register or a program as: each ``min``, ``max``
# or ``abs`` can double them, so a short nest of ``abs`` could ask for 2^33
MAX_POLYNOMIAL_PIECES = 1024
_EPS = np.finfo(float).eps
# ``_real_roots``: a coefficient this small against its row's largest is a
# zero, and an eigenvalue this close to the real axis a real root
_ROOT_TRIM = 1e-13
_REAL_ROOT_IMAG = 1e-6
_NO_BREAKS = np.zeros(0)


class _Program:
    """A tuple of same-arity expressions compiled to one straight-line program.

    Nodes are numbered in postorder, expression after expression, and a
    subtree equal to one already numbered (the same op on the same operand
    registers; literals compared by bit pattern, so 0.0 and -0.0 differ)
    reuses its register.  ``run`` values every expression at points of
    shape (k, arity) into a (len(exprs), k) table under one ``errstate``.
    Each register is dropped after its last use, a row is copied into the
    table as soon as its root is computed, and an exact op (``+ - *``,
    negation, ``min max abs``) writes into an operand's buffer when that
    operand is a column the program allocated and this is its last use, so
    a long chain holds only a few columns.  Every op is the same ufunc on
    the same operands as when its expression is valued alone, so every row
    is too, bit for bit.

    Only ``/ ^ exp log sqrt`` can fail on finite operands, and each failure
    gives a non-finite value there, so a run whose checked nodes and table
    are finite failed nowhere.  Otherwise the program runs again recording
    each checked node's failure masks, and the rows are diagnosed in order:
    a row fails at its first NaN or failing point, blaming the first node
    in its own postorder that fails there, and the first failing row
    raises its DomainError.
    """

    def __init__(self, exprs: Sequence[Expression]):
        self.arity = exprs[0].arity
        if any(e.arity != self.arity for e in exprs):
            raise ValueError("a program's expressions must share one arity")
        self.roots = tuple(e.root for e in exprs)
        registers: dict[tuple, int] = {}
        constants: list = []  # a literal's value, else None (filled per run)
        column: list[bool] = []  # whether a register holds a (k,) array
        slots: list[tuple[int, int]] = []  # (register, point slot)
        code: list[tuple[str, tuple[int, ...], int]] = []  # (op, operands, result)

        def compile_node(node: Node, checked: dict) -> int:
            kind = type(node)
            if kind is Binary:
                operands = (compile_node(node.left, checked), compile_node(node.right, checked))
                key = (node.op,) + operands
            elif kind is Literal:
                operands, key = (), ("lit", struct.pack("<d", node.value))
            elif kind is Variable:
                operands, key = (), ("var", node.slot)
            elif kind is Negate:
                operands = (compile_node(node.operand, checked),)
                key = ("neg",) + operands
            else:
                operands = tuple(compile_node(a, checked) for a in node.args)
                key = (node.func,) + operands
            reg = registers.get(key)
            if reg is None:
                reg = registers[key] = len(column)
                # a variable is a column, an op on a column a fresh column,
                # and an op on literals alone a scalar
                if kind is Literal:
                    column.append(False)
                    constants.append(np.float64(node.value))
                else:
                    constants.append(None)
                    if kind is Variable:
                        column.append(True)
                        slots.append((reg, node.slot))
                    else:
                        column.append(column[operands[0]] or column[operands[-1]])
                        code.append((key[0], operands, reg))
            if key[0] in _CHECKED and reg not in checked:
                checked[reg] = node
            return reg

        self._checks: list[tuple[tuple[int, Node], ...]] = []  # per row, in postorder
        roots = []
        for root in self.roots:
            checked: dict[int, Node] = {}
            roots.append(compile_node(root, checked))
            self._checks.append(tuple(checked.items()))
        self._constants, self._slots = constants, slots
        self._link(code, column, roots)

    def _link(self, code, column, roots) -> None:
        """Attach buffer reuse, register release and row stores to the steps.

        A row is stored right after the step that computes its root, and a
        row whose root is a literal or a variable after the last step; a
        register is dropped after its last use as an operand, or after its
        stores if it has none.
        """
        last = {}
        for i, (_, operands, _) in enumerate(code):
            for r in operands:
                last[r] = i
        owned = {reg for _, _, reg in code if column[reg]}  # a variable is a view
        rows_of: dict[int, list[int]] = {}
        for row, r in enumerate(roots):
            rows_of.setdefault(r, []).append(row)
        computed = {reg for _, _, reg in code}
        self._leaf_rows = tuple((row, r) for row, r in enumerate(roots) if r not in computed)
        steps = []
        for i, (op, operands, reg) in enumerate(code):
            dying = tuple({r for r in operands if r in owned and last[r] == i})
            out = dying[0] if dying and op in _IN_PLACE else -1
            rows = tuple(rows_of.get(reg, ()))
            b = operands[1] if len(operands) > 1 else -1
            check = op if op in _CHECKED else None
            steps.append((_UFUNCS[op], operands[0], b, reg, out, check, dying, rows, reg in last))
        self._steps = tuple(steps)

    def run(self, points) -> tuple[np.ndarray, bool]:
        """The (len(exprs), k) table at ``points``, and whether all of it is finite.

        Raises DomainError as ``evaluate_many`` would on the first failing
        row; an infinity that no node is blamed for is returned.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ExpressionError(
                f"points must have shape (k, {self.arity}), got {pts.shape}"
            )
        with np.errstate(all="ignore"):
            table, checked_finite = self._execute(pts, None)
            finite = bool(np.isfinite(table).all())
            if not (checked_finite and finite):
                bad: dict[int, list] = {}
                self._execute(pts, bad)
                self._diagnose(table, bad)
        return table, finite

    def _execute(self, pts: np.ndarray, bad: dict | None):
        """One pass; returns (table, whether every checked node was finite).

        With ``bad`` None the checked values are summed into one number,
        which is finite if they all were (it may also overflow, which only
        costs the second pass); otherwise each checked node that is not
        finite puts its failures in ``bad``.  The table is allocated at the
        first store, once the columns before it are dropped.
        """
        regs = list(self._constants)
        for reg, slot in self._slots:
            regs[reg] = pts[:, slot]
        shape = (len(self.roots), pts.shape[0])
        table = None
        total = 0.0
        for ufunc, a, b, reg, out, check, dying, rows, keep in self._steps:
            x = regs[a]
            if b < 0:
                y = None
                value = ufunc(x) if out < 0 else ufunc(x, out=regs[out])
            else:
                y = regs[b]
                value = ufunc(x, y) if out < 0 else ufunc(x, y, out=regs[out])
            if check is not None:
                if bad is None:
                    total += value.sum()
                elif not np.isfinite(value).all():
                    bad[reg] = _failures(check, x, y, value)
            for r in dying:
                regs[r] = None
            if rows:
                x = y = None  # dropped operands are not held while the table is made
                if table is None:
                    table = np.empty(shape)
                for row in rows:
                    table[row] = value
            if keep:
                regs[reg] = value
            else:
                value = None  # not held while the next step runs
        if table is None:
            table = np.empty(shape)
        for row, r in self._leaf_rows:
            table[row] = regs[r]
        return table, bool(np.isfinite(total))

    def _diagnose(self, table: np.ndarray, bad: dict) -> None:
        """Raise the first failing row's DomainError, as if valued alone."""
        for row, checks in enumerate(self._checks):
            tags = [(mask, message, node) for r, node in checks for mask, message in bad.get(r, ())]
            failed = np.isnan(table[row])
            for mask, _, _ in tags:
                failed |= mask
            if failed.any():
                k = int(np.argmax(failed))
                for mask, message, node in tags:
                    if np.broadcast_to(mask, failed.shape)[k]:
                        raise DomainError(message, format_node(node))
                raise DomainError("evaluation produced NaN", format_node(self.roots[row]))

    def polynomial(self, lo: float, hi: float):
        """Every row as a piecewise polynomial in ``t = (x - lo) / (hi - lo)``, or None.

        A second reading of ``_steps`` for a program of one variable on
        ``[lo, hi]``: a register holds breakpoints inside (0, 1), one array
        of power coefficients in t per piece between them, and two floats,
        its size (a bound on every term it sums, for t in [0, 1]) and the
        rounding its coefficients carry, to first order.  ``+ - *`` and
        negation act piece by piece, and ``^`` by an integer constant from
        0 up repeats ``*``; ``min``, ``max`` and ``abs`` add the real roots
        of the difference (of the operand, for ``abs``) as breakpoints and
        keep, on each piece, the operand that wins at its midpoint.

        Returns ``(breaks, coeffs, error)``: ``breaks`` every row's
        breakpoints, sorted; ``coeffs`` of shape (rows, pieces, degree + 1),
        with row r's coefficients on the piece from ``breaks[k - 1]`` to
        ``breaks[k]`` (0 and 1 at the ends) in ``coeffs[r, k]``; and
        ``error[r]`` a first-order bound on how far Horner's rule on row r's
        coefficients may be from the row anywhere on ``[lo, hi]``.  None
        for more than one variable, ``/``, ``exp``, ``log``, ``sqrt``, a
        power that is not such an integer, a degree above
        ``MAX_POLYNOMIAL_DEGREE``, or ``MAX_POLYNOMIAL_PIECES`` pieces or
        more in a register or in all rows together.

        The bound grows with the size of the terms that cancel: for
        ``1 - (1000*(x1 - 0.7))^6`` on [0, 1] it is about 1.5e5, though the
        row is near 1 at 0.7.  So the coefficients locate points (a minimum, say),
        ``run`` values them, and a caller checks ``error`` before trusting
        a value read from them.
        """
        if self.arity != 1:
            return None
        regs: list = [None if c is None else _constant(c) for c in self._constants]
        size = abs(lo) + abs(hi - lo)
        for reg, _ in self._slots:
            regs[reg] = _NO_BREAKS, np.array([[lo, hi - lo]]), size, _EPS * size
        rows: list = [None] * len(self.roots)
        for ufunc, a, b, reg, _, _, _, stored, _ in self._steps:
            value = _polynomial_step(_OPS[ufunc], regs[a], regs[b] if b >= 0 else None)
            if value is None or len(value[0]) >= MAX_POLYNOMIAL_PIECES:
                return None
            regs[reg] = value
            for row in stored:
                rows[row] = value
        for row, r in self._leaf_rows:
            rows[row] = regs[r]
        breaks = np.unique(np.concatenate([r[0] for r in rows]))
        if len(breaks) >= MAX_POLYNOMIAL_PIECES:
            return None
        width = max(r[1].shape[1] for r in rows)
        left = np.concatenate([[0.0], breaks])
        return (
            breaks,
            np.stack([_padded(c, width)[np.searchsorted(b, left, "right")] for b, c, *_ in rows]),
            np.array([r[3] for r in rows]),
        )


def _constant(value) -> tuple:
    return _NO_BREAKS, np.array([[float(value)]]), abs(float(value)), 0.0


def _padded(coeffs: np.ndarray, width: int) -> np.ndarray:
    """``coeffs`` with zero columns appended up to ``width``."""
    extra = width - coeffs.shape[1]
    return np.concatenate([coeffs, np.zeros((len(coeffs), extra))], axis=1) if extra else coeffs


def _aligned(a: tuple, b: tuple) -> tuple:
    """(breaks, a's pieces, b's pieces) on the union of two registers' breakpoints."""
    (ba, ca, *_), (bb, cb, *_) = a, b
    if ba is bb or not (len(ba) or len(bb)):
        return ba, ca, cb
    breaks = np.union1d(ba, bb)
    left = np.concatenate([[0.0], breaks])
    return breaks, ca[np.searchsorted(ba, left, "right")], cb[np.searchsorted(bb, left, "right")]


def _times(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The product of two polynomials on each piece: (pieces, wa + wb - 1)."""
    if ca.shape[1] == 1 or cb.shape[1] == 1:  # a constant on each piece
        return ca * cb
    if len(ca) == 1:
        return np.convolve(ca[0], cb[0])[None]
    out = np.zeros((len(ca), ca.shape[1] + cb.shape[1] - 1))
    for i in range(ca.shape[1]):
        out[:, i:i + cb.shape[1]] += ca[:, i:i + 1] * cb
    return out


def _product(ca, sa: float, ea: float, cb, sb: float, eb: float) -> tuple:
    """(coeffs, size, error) of the product of two polynomials on the same pieces.

    Each product coefficient sums at most min(wa, wb) rounded products.
    """
    terms = min(ca.shape[1], cb.shape[1])
    return _times(ca, cb), sa * sb, ea * (sb + eb) + eb * sa + terms * _EPS * sa * sb


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each row's power series at its own t, by Horner's rule."""
    value = coeffs[:, -1]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        value = value * t + coeffs[:, j]
    return value


def _polynomial_step(op: str, a: tuple, b: tuple | None):
    """``_Program.polynomial``'s register for one step, or None."""
    breaks, ca, sa, ea = a
    if op == "neg":
        return breaks, -ca, sa, ea
    if op == "abs":
        return _select("max", a, (breaks, -ca, sa, ea))
    if op in ("min", "max"):
        return _select(op, a, b)
    if op == "^":
        cb = b[1]
        k = cb[0, 0] if cb.shape == (1, 1) else -1.0  # (1, 1): one constant piece
        top = MAX_POLYNOMIAL_DEGREE
        if not (0 <= k <= top and k == int(k) and (ca.shape[1] - 1) * k <= top):
            return None
        out = np.ones((len(ca), 1)), 1.0, 0.0
        for _ in range(int(k)):
            out = _product(*out, ca, sa, ea)
        return (breaks,) + out
    if op not in ("+", "-", "*"):
        return None  # /, exp, log or sqrt
    breaks, ca, cb = _aligned(a, b)
    sb, eb = b[2], b[3]
    if op == "*":
        out = _product(ca, sa, ea, cb, sb, eb)
        return (breaks,) + out if out[0].shape[1] - 1 <= MAX_POLYNOMIAL_DEGREE else None
    out = np.zeros((len(ca), max(ca.shape[1], cb.shape[1])))
    out[:, : ca.shape[1]] = ca
    if op == "+":
        out[:, : cb.shape[1]] += cb
    else:
        out[:, : cb.shape[1]] -= cb
    return breaks, out, sa + sb, ea + eb + _EPS * (sa + sb)


def _select(op: str, a: tuple, b: tuple) -> tuple:
    """``min`` or ``max`` of two registers: new breakpoints where they cross.

    ``min`` and ``max`` move no value by more than the larger of the
    operands' errors; where a rounded breakpoint keeps the losing operand,
    the two differ by no more than the rounding of their difference, so
    that is added.
    """
    breaks, ca, cb = _aligned(a, b)
    width = max(ca.shape[1], cb.shape[1])
    ca, cb = _padded(ca, width), _padded(cb, width)
    diff = ca - cb
    left, right = np.concatenate([[0.0], breaks]), np.concatenate([breaks, [1.0]])
    piece, roots = _real_roots(diff)
    inside = (roots > left[piece]) & (roots < right[piece])
    split = np.unique(np.concatenate([breaks, roots[inside]]))
    left, right = np.concatenate([[0.0], split]), np.concatenate([split, [1.0]])
    source = np.searchsorted(breaks, left, "right")  # the piece each new one lies in
    lower = _horner(diff[source], (left + right) / 2.0) <= 0.0
    take_a = lower if op == "min" else ~lower
    (sa, ea), (sb, eb) = a[2:], b[2:]
    error = max(ea, eb) + width * _EPS * (sa + sb)
    return split, np.where(take_a[:, None], ca[source], cb[source]), max(sa, sb), error


def _real_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, root)`` for every real root of every row's power series.

    A row's degree is that of its last coefficient above ``_ROOT_TRIM``
    times its largest, and a row of degree k gives the eigenvalues of its
    k x k companion matrix, the rows of one degree in one batched
    ``np.linalg.eigvals``; an eigenvalue within ``_REAL_ROOT_IMAG`` of the
    real axis counts as a real root, by its real part.
    """
    n, width = coeffs.shape
    rows, roots = [np.zeros(0, dtype=int)], [np.zeros(0)]
    if width < 2 or not n:
        return rows[0], roots[0]
    size = np.abs(coeffs)
    live = size > _ROOT_TRIM * size.max(axis=1, keepdims=True)
    if live[:, -1].all():  # every row of the full degree, the usual case
        return _companion_roots(coeffs)
    degree = np.where(live.any(axis=1), width - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    for k in sorted(set(degree.tolist()) - {0}):
        sel = np.flatnonzero(degree == k)
        r, found = _companion_roots(coeffs[sel, : k + 1])
        rows.append(sel[r])
        roots.append(found)
    return np.concatenate(rows), np.concatenate(roots)


def _companion_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_real_roots`` of rows whose last coefficients are all nonzero."""
    n, k = coeffs.shape[0], coeffs.shape[1] - 1
    if k == 1:
        return np.arange(n), -coeffs[:, 0] / coeffs[:, 1]
    companion = np.zeros((n, k, k))
    companion[:, 1:, :-1] = np.eye(k - 1)
    companion[:, :, -1] = coeffs[:, :k] / -coeffs[:, k:]
    eig = np.linalg.eigvals(companion)
    r, j = np.nonzero(np.abs(eig.imag) <= _REAL_ROOT_IMAG)
    return r, eig.real[r, j]


# what is kept for the last problem valued: (problem, {key: entry}); an int
# key holds a compiled program, a tuple key a caller's read-only arrays
_PROGRAMS: tuple = (None, {})


def _problem_cache(problem) -> dict:
    """The cache of ``problem``, emptied first if another problem was valued last.

    A solve and its checks value one problem many times, so what they build
    from it alone is kept while it is the last problem valued.  A problem is
    frozen and held here, so its identity and its expressions' are safe
    keys, and the problems a caller keeps hold nothing.
    """
    global _PROGRAMS
    cached, entries = _PROGRAMS
    if cached is not problem:
        entries = {}
        _PROGRAMS = (problem, entries)
    return entries


def _problem_program(problem, key, exprs: Callable) -> _Program:
    """``problem``'s program of ``exprs()`` under ``key``, compiled on first use.

    It is kept in ``_problem_cache`` under the int ``key`` (a box index, or
    an expression's ``id``); the tuple keys there are the callers' own, such
    as ``moment``'s scan mesh, seed cuts and polynomial pieces.
    """
    programs = _problem_cache(problem)
    program = programs.get(key)
    if program is None:
        program = programs[key] = _Program(exprs())
    return program


def _problem_table(problem, key, exprs: Callable, points, where: str) -> np.ndarray:
    """The table of ``exprs()`` at ``points``, run on ``_problem_program``'s program.

    A non-finite value raises ValueError naming ``where``.
    """
    table, finite = _problem_program(problem, key, exprs).run(points)
    if not finite:
        raise ValueError(f"non-finite function value in {where}")
    return table


def _failures(op: str, a, b, r) -> list[tuple[np.ndarray, str]]:
    """(mask, message) for each way a checked op failed at some point.

    ``a`` and ``b`` are the operands (``b`` None for a function of one
    argument) and ``r`` the result.  The messages are Python's ``math``
    module's for the same failures.
    """
    if op == "/":
        tags = [(b == 0.0, "division by zero")]
    elif op == "^":
        # finite inputs with a non-finite result: a NaN or a pole is a
        # domain error, any other infinity an overflow
        failed = ~np.isfinite(r) & np.isfinite(a) & np.isfinite(b)
        pole = np.isnan(r) | (a == 0.0)
        tags = [
            (failed & pole, "invalid power (math domain error)"),
            (failed & ~pole, "invalid power (math range error)"),
        ]
    elif op == "exp":
        tags = [(np.isinf(r) & np.isfinite(a), "invalid exp (math range error)")]
    elif op == "log":
        tags = [(a <= 0.0, "invalid log (math domain error)")]
    else:
        tags = [(a < 0.0, "invalid sqrt (math domain error)")]
    return [(mask, message) for mask, message in tags if mask.any()]


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
