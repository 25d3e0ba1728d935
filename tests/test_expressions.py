"""Parser, printer, and evaluator tests for the expression grammar."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from measurelp import (
    DomainError,
    Expression,
    ParseError,
    evaluate,
    evaluate_many,
    format_expression,
    free_variables,
    parse_expression,
)
from measurelp.expressions import (
    MAX_DEPTH,
    MAX_POLYNOMIAL_DEGREE,
    MAX_POLYNOMIAL_PIECES,
    Binary,
    Call,
    Literal,
    Negate,
    Variable,
    _Program,
)
from oracles import piecewise_horner, random_polynomial_source, reference_evaluate


def ev(source: str, *point: float, arity: int | None = None) -> float:
    e = parse_expression(source, arity if arity is not None else max(1, len(point)))
    return evaluate(e, point or (0.0,))


def random_node(rng, depth, full=False):
    """Random tree over two variables with + - * / min max abs and negation.

    ``full`` puts operators at every level above the leaves.
    """
    kind = rng.integers(2 if full and depth > 0 else 0, 5 if depth > 0 else 2)
    if kind == 0:
        return Literal(float(np.round(rng.uniform(-4.0, 4.0), 3)))
    if kind == 1:
        slot = int(rng.integers(0, 2))
        return Variable(slot, f"x{slot + 1}")
    if kind == 2:
        return Negate(random_node(rng, depth - 1, full))
    if kind == 3:
        op = ("+", "-", "*", "/")[rng.integers(0, 4)]
        return Binary(op, random_node(rng, depth - 1, full), random_node(rng, depth - 1, full))
    name = ("min", "max", "abs")[rng.integers(0, 3)]
    if name == "abs":
        return Call(name, (random_node(rng, depth - 1, full),))
    return Call(name, (random_node(rng, depth - 1, full), random_node(rng, depth - 1, full)))


class TestParsing:
    def test_precedence(self):
        assert ev("2 + 3 * 4", 0.0) == 14.0
        assert ev("2 * 3 + 4", 0.0) == 10.0
        assert ev("2 ^ 3 ^ 2", 0.0) == 512.0
        assert ev("-2 ^ 2", 0.0) == -4.0
        assert ev("(-2) ^ 2", 0.0) == 4.0
        assert ev("2 - 3 - 4", 0.0) == -5.0
        assert ev("12 / 3 / 2", 0.0) == 2.0

    def test_literals(self):
        assert ev("1.5") == 1.5
        assert ev(".5") == 0.5
        assert ev("2.") == 2.0
        assert ev("1e-3") == 1e-3
        assert ev("2.5E+2") == 250.0

    def test_variables(self):
        assert ev("x1", 7.0) == 7.0
        assert ev("x2", 1.0, 5.0) == 5.0
        assert ev("x1 * x2", 3.0, 4.0) == 12.0

    def test_functions(self):
        assert ev("min(2, 3)") == 2.0
        assert ev("max(2, 3)") == 3.0
        assert ev("abs(0 - 4)") == 4.0
        assert ev("exp(0)") == 1.0
        assert ev("log(1)") == 0.0
        assert ev("sqrt(9)") == 3.0
        assert ev("max(x1 - 1, 0)", 3.0) == 2.0

    def test_whitespace_and_nesting(self):
        assert ev("  max( min(1,2) , 0 )  ") == 1.0
        assert ev("((x1))", 2.0) == 2.0

    def test_variable_blocks(self):
        e = parse_expression("y1 * x1 + y2", 3, (("y", 2), ("x", 1)))
        assert evaluate(e, (2.0, 3.0, 5.0)) == 2.0 * 5.0 + 3.0
        assert free_variables(e) == {1, 2, 3}  # 1-based point slots

    def test_parse_errors(self):
        for bad in ("", "2 +", "x0", "x3", "foo(1)", "min(1)", "min(1,2,3)",
                    "2 2", "(1", "1)", "x", "@", "1..2"):
            with pytest.raises(ParseError):
                parse_expression(bad, 2)

    def test_parse_error_reports_offset(self):
        with pytest.raises(ParseError, match="byte offset"):
            parse_expression("1 + * 2", 1)

    @pytest.mark.parametrize("nest", [
        lambda k: "(" * k + "x1" + ")" * k,
        lambda k: "x1" + "^2" * k,
        lambda k: "x1" + "-x1" * k,
        lambda k: "exp(" * k + "x1" + ")" * k,
    ], ids=["parentheses", "powers", "differences", "calls"])
    def test_depth_limit(self, nest):
        # a number or variable is one level, each operator, call or pair of
        # parentheses one more, so k of them nest k + 1 levels
        parse_expression(nest(MAX_DEPTH - 1), 1)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse_expression(nest(MAX_DEPTH), 1)

    def test_arity_validation(self):
        with pytest.raises(ParseError):
            parse_expression("x2", 1)
        parse_expression("x2", 2)  # fine


class TestEvaluation:
    def test_domain_errors(self):
        for src, pt in (
            ("log(x1)", (-1.0,)),
            ("log(x1)", (0.0,)),
            ("sqrt(x1)", (-4.0,)),
            ("x1 / 0", (1.0,)),
            ("0 ^ -1", (0.0,)),
            ("(0-2) ^ 0.5", (0.0,)),
        ):
            e = parse_expression(src, 1)
            with pytest.raises(DomainError):
                evaluate(e, pt)

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        exact = (
            "1 + x1 * x2 - x2 ^ 2",
            "max(x1 - x2, 0) + min(x1, 1)",
            "abs(x1) + sqrt(abs(x2) + 1)",
        )
        for src in exact:
            e = parse_expression(src, 2)
            pts = rng.uniform(-3.0, 3.0, (200, 2))
            batch = evaluate_many(e, pts)
            singles = np.array([reference_evaluate(e, p) for p in pts])
            assert np.array_equal(batch, singles)
        # numpy's vectorized exp/log may differ from libm by an ulp
        e = parse_expression("exp(0 - abs(x1)) + log(1 + abs(x2))", 2)
        pts = rng.uniform(-3.0, 3.0, (200, 2))
        batch = evaluate_many(e, pts)
        singles = np.array([reference_evaluate(e, p) for p in pts])
        np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=0.0)

    def test_evaluation_is_pure(self):
        e = parse_expression("x1 ^ 3 - 2 * x1 + max(x2, 0.5)", 2)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-5.0, 5.0, (100_000, 2))
        first = evaluate_many(e, pts)
        second = evaluate_many(e, pts)
        assert np.array_equal(first, second)

    def test_first_failing_node_is_named(self):
        # several nodes fail at the same point: the first in evaluation order
        # (children before parents, left to right) is named, as the libm
        # reference walker names it
        for src, x, want in (
            ("log(x1) + sqrt(x1)", -1.0, "invalid log (math domain error) in 'log(x1)'"),
            ("sqrt(x1) + log(x1)", -1.0, "invalid sqrt (math domain error) in 'sqrt(x1)'"),
            ("1 / x1 + log(x1)", 0.0, "division by zero in '(1.0 / x1)'"),
            ("x1 ^ (0 - 1)", 0.0, "invalid power (math domain error) in '(x1 ^ (0.0 - 1.0))'"),
            ("x1 ^ 400 + exp(x1)", 10.0, "invalid power (math range error) in '(x1 ^ 400.0)'"),
            ("exp(x1) + x1 ^ 400", 1000.0, "invalid exp (math range error) in 'exp(x1)'"),
            ("x1 * 1e308 * 10 - x1 * 1e308 * 10", 1.0,
             "evaluation produced NaN in '(((x1 * 1e+308) * 10.0) - ((x1 * 1e+308) * 10.0))'"),
        ):
            e = parse_expression(src, 1)
            for call in (
                lambda: reference_evaluate(e, (x,)),
                lambda: evaluate(e, (x,)),
                lambda: evaluate_many(e, np.array([[1.0], [x], [-1.0]])),
            ):
                with pytest.raises(DomainError) as info:
                    call()
                assert str(info.value) == want

    def test_evaluate_many_domain_error(self):
        e = parse_expression("log(x1)", 1)
        with pytest.raises(DomainError):
            evaluate_many(e, np.array([[1.0], [-1.0]]))


class TestRoundTrip:
    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-2.0, 2.0, (20, 2))
        checked = 0
        for _ in range(300):
            e = Expression(random_node(rng, 4), 2)
            text = format_expression(e)
            back = parse_expression(text, 2)
            for p in pts:
                try:
                    want = reference_evaluate(e, p)
                except DomainError:
                    continue
                assert reference_evaluate(back, p) == want
                checked += 1
        assert checked > 1000

    def test_variable_nodes_round_trip(self):
        e = parse_expression("y2 * x1", 3, (("y", 2), ("x", 1)))
        text = format_expression(e)
        back = parse_expression(text, 3, (("y", 2), ("x", 1)))
        assert reference_evaluate(back, (1.0, 7.0, 3.0)) == 21.0


class TestEvaluateParity:
    """``evaluate_many`` against the libm reference walker point by point, on 20,000 points."""

    @staticmethod
    def scalar_values(e, pts):
        """Every point's reference value, or the first point's DomainError text."""
        out = np.empty(len(pts))
        for k, p in enumerate(pts):
            try:
                out[k] = reference_evaluate(e, p)
            except DomainError as exc:
                return None, str(exc)
        return out, None

    def check(self, e, pts, ulps):
        """Same DomainError, or values apart by at most ``ulps`` ulp; returns the error."""
        singles, error = self.scalar_values(e, pts)
        if error is not None:
            with pytest.raises(DomainError) as info:
                evaluate_many(e, pts)
            assert str(info.value) == error, format_expression(e)
            return error
        batch = evaluate_many(e, pts)
        if ulps == 0:
            assert np.array_equal(batch, singles), format_expression(e)
        else:
            gap = np.abs(batch - singles)
            assert np.all(gap <= ulps * np.spacing(np.abs(singles))), format_expression(e)
        return None

    def test_without_powers_exact(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-2.0, 2.0, (20_000, 2))
        clean = 0
        for _ in range(12):
            e = Expression(random_node(rng, 3, full=True), 2)
            clean += self.check(e, pts, ulps=0) is None
        assert clean >= 8

    def test_powers_within_one_ulp(self):
        # the power is the root, so the 1-ulp disagreement of math.pow and
        # np.power is not amplified by later operations
        rng = np.random.default_rng(43)
        pts = rng.uniform(-2.0, 2.0, (20_000, 2))
        errors, clean = [], 0
        for exponent in (2.0, 3.0, 4.0, -1.0, -2.0, 0.5, 1.5, -0.5):
            for _ in range(2):
                base = random_node(rng, 2, full=True)
                e = Expression(Binary("^", base, Literal(exponent)), 2)
                error = self.check(e, pts, ulps=1)
                clean += error is None
                errors.append(error)
        assert clean >= 6
        assert any(err and err.startswith("invalid power") for err in errors)

    def test_domain_errors_agree(self):
        # a dyadic grid that contains 0, so denominators and log/sqrt
        # arguments hit exactly zero
        rng = np.random.default_rng(47)
        pts = rng.integers(-32, 33, (20_000, 2)) / 16.0
        seen = set()
        for k in range(32):
            inner = random_node(rng, 2)
            # numpy's vectorized log and power may differ from libm's by an ulp
            root, ulps = (
                (Call("log", (inner,)), 1),
                (Call("sqrt", (inner,)), 0),
                (Binary("/", random_node(rng, 1), inner), 0),
                (Binary("^", inner, Literal(0.5 if k % 8 == 3 else -1.5)), 1),
            )[k % 4]
            error = self.check(Expression(root, 2), pts, ulps)
            if error:
                seen.add(error.split(" (")[0].split(" in ")[0])
        assert {"invalid log", "invalid sqrt", "division by zero", "invalid power"} <= seen

    def test_evaluate_is_one_row_of_evaluate_many(self):
        # exact, powers, exp and log included: a value does not depend on the
        # other points of its batch, and a failing point raises the same text
        rng = np.random.default_rng(53)
        pts = np.vstack([
            rng.uniform(-2.0, 2.0, (1_000, 2)),
            rng.integers(-8, 9, (200, 2)) / 4.0,  # hits 0 exactly
        ])
        rng.shuffle(pts)
        seen_error = seen_clean = 0
        for k in range(24):
            a, b = random_node(rng, 2, full=True), random_node(rng, 2, full=True)
            root = (
                Binary("^", a, Literal((2.0, 3.0, -1.0, 0.5, 1.5, -0.5)[k % 6])),
                Binary("+", Call("exp", (a,)), Call("log", (Call("abs", (b,)),))),
                Binary("*", Binary("^", Call("abs", (a,)), b), Call("sqrt", (b,))),
            )[k % 3]
            e = Expression(root, 2)
            singles, errors = np.empty(len(pts)), {}
            for g, p in enumerate(pts):
                try:
                    singles[g] = evaluate(e, p)
                except DomainError as exc:
                    errors[g] = str(exc)
            clean = np.array([g not in errors for g in range(len(pts))])
            assert np.array_equal(evaluate_many(e, pts[clean]), singles[clean])
            if errors:
                with pytest.raises(DomainError) as info:
                    evaluate_many(e, pts)
                assert str(info.value) == next(iter(errors.values())), format_expression(e)
            seen_error += bool(errors)
            seen_clean += int(clean.sum()) > 100
        assert seen_error >= 8 and seen_clean >= 16


def bits(a: np.ndarray) -> bytes:
    """The bytes of a float array: equal only if every value, sign of zero included, is."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def shared_trees(rng, count: int) -> list[Expression]:
    """``count`` expressions over two variables that share subtrees from a pool of four.

    Each puts a power, an exp or a log over its shared parts, so a program
    compiled from all of them shares checked nodes as well as exact ones.
    """
    pool = [random_node(rng, 2, full=True) for _ in range(4)]
    trees = []
    for k in range(count):
        a, b = pool[rng.integers(4)], pool[rng.integers(4)]
        trees.append((
            Binary("+", Binary("^", a, Literal(float(rng.integers(2, 5)))), b),
            Binary("*", Call("exp", (Binary("*", Literal(-0.25), Call("abs", (a,))),)), b),
            Call("log", (Binary("+", Literal(1.0), Binary("*", b, b)),)),
            Binary("-", Binary("^", Call("abs", (a,)), Literal(0.5)), a),
        )[k % 4])
    return [Expression(t, 2) for t in trees]


class TestProgram:
    """Several expressions valued by one compiled program, against one at a time."""

    def test_rows_equal_evaluate_many_bit_for_bit(self):
        rng = np.random.default_rng(59)
        pts = rng.uniform(-2.0, 2.0, (2_000, 2))
        clean = 0
        for _ in range(30):
            exprs = shared_trees(rng, 6)
            program = _Program(exprs)
            # structurally equal subtrees of different rows share their steps
            alone = sum(len(_Program((e,))._steps) for e in exprs)
            assert len(program._steps) < alone
            try:
                rows = [evaluate_many(e, pts) for e in exprs]
            except DomainError as exc:
                with pytest.raises(DomainError) as info:
                    program.run(pts)
                assert str(info.value) == str(exc)
                continue
            table, finite = program.run(pts)
            assert bits(table) == bits(np.vstack(rows))
            assert finite == bool(np.isfinite(table).all())
            clean += 1
        assert clean >= 20

    def test_operand_order_is_part_of_a_key(self):
        sources = ("x1 - x2", "x2 - x1", "x1 / x2", "x2 / x1", "(x1 - x2) / (x2 - x1 + 3)")
        exprs = [parse_expression(src, 2) for src in sources]
        pts = np.random.default_rng(61).uniform(1.0, 2.0, (50, 2))
        table, _ = _Program(exprs).run(pts)
        want = [[reference_evaluate(e, p) for p in pts] for e in exprs]
        assert bits(table) == bits(want)

    def test_signed_zero_literals_stay_apart(self):
        x1 = Variable(0, "x1")
        roots = (Literal(0.0), Literal(-0.0), Binary("*", Literal(-0.0), x1), Binary("*", Literal(0.0), x1))
        table, finite = _Program([Expression(r, 1) for r in roots]).run(np.array([[1.0], [2.0]]))
        assert finite
        assert np.signbit(table).tolist() == [[False] * 2, [True] * 2, [True] * 2, [False] * 2]

    def test_failure_hidden_by_a_later_node_still_raises(self):
        # 1/0 is inf and 1/inf is 0, so the row is finite, but the inner division failed
        e = parse_expression("1 / (1 / x1)", 1)
        program = _Program((parse_expression("x1", 1), e))
        with pytest.raises(DomainError) as info:
            program.run(np.array([[2.0], [0.0]]))
        assert str(info.value) == "division by zero in '(1.0 / x1)'"
        assert bits(program.run(np.array([[2.0], [4.0]]))[0][1]) == bits([2.0, 4.0])

    def test_first_failing_row_wins(self):
        # log fails at the last point only, sqrt at the first two
        pts = np.array([[1.0], [2.0], [-1.0]])
        log_ = parse_expression("log(x1)", 1)
        sqrt_ = parse_expression("sqrt(0 - x1)", 1)
        overflow = parse_expression("x1 * 1e308 * 10", 1)  # infinite, but no failure
        for exprs, want in (
            ((log_, sqrt_), "invalid log (math domain error) in 'log(x1)'"),
            ((sqrt_, log_), "invalid sqrt (math domain error) in 'sqrt((0.0 - x1))'"),
            ((overflow, log_), "invalid log (math domain error) in 'log(x1)'"),
        ):
            with pytest.raises(DomainError) as info:
                _Program(exprs).run(pts)
            assert str(info.value) == want
        table, finite = _Program((overflow,)).run(pts)
        assert not finite and np.isinf(table).tolist() == [[True, True, True]]

    @pytest.mark.parametrize("checked", [False, True])
    def test_long_chain_holds_few_columns(self, checked):
        # 40 nodes at 10^6 points, then minus x1*x1: each intermediate is
        # dropped after its one use and the exact ops write into it, so at
        # most two columns are live, the last two being the row and its table
        x1 = Variable(0, "x1")
        node = x1
        for k in range(40):
            if checked and k % 8 == 7:
                node = Call("sqrt", (Call("abs", (node,)),))
                continue
            node = (
                Binary("+", node, Literal(0.5)), Binary("*", Literal(0.75), node), Negate(node),
                Call("abs", (node,)), Call("max", (node, Literal(-1.0))),
            )[k % 5]
        node = Binary("-", node, Binary("*", x1, x1))
        e = Expression(node, 1)
        pts = np.linspace(-1.0, 1.0, 1_000_000)[:, None]
        program = _Program((e,))
        tracemalloc.start()
        try:
            table, finite = program.run(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * pts.nbytes
        assert finite
        for g in (0, 123_456, 999_999):
            assert table[0, g] == reference_evaluate(e, pts[g])


class TestPolynomialReading:
    """``_Program.polynomial``: a program of one variable as polynomial pieces."""

    def test_pieces_match_evaluate_many(self):
        # seeded piecewise polynomials (min, max, abs) of degree up to 8 on
        # intervals within [-1.5, 2.5], each read with a shared program
        rng = np.random.default_rng(97)
        for _ in range(60):
            exprs = [
                parse_expression(random_polynomial_source(rng, int(rng.integers(1, 9))), 1)
                for _ in range(3)
            ]
            lo = float(rng.uniform(-1.5, 0.5))
            hi = lo + float(rng.uniform(0.5, 2.0))
            breaks, coeffs, error = _Program(exprs).polynomial(lo, hi)
            assert np.all(np.diff(breaks) > 0) and np.all((breaks > 0) & (breaks < 1))
            x = np.linspace(lo, hi, 100_000)
            got = piecewise_horner(breaks, coeffs, lo, hi, x)
            piece = np.searchsorted(breaks, (x - lo) / (hi - lo), side="right")
            for row, e in enumerate(exprs):
                want = evaluate_many(e, x[:, None])
                assert np.all(np.abs(got[row] - want) <= 1e-12 * (1.0 + np.abs(want)))
                # the error bound, plus Horner's own rounding, covers the gap
                c = coeffs[row][piece]
                horner = c.shape[1] * np.finfo(float).eps * np.abs(c).sum(axis=1)
                assert np.all(np.abs(got[row] - want) <= error[row] + horner)

    def test_cancelling_terms_give_a_large_error_bound(self):
        # (1000*(x1 - 0.7))^6 has power coefficients near 1e18 on [0, 1],
        # which cancel to about 0 near 0.7: Horner's rule on them is off by
        # far more than 1 there, and the bound says so
        e = parse_expression("1 - (1000*(x1 - 0.7))^6", 1)
        breaks, coeffs, error = _Program((e,)).polynomial(0.0, 1.0)
        x = np.linspace(0.6999, 0.7001, 101)
        off = np.abs(piecewise_horner(breaks, coeffs, 0.0, 1.0, x)[0] - evaluate_many(e, x[:, None]))
        assert off.max() > 10.0 and error[0] >= off.max()
        assert _Program((parse_expression("x1^4 - x1", 1),)).polynomial(0.0, 1.0)[2].max() < 1e-14

    def test_nested_abs_past_the_piece_cap_reads_none(self):
        # each level of the tent map doubles the pieces: level k has 2^k,
        # so level 10 is read and level 11 passes MAX_POLYNOMIAL_PIECES;
        # the 33-level nest that would ask for 2^33 stops there too
        def tent(levels: int) -> str:
            source = "x1"
            for _ in range(levels):
                source = f"abs(2*{source} - 1)"
            return source

        assert MAX_POLYNOMIAL_PIECES == 1024
        breaks, _, _ = _Program((parse_expression(tent(10), 1),)).polynomial(0.0, 1.0)
        assert len(breaks) == 1023
        for levels in (11, 33):
            assert _Program((parse_expression(tent(levels), 1),)).polynomial(0.0, 1.0) is None

    def test_kinks_become_breakpoints(self):
        e = parse_expression("max(0, 1 - 100000*abs(x1 - 0.300049))", 1)
        breaks, coeffs, _ = _Program((e,)).polynomial(0.0, 1.0)
        assert breaks == pytest.approx([0.300039, 0.300049, 0.300059], abs=1e-15)
        assert coeffs.shape == (1, 4, 2)
        assert np.all(coeffs[0, [0, 3]] == 0.0)  # zero outside the spike

    @pytest.mark.parametrize("source", [
        "exp(x1)", "log(x1 + 2)", "sqrt(x1 + 2)", "1 / x1", "x1 / x1", "x1 ^ 0.5",
        "x1 ^ (-1)", "x1 ^ x1", "2 ^ x1", "x1 ^ 1e300", f"x1 ^ {MAX_POLYNOMIAL_DEGREE + 1}",
        "(x1 ^ 4) ^ 5", "x1 ^ 9 * x1 ^ 8", "x1 + 0 * exp(x1)",
    ])
    def test_what_is_not_a_polynomial_reads_none(self, source):
        program = _Program((parse_expression("x1", 1), parse_expression(source, 1)))
        assert program.polynomial(-1.0, 1.0) is None

    def test_more_than_one_variable_reads_none(self):
        assert _Program((parse_expression("x1 + x2", 2),)).polynomial(0.0, 1.0) is None

    def test_constant_subexpressions(self):
        # an op on constants is one constant piece, but / and exp are not
        # read even then
        exprs = [parse_expression(s, 1) for s in ("2 ^ 3 - min(1, 2) * x1", "x1 ^ 16", "abs(-2)")]
        breaks, coeffs, _ = _Program(exprs).polynomial(0.0, 1.0)
        assert len(breaks) == 0 and coeffs.shape == (3, 1, MAX_POLYNOMIAL_DEGREE + 1)
        assert coeffs[0, 0, :3].tolist() == [8.0, -1.0, 0.0]
        assert coeffs[1, 0, -1] == 1.0 and coeffs[2, 0, 0] == 2.0
        for source in ("x1 / 2", "exp(1) * x1", "x1 ^ 0.5"):
            assert _Program((parse_expression(source, 1),)).polynomial(0.0, 1.0) is None
