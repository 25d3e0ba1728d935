"""Parser, printer, and evaluator tests for the expression grammar."""

from __future__ import annotations

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
from measurelp.expressions import Binary, Call, Literal, Negate, Variable
from oracles import reference_evaluate


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
