"""Exact evaluation of the arithmetic text in documents.

This is the one reader of formula text: bracket coefficients evaluate to
Fractions, rational-function text to elements of the chart's rational
function field, exponential-polynomial text to ExpPolys over the chart.
The text is parsed with :mod:`ast` and walked, never evaluated as Python.
Admitted are numeric literals (read from their source text, so long
decimals stay exact), bound names, unary +/-, ``+ - * /``, ``**`` or
``^`` with an integer exponent, and calls of the one-argument functions a
caller allows (exp, cos and sin for exponential polynomials, none for the
others).  Anything else (other calls, attributes, subscripts,
comparisons, ...), and an operation the target ring lacks or that
overflows, is a :class:`~liequad.errors.SchemaError`.  A plain rational
value (a parameter, a log coefficient, a basepoint coordinate) is read by
`read_fraction` instead, in the grammar of ``Fraction(str)``.
"""

from __future__ import annotations

import ast
import operator
from fractions import Fraction
from typing import Callable, Mapping

from .errors import SchemaError

_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def evaluate_text(
    text,
    names: Mapping[str, object],
    number: Callable[[Fraction], object] = lambda q: q,
    what: str = "coefficient",
    unbound: str = "bind all parameters",
    functions: Mapping[str, Callable[[object], object]] = {},
):
    """Value of ``text`` in the ring of ``names``' values.

    ``number`` embeds a literal (a Fraction) into that ring.  Exponents are
    evaluated in Fractions, so they may use only names bound to Fractions.
    ``what`` names the text in error messages and ``unbound`` says how to
    fix a name that is not bound.  ``functions`` maps a function name to
    its one-argument value in the ring; it may raise ValueError.
    """
    source = str(text).strip().replace("^", "**")

    def value(node, numeric: bool):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            q = Fraction(ast.get_source_segment(source, node))
            return q if numeric else number(q)
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise SchemaError(f"{what} {text!r} uses the unbound name {node.id!r}; {unbound}")
            v = names[node.id]
            if numeric and not isinstance(v, Fraction):
                raise SchemaError(f"{what} {text!r} has a non-constant exponent")
            return v
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            x = value(node.operand, numeric)
            return -x if isinstance(node.op, ast.USub) else x
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](value(node.left, numeric), value(node.right, numeric))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = value(node.right, True)
            if exponent.denominator != 1:
                raise SchemaError(f"{what} {text!r} has the non-integer exponent {exponent}")
            return value(node.left, numeric) ** exponent.numerator
        if (
            isinstance(node, ast.Call) and not numeric and isinstance(node.func, ast.Name)
            and node.func.id in functions and len(node.args) == 1 and not node.keywords
        ):
            return functions[node.func.id](value(node.args[0], False))
        raise SchemaError(f"bad {what} {text!r}: {type(node).__name__} is not allowed")

    try:
        return value(ast.parse(source, mode="eval").body, False)
    except ZeroDivisionError as exc:
        raise SchemaError(f"bad {what} {text!r}: division by zero") from exc
    except (OverflowError, SyntaxError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {what} {text!r}: {exc}") from exc


def read_fraction(text, what: str) -> Fraction:
    """The rational ``str(text)`` spells in the grammar of ``Fraction(str)``,
    such as ``-3/4`` or ``1.5e-3``; malformed text or a zero denominator
    is a SchemaError that names ``what``."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what} must be rational, got {text!r}") from exc
