"""Index and bound expressions.

The expression language is deliberately small -- it is exactly what the
paper's loop nests need:

* :class:`Affine` -- integer-affine combinations of loop variables and
  symbolic parameters (``4*i + j + 7``).  Array subscripts, loop bounds and
  strip-mined bounds are affine.
* :class:`ElemOf` -- the value of an index-array element (``b[i]``), which
  is what makes indirect references like ``a[b[i]]`` expressible.
* :class:`MinExpr` / :class:`CeilDiv` -- produced by strip mining and by
  runtime-clamped prolog prefetch sizes.

Expressions support three evaluations: ``eval`` under a concrete
environment, ``eval_vec`` vectorized over a numpy range of one loop
variable (the interpreter's fast path), and ``try_const`` under the
compiler's *compile-time* knowledge, which returns ``None`` for anything
depending on runtime-only values -- the situation that makes the paper's
APPBT lose coverage (Section 4.1.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from repro.errors import ExecutionError, IRError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ir.arrays import ArrayDecl

ExprLike = Union["Expr", int]


class Expr:
    """Base class; arithmetic operators build affine combinations."""

    __slots__ = ()

    def __add__(self, other: ExprLike) -> "Expr":
        return affine_sum(self, as_expr(other), 1)

    def __radd__(self, other: ExprLike) -> "Expr":
        return affine_sum(as_expr(other), self, 1)

    def __sub__(self, other: ExprLike) -> "Expr":
        return affine_sum(self, as_expr(other), -1)

    def __rsub__(self, other: ExprLike) -> "Expr":
        return affine_sum(as_expr(other), self, -1)

    def __mul__(self, factor: int) -> "Expr":
        if not isinstance(factor, int):
            raise IRError(f"expressions may only be scaled by ints, got {factor!r}")
        return affine_scale(self, factor)

    __rmul__ = __mul__

    # Subclasses implement:
    def eval(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError

    def eval_vec(self, env: Mapping[str, int], var: str, values: np.ndarray):
        """Evaluate with ``var`` bound to every element of ``values``.

        Returns a numpy array or a scalar (when independent of ``var``).
        """
        raise NotImplementedError

    def try_const(self, known: Mapping[str, int]) -> int | None:
        """Compile-time value under partial knowledge, or None."""
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def eval(self, env: Mapping[str, int]) -> int:
        return self.value

    def eval_vec(self, env, var, values):
        return self.value

    def try_const(self, known) -> int | None:
        return self.value

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return str(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class Var(Expr):
    """A loop variable or symbolic program parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise IRError("variable names must be non-empty")
        self.name = name

    def eval(self, env: Mapping[str, int]) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise ExecutionError(f"unbound variable {self.name!r}") from None

    def eval_vec(self, env, var, values):
        if self.name == var:
            return values
        return self.eval(env)

    def try_const(self, known) -> int | None:
        return known.get(self.name)

    def free_vars(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


class Affine(Expr):
    """``sum(coeff * var) + const`` with integer coefficients."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: Mapping[str, int], const: int = 0) -> None:
        self.terms = {v: int(c) for v, c in terms.items() if c != 0}
        self.const = int(const)

    def eval(self, env: Mapping[str, int]) -> int:
        total = self.const
        for name, coeff in self.terms.items():
            try:
                total += coeff * env[name]
            except KeyError:
                raise ExecutionError(f"unbound variable {name!r}") from None
        return total

    def eval_vec(self, env, var, values):
        total: int | np.ndarray = self.const
        for name, coeff in self.terms.items():
            if name == var:
                total = total + coeff * values
            else:
                try:
                    total = total + coeff * env[name]
                except KeyError:
                    raise ExecutionError(f"unbound variable {name!r}") from None
        return total

    def try_const(self, known) -> int | None:
        total = self.const
        for name, coeff in self.terms.items():
            value = known.get(name)
            if value is None:
                return None
            total += coeff * value
        return total

    def free_vars(self) -> frozenset[str]:
        return frozenset(self.terms)

    def coeff(self, var: str) -> int:
        """Coefficient of ``var`` (0 if absent)."""
        return self.terms.get(var, 0)

    def __repr__(self) -> str:
        parts = []
        for name, coeff in sorted(self.terms.items()):
            if coeff == 1:
                parts.append(name)
            else:
                parts.append(f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Affine)
            and other.terms == self.terms
            and other.const == self.const
        )

    def __hash__(self) -> int:
        return hash(("Affine", tuple(sorted(self.terms.items())), self.const))


class ElemOf(Expr):
    """The runtime value of a 1-D index array element: ``array[index]``.

    ``clamp`` keeps out-of-range lookaheads (software-pipelined indirect
    prefetches running past the loop end) inside the array; the compiler
    sets it on the hint addresses it generates, mirroring the epilog guard
    a real compiler would emit.
    """

    __slots__ = ("array", "index", "clamp")

    def __init__(self, array: "ArrayDecl", index: ExprLike, clamp: bool = False) -> None:
        self.array = array
        self.index = as_expr(index)
        self.clamp = clamp

    def _data(self) -> np.ndarray:
        data = self.array.data
        if data is None:
            raise ExecutionError(
                f"index array {self.array.name!r} has no backing data; "
                "indirect references need materialized index arrays"
            )
        return data

    def eval(self, env: Mapping[str, int]) -> int:
        data = self._data()
        index = self.index.eval(env)
        if self.clamp:
            index = min(max(index, 0), len(data) - 1)
        elif not 0 <= index < len(data):
            raise ExecutionError(
                f"index {index} out of range for index array {self.array.name!r}"
            )
        return int(data[index])

    def eval_vec(self, env, var, values):
        data = self._data()
        index = self.index.eval_vec(env, var, values)
        if self.clamp:
            index = np.clip(index, 0, len(data) - 1)
        return data[index]

    def try_const(self, known) -> int | None:
        # Index-array contents are never compile-time constants: this is
        # exactly why the paper's compiler cannot analyze locality of
        # indirect references (Section 2.2.1).
        return None

    def free_vars(self) -> frozenset[str]:
        return self.index.free_vars()

    def __repr__(self) -> str:
        return f"{self.array.name}[{self.index!r}]"


class MinExpr(Expr):
    """``min(a, b)`` -- produced by strip mining for ragged final strips."""

    __slots__ = ("a", "b")

    def __init__(self, a: ExprLike, b: ExprLike) -> None:
        self.a = as_expr(a)
        self.b = as_expr(b)

    def eval(self, env: Mapping[str, int]) -> int:
        return min(self.a.eval(env), self.b.eval(env))

    def eval_vec(self, env, var, values):
        return np.minimum(self.a.eval_vec(env, var, values),
                          self.b.eval_vec(env, var, values))

    def try_const(self, known) -> int | None:
        a = self.a.try_const(known)
        b = self.b.try_const(known)
        if a is None or b is None:
            return None
        return min(a, b)

    def free_vars(self) -> frozenset[str]:
        return self.a.free_vars() | self.b.free_vars()

    def __repr__(self) -> str:
        return f"min({self.a!r}, {self.b!r})"


class MaxExpr(Expr):
    """``max(a, b)`` -- epilog lower bounds after steady/epilog splitting."""

    __slots__ = ("a", "b")

    def __init__(self, a: ExprLike, b: ExprLike) -> None:
        self.a = as_expr(a)
        self.b = as_expr(b)

    def eval(self, env: Mapping[str, int]) -> int:
        return max(self.a.eval(env), self.b.eval(env))

    def eval_vec(self, env, var, values):
        return np.maximum(self.a.eval_vec(env, var, values),
                          self.b.eval_vec(env, var, values))

    def try_const(self, known) -> int | None:
        a = self.a.try_const(known)
        b = self.b.try_const(known)
        if a is None or b is None:
            return None
        return max(a, b)

    def free_vars(self) -> frozenset[str]:
        return self.a.free_vars() | self.b.free_vars()

    def __repr__(self) -> str:
        return f"max({self.a!r}, {self.b!r})"


class CeilDiv(Expr):
    """``ceil(a / divisor)`` -- runtime-computed prefetch sizes."""

    __slots__ = ("a", "divisor")

    def __init__(self, a: ExprLike, divisor: int) -> None:
        if divisor <= 0:
            raise IRError(f"CeilDiv divisor must be positive, got {divisor}")
        self.a = as_expr(a)
        self.divisor = divisor

    def eval(self, env: Mapping[str, int]) -> int:
        return -(-self.a.eval(env) // self.divisor)

    def eval_vec(self, env, var, values):
        return -(-self.a.eval_vec(env, var, values) // self.divisor)

    def try_const(self, known) -> int | None:
        a = self.a.try_const(known)
        if a is None:
            return None
        return -(-a // self.divisor)

    def free_vars(self) -> frozenset[str]:
        return self.a.free_vars()

    def __repr__(self) -> str:
        return f"ceil({self.a!r} / {self.divisor})"


def as_expr(value: ExprLike | str) -> Expr:
    """Coerce ints and names into expressions."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise IRError(f"cannot convert {value!r} to an expression")


def affine_parts(expr: Expr) -> tuple[dict[str, int], int] | None:
    """Decompose into (terms, const) if expr is affine, else None."""
    if isinstance(expr, Const):
        return {}, expr.value
    if isinstance(expr, Var):
        return {expr.name: 1}, 0
    if isinstance(expr, Affine):
        return dict(expr.terms), expr.const
    return None


def affine_sum(a: Expr, b: Expr, sign: int) -> Expr:
    """``a + sign*b``, folding into one Affine when both sides allow it."""
    pa = affine_parts(a)
    pb = affine_parts(b)
    if pa is None or pb is None:
        raise IRError(
            f"cannot add non-affine expressions symbolically: {a!r}, {b!r}"
        )
    terms, const = pa
    bterms, bconst = pb
    for name, coeff in bterms.items():
        terms[name] = terms.get(name, 0) + sign * coeff
    const += sign * bconst
    if not any(terms.values()):
        return Const(const)
    return Affine(terms, const)


def affine_scale(a: Expr, factor: int) -> Expr:
    pa = affine_parts(a)
    if pa is None:
        raise IRError(f"cannot scale non-affine expression {a!r}")
    terms, const = pa
    return Affine({v: c * factor for v, c in terms.items()}, const * factor)
