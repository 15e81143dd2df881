"""Order-by-order solver for tree-valued fixpoint equations.

Equations have the shape ``X = 1 + sum_t w * alpha^a * B+(X^m)`` with the
grafting operator as the constructor; the solution is a truncated formal
series in the coupling ``alpha`` with forest-combination coefficients,
computed by induction on the order in ints, on the forest ids of one table
per call; forests and Fractions are built only for the returned series.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import comb, lcm
from typing import Iterable, Sequence

from .errors import InvalidArgument, InvalidSpec, Nonfinite, OrderExceeded, SizeLimit
from .linear import MAX_COEFF_EXPONENT, LinComb, add_up, parse_scalar
from .ptrees import SMALL_ARITIES_BY_LEAVES, Signature
from .table import Table
from .trees import _Frozen

MAX_ORDER = 10


class DSETerm(_Frozen):
    """One summand ``w * alpha^a * B+(X^m)`` of a fixpoint equation."""

    __slots__ = ("alpha_power", "coeff", "x_power")

    def __init__(self, alpha_power: int, coeff: int | Fraction, x_power: int) -> None:
        if type(alpha_power) is not int or type(x_power) is not int:
            raise InvalidSpec(f"alpha_power and x_power must be integers, got {alpha_power!r} and {x_power!r}")
        if alpha_power < 1:
            raise InvalidSpec("alpha_power must be at least 1")
        if x_power < 0:
            raise InvalidSpec("x_power must be nonnegative")
        if type(coeff) is not int and not isinstance(coeff, Fraction):  # not a float, a string or a bool
            raise InvalidSpec(f"coeff must be an int or a Fraction, got {coeff!r}")
        super().__init__(alpha_power, coeff, x_power)


class DSESpec(_Frozen):
    __slots__ = ("terms", "order", "name")

    def __init__(self, terms: Iterable[DSETerm], order: int, name: str = "") -> None:
        if type(order) is not int:
            raise InvalidSpec(f"order must be an integer, got {order!r}")
        if not 0 <= order <= MAX_ORDER:
            raise InvalidSpec(f"order must lie in 0..{MAX_ORDER}")
        super().__init__(tuple(terms), order, name)
        if not all(isinstance(term, DSETerm) for term in self.terms):
            raise InvalidSpec(f"terms must be DSETerm values, got {self.terms!r}")


class Series(_Frozen):
    """Truncated series: ``coeffs[k]`` is the alpha^k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[LinComb, ...]) -> None:
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def text(self) -> str:
        return "\n".join(f"c_{k} = {c.text()}" for k, c in enumerate(self.coeffs))


def series_coefficient(s: Series, k: int) -> LinComb:
    if not 0 <= k <= s.order:
        raise OrderExceeded(f"coefficient {k} beyond truncation order {s.order}")
    return s.coeffs[k]


def series_power(s: Series, m: int, j: int) -> LinComb:
    """Degree-``j`` coefficient of the ``m``-th power of ``s``."""
    series_coefficient(s, j)  # OrderExceeded past the truncation order
    ids = Table()
    return ids.elem(_power_coefficient(ids, list(map(ids.numbered, s.coeffs)), m, j, {}))


def _power_coefficient(ids: Table, coeffs: Sequence[dict], m: int, j: int, memo: dict) -> dict:
    # The binomial theorem with X = c_0 + Y: [X^m]_j = sum_{i <= min(m, j)} C(m, i) c_0^(m-i) [Y^i]_j,
    # whose work does not grow with m; [Y^i]_j needs only c_1..c_j, so one memo serves a whole solve.
    return add_up(
        (n, comb(m, i) * c)
        for i in range(min(m, j) + 1)
        for n, c in _times_power(ids, coeffs[0], m - i, _y_power(ids, coeffs, i, j, memo)).items()
    )


def _y_power(ids: Table, coeffs: Sequence[dict], i: int, j: int, memo: dict) -> dict:
    """[Y^i]_j = sum_l c_l [Y^(i-1)]_(j-l); l stops at j - i + 1, as [Y^(i-1)] starts at degree i - 1."""
    if i == 0:
        return {ids.forest_of(()): 1} if j == 0 else {}
    if (i, j) not in memo:
        memo[i, j] = add_up(chain.from_iterable(
            ids.product(coeffs[l], _y_power(ids, coeffs, i - 1, j - l, memo)).items() for l in range(1, j - i + 2)
        ))
    return memo[i, j]


def _times_power(ids: Table, x: dict, n: int, y: dict) -> dict:
    """``x`` to the ``n`` times ``y``, squaring ``x``: O(log n) products, none when ``x`` is the unit."""
    if n == 0 or x == {ids.forest_of(()): 1}:
        return y
    return _times_power(ids, ids.product(x, x), n // 2, ids.product(x, y) if n % 2 else y)


def _rhs(ids: Table, terms: Sequence[DSETerm], coeffs: Sequence[dict], k: int, memo: dict) -> dict:
    """alpha^k coefficient of ``1 + sum_t w * alpha^a * B+(X^m)`` over ``terms``; ``coeffs`` holds c_0..c_{k-1}."""
    return add_up(chain(
        [(ids.forest_of(()), 1)] if k == 0 else [],
        (
            (ids.graft(n), term.coeff * c)
            for term in terms
            if k >= term.alpha_power
            for n, c in _power_coefficient(ids, coeffs, term.x_power, k - term.alpha_power, memo).items()
        ),
    ))


def solve(spec: DSESpec) -> Series:
    """Unique order-by-order solution of the fixpoint equation, worked out in ints on the forest ids of one
    table: with ``alpha = d * gamma``, ``d`` the lcm of the weights' denominators, each weight becomes the int
    ``w * d^a`` and the gamma^k coefficient ``e_k = d^k c_k`` is integral; only the returned ``c_k`` are Fractions."""
    # Every alpha_power is at least 1, so e_k depends only on e_0..e_{k-1}; terms past the order never enter.
    used = [t for t in spec.terms if t.alpha_power <= spec.order]
    d = lcm(*(t.coeff.denominator for t in used))
    # The top coefficient's denominator divides d^order and prod_t q_t^(order // a_t): refused before solving
    # when both reach the printing limit (the second is capped there as it grows).
    limit, top = 10**MAX_COEFF_EXPONENT, 1
    for t in used:
        top = min(top * t.coeff.denominator ** (spec.order // t.alpha_power), limit)
    if top >= limit and d**spec.order >= limit:
        raise SizeLimit(f"the order-{spec.order} coefficient's denominator may exceed {MAX_COEFF_EXPONENT} digits")
    terms = [DSETerm(t.alpha_power, int(t.coeff * d**t.alpha_power), t.x_power) for t in used]
    ids, coeffs, memo = Table(), [], {}
    for k in range(spec.order + 1):
        coeffs.append(_rhs(ids, terms, coeffs, k, memo))
    return Series(tuple(ids.elem(e, d**k) for k, e in enumerate(coeffs)))


def residual(spec: DSESpec, s: Series) -> list[LinComb]:
    """Per-order difference between ``s`` and the equation's right-hand side, on the coefficients as given."""
    ids = Table()
    coeffs, memo = list(map(ids.numbered, s.coeffs)), {}
    return [c - ids.elem(_rhs(ids, spec.terms, coeffs, k, memo)) for k, c in enumerate(s.coeffs)]


def linear_spec(order: int) -> DSESpec:
    """``X = 1 + alpha B+(X)`` (the ladder equation)."""
    return DSESpec((DSETerm(1, 1, 1),), order, name="linear")


def quadratic_spec(order: int) -> DSESpec:
    """``X = 1 + alpha B+(X^2)``."""
    return DSESpec((DSETerm(1, 1, 2),), order, name="quadratic")


def geometric_spec(order: int) -> DSESpec:
    """``X = 1 + sum_{n>=1} alpha^n B+(X^{n+1})`` truncated at the order."""
    terms = tuple(DSETerm(n, 1, n + 1) for n in range(1, max(order, 1) + 1))
    return DSESpec(terms, order, name="geometric")


def spec_from_signature(sig: Signature, by: str, order: int) -> DSESpec:
    """``X = 1 + sum_op alpha^s B+(X^arity)``, whose c_k is the core census of
    the trees of k nodes (s = 1) or of k + 1 leaves (s = arity - 1).

    Operations of equal arity share one term, weighted by their number.
    """
    if by not in ("nodes", "leaves"):
        raise InvalidArgument("by must be 'nodes' or 'leaves'")
    if by == "leaves" and sig.has_small_arities():
        raise Nonfinite(SMALL_ARITIES_BY_LEAVES)
    arities = sorted(Counter(op.arity for op in sig.ops).items())
    return DSESpec(tuple(DSETerm(1 if by == "nodes" else m - 1, w, m) for m, w in arities), order)


BUILTIN_SPECS = {
    "linear": linear_spec,
    "quadratic": quadratic_spec,
    "geometric": geometric_spec,
}


def spec_from_dict(data: dict, name: str = "") -> DSESpec:
    """The equation of a JSON document; :class:`DSETerm` and :class:`DSESpec` check its integer fields."""
    try:
        terms = tuple(DSETerm(t["alpha_power"], parse_scalar(str(t["coeff"])), t["x_power"]) for t in data["terms"])
        order = data["order"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"malformed equation document: {exc}") from exc
    return DSESpec(terms, order, name=name)


def load_spec(path: str) -> DSESpec:
    """Load an equation from a JSON document with ``terms`` and ``order``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, a file not in UTF-8 or an int past the digit limit
            raise InvalidSpec(f"cannot parse {path}: {exc}") from exc
    return spec_from_dict(data, name=path)


def series_to_dict(spec: DSESpec, s: Series) -> dict:
    """Machine-readable dump mirroring the text form."""
    return {
        "spec": spec.name or "custom",
        "order": s.order,
        "coefficients": [
            {"k": k, "terms": [{"coeff": str(coeff), "forest": code} for code, coeff in c.rows()]}
            for k, c in enumerate(s.coeffs)
        ],
    }
