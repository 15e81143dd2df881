"""Finite rational-linear combinations of forests and of tuples of forests.

One type serves both the rooted-forest Hopf algebra and the operadic-tree
bialgebra at their boundary: keys are :class:`Forest` values or tuples of them
(tensors), and coefficients exact :class:`fractions.Fraction` values, never 0.
Inside, the maps and laws compute on the int ids of one :class:`dsetree.table.Table`
(in through ``Table.numbered``, out through ``Table.elem``) and sum with :func:`add_up`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Union

from .errors import SizeLimit
from .trees import EMPTY_FOREST, CombTree, Forest

Scalar = Union[int, Fraction]
Key = Union[Forest, tuple[Forest, ...]]
# Fraction("1e<n>") takes superlinear time in n; exponents past Python's int/str digit limit are refused.
MAX_COEFF_EXPONENT = 4300


def parse_scalar(text: str) -> Fraction:
    """Read a coefficient's text, refusing a decimal exponent beyond ``MAX_COEFF_EXPONENT``."""
    exponent = re.search(r"[eE]([-+]?[\d_]+)", text)
    if exponent and abs(int(exponent.group(1))) > MAX_COEFF_EXPONENT:
        raise SizeLimit(f"coefficient {text!r} has an exponent beyond {MAX_COEFF_EXPONENT} in magnitude")
    return Fraction(text)


def add_up(pairs: Iterable[tuple[Hashable, Scalar]]) -> dict:
    """Add up ``(key, coefficient)`` pairs into a dict, dropping the keys whose sum is zero."""
    acc: dict = {}
    for k, c in pairs:
        acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


def _factors(key: Key) -> tuple[Forest, ...]:
    return (key,) if isinstance(key, Forest) else key


class LinComb:
    """A finite rational-linear combination of forests or forest tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Scalar] = MappingProxyType({})):
        clean = {k: c if type(c) is Fraction else Fraction(c) for k, c in dict(terms).items() if c}
        self.terms: dict[Key, Fraction] = clean

    @staticmethod
    def sum(pairs: Iterable[tuple[Key, Scalar]]) -> "LinComb":
        """Add up ``(key, coefficient)`` pairs; keys whose sum is zero are dropped."""
        return LinComb(add_up(pairs))

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def one() -> "LinComb":
        """The algebra unit: the empty forest."""
        return LinComb({EMPTY_FOREST: 1})

    @staticmethod
    def unit() -> "LinComb":
        """The unit of the tensor square: empty forest (x) empty forest."""
        return LinComb({(EMPTY_FOREST, EMPTY_FOREST): 1})

    @staticmethod
    def from_forest(f: Forest, coeff: Scalar = 1) -> "LinComb":
        return LinComb({f: coeff})

    @staticmethod
    def from_tree(t: CombTree, coeff: Scalar = 1) -> "LinComb":
        return LinComb({Forest([t]): coeff})

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb.sum(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(-1)

    def scale(self, s: Scalar) -> "LinComb":
        return LinComb({k: c * s for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def rows(self) -> list[tuple[str, Fraction]]:
        """``(key code, coefficient)`` pairs in ascending code order.

        A tuple key is ordered by its factors' codes and printed joined by
        ``"(x)"``.
        """
        ordered = sorted((tuple(f.code for f in _factors(k)), c) for k, c in self.terms.items())
        return [("(x)".join(codes), c) for codes, c in ordered]

    def text(self) -> str:
        return " + ".join(f"{c}*{code}" for code, c in self.rows()) or "0"

    def __repr__(self) -> str:
        return f"LinComb({self.text()})"
