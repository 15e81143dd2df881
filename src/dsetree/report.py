"""Pass/fail reports and the drivers shared by the law-checking routines."""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .linear import add_up
from .trees import _Frozen


class CheckReport(_Frozen):
    """Outcome of an exhaustive law check.

    ``counterexamples`` holds ``(input, expected, actual)`` triples rendered
    as strings; it is empty exactly when ``passed`` is True.
    """

    __slots__ = ("name", "passed", "checked", "counterexamples")

    def __init__(self, name: str, passed: bool, checked: int = 0, counterexamples: tuple = ()) -> None:
        if passed and counterexamples:
            raise ValueError("a passing report cannot carry counterexamples")
        super().__init__(name, passed, checked, counterexamples)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} ({self.name}, {self.checked} inputs)"
        for inp, expected, actual in self.counterexamples:
            out += f"\n  counterexample: input={inp} expected={expected} actual={actual}"
        return out


def up_to(enumerate_exact: Callable[[int], Iterable[Any]], bound: int) -> list[Any]:
    """Every object of size ``0..bound``, size by size, each size in code order: the
    objects are :class:`~dsetree.trees.Canonical` values, which sort by code, or codes."""
    out: list[Any] = []
    for n in range(bound + 1):
        out.extend(sorted(enumerate_exact(n)))
    return out


def check_each(
    name: str,
    inputs: Sequence[Any],
    law: Callable[[Any], Optional[tuple[str, str]]],
) -> CheckReport:
    """Apply ``law`` to every input.

    ``law`` returns None when the input satisfies it, otherwise the
    ``(expected, actual)`` pair to report next to the input's code.
    """
    bad = []
    for x in inputs:
        failure = law(x)
        if failure is not None:
            bad.append((x.code, *failure))
    return CheckReport(name, not bad, len(inputs), tuple(bad))


def check_coassociative(
    name: str,
    inputs: Sequence[Any],
    number: Callable[[Any], int],
    delta: Callable[[int], Mapping[tuple[int, int], Any]],
) -> CheckReport:
    """Check that ``(delta x Id)delta = (Id x delta)delta`` on every input.

    ``number`` gives an input's int id, and ``delta`` maps the id of a forest
    to the coefficients of its ``(upper id, lower id)`` pairs, so the double
    sum adds up terms keyed by triples of ints.  ``delta`` is called once per
    distinct id over the whole check.
    """
    delta = cache(delta)

    def law(x: Any) -> Optional[tuple[str, str]]:
        left, right = {}, {}  # (a1, a2, b) and (a, b1, b2) id triples -> coefficient
        for (a, b), c in delta(number(x)).items():
            for (a1, a2), c2 in delta(a).items():
                key = (a1, a2, b)
                left[key] = left.get(key, 0) + c * c2
            for (b1, b2), c2 in delta(b).items():
                key = (a, b1, b2)
                right[key] = right.get(key, 0) + c * c2
        # Terms may cancel to zero: compare the nonzero parts only when the raw sums differ.
        if left != right and add_up(left.items()) != add_up(right.items()):
            return ("(Id x D)D", "(D x Id)D")
        return None

    return check_each(name, inputs, law)
