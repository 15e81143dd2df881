"""Pass/fail reports and the drivers shared by the law-checking routines."""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

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

    ``number`` gives an input's int id, and ``delta`` maps the id of a forest to the coefficients of its
    ``(upper id, lower id)`` pairs; it is called once per distinct id over the whole check.  Both sides sum
    blocks keyed by a triple's last id.  The left block for lower forest b is the sum of c * delta(a) over the
    cuts (a, b), or the memoized delta(a) itself, never written, if that cut is the only one and its c is 1.
    """
    delta = cache(delta)

    def law(x: Any) -> Optional[tuple[str, str]]:
        # b -> (a1, a2) and b2 -> (a, b1) -> coefficient, and the b whose left block is a copy of its own
        left, right, owned = {}, defaultdict(dict), set()
        for (a, b), c in delta(number(x)).items():
            block = left.get(b)
            if block is None and c == 1:
                left[b] = delta(a)  # the memo itself, until another cut has b below
            else:
                if b not in owned:
                    owned.add(b)
                    block = left[b] = dict(block or ())
                for pair, c2 in delta(a).items():
                    block[pair] = block.get(pair, 0) + c * c2
            for (b1, b2), c2 in delta(b).items():
                block, key = right[b2], (a, b1)
                block[key] = block.get(key, 0) + c * c2
        # Terms may cancel to zero: compare the nonzero parts only when the raw sums differ.
        if left != right and _nonzero_triples(left) != _nonzero_triples(right):
            return ("(Id x D)D", "(D x Id)D")
        return None

    return check_each(name, inputs, law)


def _nonzero_triples(blocks: dict) -> dict:
    """The terms of ``{last id: {(first id, second id): coefficient}}`` with a nonzero coefficient, keyed by triples."""
    return {(*pair, last): c for last, block in blocks.items() for pair, c in block.items() if c}
