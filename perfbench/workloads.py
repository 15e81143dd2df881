"""The benchmark's workloads: the CLI commands each one runs, and its seeded input.

Every workload has fixed commands.  The seed draws only the rational
coefficients of the custom equation in ``series_census``, so the amount of
work does not depend on the seed.  See README.md for why each command is there.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Relative to the checkout root, which is the worker's working directory.  The
# path is echoed in the structured solve output, so it must not vary.
EQUATION_PATH = ".perfbench_work/equation.json"

WORKLOADS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "hopf_laws": (
        ("coassoc", ("check", "--law", "coassoc", "--degree", "8")),
        ("antipode", ("check", "--law", "antipode", "--degree", "7")),
        ("counit", ("check", "--law", "counit", "--degree", "8")),
        ("cocycle", ("check", "--law", "cocycle", "--degree", "8")),
    ),
    "operadic_laws": (
        ("op_coassoc", ("check", "--law", "op-coassoc", "--signature", "stable:4", "--bound", "4")),
        ("core_hom", ("check", "--law", "core-hom", "--signature", "stable:4", "--bound", "4")),
        ("faa_di_bruno", ("check", "--law", "faa-di-bruno", "--signature", "binary", "--bound", "5")),
        ("op_cocycle", ("check", "--law", "op-cocycle", "--signature", "binary", "--bound", "2")),
    ),
    "series_census": (
        ("solve_geometric", ("solve", "--spec", "geometric", "--order", "10", "--format", "structured")),
        ("solve_custom", ("solve", "--spec", EQUATION_PATH, "--order", "10", "--format", "structured")),
        ("census", ("census", "--signature", "stable:4", "--n", "5")),
        ("enumerate", ("enumerate", "--signature", "list:3", "--n", "6")),
        ("green", ("green", "--signature", "stable:3", "--bound", "6")),
    ),
}

# (alpha_power, x_power) of each custom-equation term; the seed picks the coefficients.
CUSTOM_TERMS = ((1, 2), (2, 3), (3, 1))


def equation_document(seed: int) -> dict:
    """The custom equation: fixed shape, seeded non-integral positive coefficients.

    Positive coefficients cannot cancel, so every seed yields the same forests
    and only the rational values differ.
    """
    rng = random.Random(seed)
    terms = []
    for alpha_power, x_power in CUSTOM_TERMS:
        den = rng.randint(2, 9)
        num = rng.choice([p for p in range(1, 3 * den) if p % den])
        terms.append({"alpha_power": alpha_power, "coeff": f"{num}/{den}", "x_power": x_power})
    return {"order": 10, "terms": terms}


def prepare(workload: str, seed: int, root: Path) -> None:
    """Write the workload's input files under ``root``."""
    if workload != "series_census":
        return
    path = root / EQUATION_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(equation_document(seed)), encoding="utf-8")
