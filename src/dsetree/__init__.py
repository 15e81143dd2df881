"""Symbolic engine for tree-valued fixpoint equations.

Rooted-forest Hopf algebra with the admissible-cut coproduct, order-by-order
solving of grafting fixpoint equations, decorated operadic trees with their
cut bialgebra and core homomorphism, and structural-recursion (fold) checking.
"""

from .dse import DSESpec, DSETerm, Series, solve
from .hopf import HckElem, HckTensor, antipode, bplus, coproduct, counit, product
from .opbialg import core
from .ptrees import NIL, Operation, PTree, Signature
from .trees import CombTree, Forest, canon_code, graft, parse_code
from .wtypes import FoldAlgebra, fold

__all__ = [
    "CombTree",
    "DSESpec",
    "DSETerm",
    "FoldAlgebra",
    "Forest",
    "HckElem",
    "HckTensor",
    "NIL",
    "Operation",
    "PTree",
    "Series",
    "Signature",
    "antipode",
    "bplus",
    "canon_code",
    "coproduct",
    "core",
    "counit",
    "fold",
    "graft",
    "parse_code",
    "product",
    "solve",
]

__version__ = "0.1.0"
