"""A small proof-checking kernel for dependent type theory.

Core syntax with nameless variables (`terms`), reduction and judgmental
equality (`reduce`), bidirectional type checking (`check`), concrete
syntax (`parser`, `pretty`), file processing (`loader`) and the command
line (`cli`).

A rejected term raises `CheckError`, which carries the violated `rule`,
the `message`, the term `found`, the type `expected`, the `context` and,
once the loader has located it, the `span`.
"""

from .check import CheckError, check, check_declaration, infer, infer_universe
from .reduce import BudgetExhausted, ReductionBudget, conv, normalize, whnf
from .terms import (
    Context,
    Declaration,
    Signature,
    Term,
    as_int,
    numeral,
    shift,
    subst,
    well_scoped,
)

__all__ = [
    "CheckError",
    "check",
    "check_declaration",
    "infer",
    "infer_universe",
    "BudgetExhausted",
    "ReductionBudget",
    "conv",
    "normalize",
    "whnf",
    "Context",
    "Declaration",
    "Signature",
    "Term",
    "as_int",
    "numeral",
    "shift",
    "subst",
    "well_scoped",
]

__version__ = "0.1.0"
