"""Verification workbench for Ouroboros (idempotent) functions.

The package checks the defining law f(f(x)) = f(x) on box domains by
deterministic sampling, computes the derivative identities that law forces
(forward-mode duals cross-checked by central differences), enumerates the
idempotent self-maps of small finite domains exactly, and ships a catalog
of idempotent function families for experiments.
"""

from .catalog import (CatalogEntry, CatalogError, ScalarInstance,
                      VectorInstance, entry_names, get_entry, instantiate,
                      list_entries)
from .deriv import (GRADIENT_FLOOR, KINK_RETRY_LIMIT, TOL_UNITY,
                    KinkPointError, UnityReport, UnitySweep, check_unity,
                    dual_eval, fd_partial, gradient, unity_sweep)
from .expr import (BUILTIN_ARITY, BinOp, Call, Const, EvalDomainError,
                   EvaluationError, Expr, Neg, ParseError,
                   UnboundVariableError, Var, evaluate, format_expr,
                   free_variables, parse)
from .finite import (COUNT_LIMIT, ENUMERATION_LIMIT, FiniteEndofunction,
                     count_idempotent, enumerate_idempotent,
                     image_fixing_holds, is_idempotent, iterate)
from .verify import (DEFAULT_INTERVAL, DomainBox, SamplePlan, Status, Verdict,
                     Witness, check_iterated, check_membership, unit_uniform)

__version__ = "0.1.0"
