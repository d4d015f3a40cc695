"""Verification workbench for Ouroboros (idempotent) functions.

The package checks the defining law f(f(x)) = f(x) on box domains by
deterministic sampling, computes the derivative identities that law forces
(forward-mode duals cross-checked by central differences), enumerates the
idempotent self-maps of small finite domains exactly, and ships a catalog
of idempotent function families for experiments.

`catalog`, `deriv` and `finite` are loaded on first use: each is in
sys.modules and on the package from the start, and its code runs when one
of its attributes is first read.  `ouro.<name>` and `from ouro import
<name>` work as for any other submodule.
"""

from .expr import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"


def _lazy(name: str):
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


catalog, deriv, finite = map(_lazy, ("catalog", "deriv", "finite"))

# The names the package re-exports from its lazy submodules (each one's
# __all__), resolved on first use (PEP 562).
_LAZY_NAMES = {name: module for module, names in (
    (catalog, ("CatalogEntry", "CatalogError", "ScalarInstance",
               "VectorInstance", "entry_names", "get_entry", "instantiate",
               "list_entries")),
    (deriv, ("GRADIENT_FLOOR", "KINK_RETRY_LIMIT", "TOL_UNITY",
             "KinkPointError", "UnityReport", "UnitySweep", "check_unity",
             "dual_eval", "fd_partial", "gradient", "unity_sweep")),
    (finite, ("COUNT_LIMIT", "ENUMERATION_LIMIT", "FiniteEndofunction",
              "count_idempotent", "enumerate_idempotent",
              "image_fixing_holds", "is_idempotent", "iterate")),
) for name in names}
__all__ = sorted(name for name in {*globals(), *_LAZY_NAMES}
                 if not name.startswith("_"))


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
