"""Curated families of idempotent functions.

Scalar entries come with a DSL expression so every engine (evaluation,
membership sampling, dual/finite-difference derivatives) applies to them;
vector entries carry a numpy callable and extend the membership check to
vector-valued domains.  Flags are honest contract metadata:

    smooth             entry is C^1 on its recommended box, so derivative
                       cross-checks run on it (never set on vector entries,
                       whose operators the scalar derivative engines do not
                       consume)
    symmetric          invariant under permuting arguments, so the
                       equal-shares claim is expected to hold where the
                       entry is also smooth
    exact_fixed_points self-application returns its input bit-for-bit, so
                       iterated drift is exactly 0.0

Families on a positive domain (geometric, harmonic, power means) use the
box [0.1, 10] to stay clear of poles and branch points.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ._record import Record
from .expr import Expr, parse
from .verify import DEFAULT_INTERVAL, DomainBox

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CatalogEntry", "ScalarInstance", "VectorInstance", "CatalogError",
    "list_entries", "entry_names", "get_entry", "instantiate",
]

POSITIVE_INTERVAL = (0.1, 10.0)


class CatalogError(ValueError):
    """Unknown entry or invalid parameters."""


class CatalogEntry(Record):
    name: str
    kind: str  # scalar-univariate | scalar-multivariate | vector-operator
    summary: str
    arity: str  # human-readable arity rule
    params: tuple[tuple[str, str], ...]  # (name, meaning)
    defaults: dict
    interval: tuple[float, float]
    smooth: bool
    symmetric: bool
    exact_fixed_points: bool


class ScalarInstance(Record):
    entry: CatalogEntry
    expr: Expr
    arity: int
    box: DomainBox
    params: dict

    @property
    def target(self) -> Expr:
        return self.expr


class VectorInstance(Record):
    """A vector operator fn: R^dim -> R^dim.

    fn also takes an array of shape (..., dim) and maps each row exactly as
    it maps that row alone, as every catalog operator does, so verify
    applies an instance to a chunk of samples in one call.  A plain callable
    is checked one sample at a time instead.
    """

    entry: CatalogEntry
    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    box: DomainBox
    params: dict

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    def _key(self) -> tuple:
        # fn is built per instantiation, so it takes no part in equality
        return (self.entry, self.dim, self.box, self.params)

    @property
    def target(self) -> "VectorInstance":
        return self


def _lit(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise CatalogError(f"parameter must be finite, got {v!r}")
    return repr(v)


def _names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def _int_n(params: Mapping, key: str = "n", *, minimum: int = 2,
           odd: bool = False) -> int:
    n = params[key]
    if not isinstance(n, int) or isinstance(n, bool):
        raise CatalogError(f"{key} must be an integer, got {n!r}")
    if n < minimum:
        raise CatalogError(f"{key} must be at least {minimum}")
    if odd and n % 2 == 0:
        raise CatalogError(f"{key} must be odd")
    return n


def _finite(params: Mapping, key: str) -> float:
    v = float(params[key])
    if not math.isfinite(v):
        raise CatalogError(f"{key} must be finite")
    return v


# --- scalar builders -------------------------------------------------------

def _b_identity(p):
    return parse("x"), 1


def _b_constant(p):
    c = _finite(p, "c")
    # 0*x keeps the function univariate while evaluating to exactly c.
    return parse(f"0 * x + {_lit(c)}"), 1


def _b_abs(p):
    return parse("abs(x)"), 1


def _b_floor(p):
    return parse("floor(x)"), 1


def _b_ceil(p):
    return parse("ceil(x)"), 1


def _b_relu(p):
    return parse("relu(x)"), 1


def _b_clamp(p):
    lo, hi = _finite(p, "lo"), _finite(p, "hi")
    if not lo < hi:
        raise CatalogError("clamp needs lo < hi")
    return parse(f"clamp(x, {_lit(lo)}, {_lit(hi)})"), 1


def _b_max_const(p):
    return parse(f"max(x, {_lit(_finite(p, 'c'))})"), 1


def _b_min_const(p):
    return parse(f"min(x, {_lit(_finite(p, 'c'))})"), 1


def _b_arith_mean(p):
    n = _int_n(p)
    return parse(f"({' + '.join(_names(n))}) / {n}"), n


def _b_geo_mean(p):
    n = _int_n(p)
    product = " * ".join(_names(n))
    if n == 2:
        return parse(f"sqrt({product})"), 2
    return parse(f"({product})^{_lit(1.0 / n)}"), n


def _b_harmonic_mean(p):
    n = _int_n(p)
    recip = " + ".join(f"1 / {v}" for v in _names(n))
    return parse(f"{n} / ({recip})"), n


def _b_power_mean(p):
    n = _int_n(p)
    exponent = _finite(p, "p")
    if exponent == 0.0:
        raise CatalogError("power_mean needs p != 0")
    powers = " + ".join(f"{v}^{_lit(exponent)}" for v in _names(n))
    return parse(f"(({powers}) / {n})^{_lit(1.0 / exponent)}"), n


def _med3(a: str, b: str, c: str) -> str:
    return f"max(min({a}, {b}), min(max({a}, {b}), {c}))"


def _b_median(p):
    # Middle order statistic via min/max selection networks.  Networks only
    # route values, so at distinct inputs no comparison ever ties and the
    # formula stays differentiable off the diagonal; subset-based median
    # formulas tie structurally at every point.  n is odd to keep the
    # median single-valued; 3 and 5 have compact networks.
    n = _int_n(p, minimum=3, odd=True)
    if n == 3:
        return parse(_med3("x1", "x2", "x3")), 3
    if n == 5:
        x = "max(min(x1, x2), min(x3, x4))"
        y = "min(max(x1, x2), max(x3, x4))"
        return parse(_med3(x, y, "x5")), 5
    raise CatalogError("median supports n = 3 or n = 5")


def _fold(func: str, names: Sequence[str]) -> str:
    out = names[0]
    for name in names[1:]:
        out = f"{func}({out}, {name})"
    return out


def _b_min_all(p):
    n = _int_n(p)
    return parse(_fold("min", _names(n))), n


def _b_max_all(p):
    n = _int_n(p)
    return parse(_fold("max", _names(n))), n


def _b_weighted_mean(p):
    w = tuple(float(v) for v in p["w"])
    if len(w) < 2:
        raise CatalogError("weighted_mean needs at least two weights")
    for v in w:
        if not math.isfinite(v) or v < 0.0:
            raise CatalogError("weights must be finite and non-negative")
    if abs(math.fsum(w) - 1.0) > 1e-12:
        raise CatalogError("weights must sum to 1 within 1e-12")
    terms = " + ".join(f"{_lit(v)} * {name}" for v, name in zip(w, _names(len(w))))
    return parse(terms), len(w)


# --- vector builders -------------------------------------------------------
# Each imports numpy itself, so scalar entries never load it.  Each operator
# takes a point or a stack of points, an array of shape (..., d), and maps
# every row as it maps that row alone, bit for bit: verify applies it to
# whole chunks of samples at once.


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y along the last axis, each row's value as np.dot gives it for
    that row alone: a stack of 1 x d by d x 1 matrix products, which numpy
    computes one dot per row (x @ y with a 2-D x would not)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]

def _v_box_clamp(p):
    import numpy as np
    lo, hi = _finite(p, "lo"), _finite(p, "hi")
    d = _int_n(p, "d", minimum=1)
    if not lo < hi:
        raise CatalogError("box_clamp needs lo < hi")

    def fn(x: np.ndarray) -> np.ndarray:
        return np.clip(x, lo, hi)

    return fn, d


def _v_l2_ball(p):
    import numpy as np
    r = _finite(p, "r")
    d = _int_n(p, "d", minimum=1)
    if r <= 0.0:
        raise CatalogError("l2_ball_projection needs r > 0")

    def fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            huge = np.isinf(_rowdot(x, x))
        # A row whose x.x overflows is scaled by its largest entry before
        # its norm is taken; every other row is divided by 1.0, which keeps
        # its bits.  Rows inside the ball are returned as they are, and
        # divide by 1.0 too, so a zero row never computes 0/0.
        s = np.where(huge, np.max(np.abs(x), axis=-1), 1.0)[..., None]
        u = x / s
        norm = np.sqrt(_rowdot(u, u))[..., None]
        inside = norm <= r / s
        return np.where(inside, x, u * r / np.where(inside, 1.0, norm))

    return fn, d


def _v_hyperplane(p):
    import numpy as np
    a = np.asarray([float(v) for v in p["a"]], dtype=float)
    b = _finite(p, "b")
    if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
        raise CatalogError("a must be a non-empty finite vector")
    denom = float(a @ a)
    if denom == 0.0:
        raise CatalogError("a must be non-zero")

    def fn(x: np.ndarray) -> np.ndarray:
        return x - ((_rowdot(x, a) - b) / denom)[..., None] * a

    return fn, int(a.size)


def _v_simplex(p):
    import numpy as np
    d = _int_n(p, "d", minimum=1)

    ks = np.arange(1, d + 1)

    def fn(x: np.ndarray) -> np.ndarray:
        # Euclidean projection onto {y >= 0, sum y = 1} by sorting and
        # thresholding: find the largest k keeping all shifted entries
        # positive, then subtract the matching threshold and clip.
        u = np.sort(np.asarray(x, dtype=float), axis=-1)[..., ::-1]
        css = np.cumsum(u, axis=-1)
        positive = u * ks > css - 1.0
        if not positive.any(axis=-1).all():
            # k = 1 always qualifies unless u_1 - 1 rounds to u_1
            raise ValueError("entries too large to threshold onto the simplex")
        rho = (d - 1 - np.argmax(positive[..., ::-1], axis=-1))[..., None]
        theta = (np.take_along_axis(css, rho, axis=-1) - 1.0) / (rho + 1.0)
        return np.maximum(x - theta, 0.0)

    return fn, d


# --- registry --------------------------------------------------------------

_REGISTRY: dict[str, tuple[CatalogEntry, Callable]] = {}


def _scalar(name, kind, summary, arity, params, defaults, interval,
            smooth, symmetric, exact, builder):
    entry = CatalogEntry(name, kind, summary, arity, tuple(params), dict(defaults),
                         interval, smooth, symmetric, exact)
    _REGISTRY[name] = (entry, builder)


_U = "scalar-univariate"
_M = "scalar-multivariate"
_V = "vector-operator"
_BOX = DEFAULT_INTERVAL
_POS = POSITIVE_INTERVAL

_scalar("identity", _U, "x itself; every point is fixed", "1",
        (), {}, _BOX, True, True, True, _b_identity)
_scalar("constant", _U, "the constant function c (written 0*x + c)", "1",
        (("c", "constant value, inside the box"),), {"c": 5.0}, _BOX,
        True, True, True, _b_constant)
_scalar("abs", _U, "absolute value; fixes [0, hi]", "1",
        (), {}, _BOX, False, True, True, _b_abs)
_scalar("floor", _U, "round down; fixes the integers", "1",
        (), {}, _BOX, False, True, True, _b_floor)
_scalar("ceil", _U, "round up; fixes the integers", "1",
        (), {}, _BOX, False, True, True, _b_ceil)
_scalar("relu", _U, "max(x, 0); fixes [0, hi]", "1",
        (), {}, _BOX, False, True, True, _b_relu)
_scalar("clamp", _U, "clip into [lo, hi]", "1",
        (("lo", "lower edge"), ("hi", "upper edge")),
        {"lo": 0.0, "hi": 1.0}, _BOX, False, True, True, _b_clamp)
_scalar("max_const", _U, "max(x, c); fixes [c, hi]", "1",
        (("c", "floor value"),), {"c": 0.0}, _BOX, False, True, True,
        _b_max_const)
_scalar("min_const", _U, "min(x, c); fixes [lo, c]", "1",
        (("c", "cap value"),), {"c": 0.0}, _BOX, False, True, True,
        _b_min_const)

_N_PARAM = ("n", "number of arguments")

_scalar("arith_mean", _M, "arithmetic mean of n arguments", "n >= 2",
        (_N_PARAM,), {"n": 3}, _BOX, True, True, False, _b_arith_mean)
_scalar("geo_mean", _M, "geometric mean on a positive box", "n >= 2",
        (_N_PARAM,), {"n": 3}, _POS, True, True, False, _b_geo_mean)
_scalar("harmonic_mean", _M, "harmonic mean on a positive box", "n >= 2",
        (_N_PARAM,), {"n": 3}, _POS, True, True, False, _b_harmonic_mean)
_scalar("power_mean", _M, "power mean ((sum x_i^p)/n)^(1/p) on a positive box",
        "n >= 2", (("p", "exponent, p != 0"), _N_PARAM),
        {"p": 2.0, "n": 3}, _POS, True, True, False, _b_power_mean)
_scalar("median", _M, "middle order statistic (odd n keeps it single-valued)",
        "n in {3, 5}", (_N_PARAM,), {"n": 3}, _BOX, False, True, True,
        _b_median)
_scalar("min_all", _M, "smallest argument", "n >= 2",
        (_N_PARAM,), {"n": 3}, _BOX, False, True, True, _b_min_all)
_scalar("max_all", _M, "largest argument", "n >= 2",
        (_N_PARAM,), {"n": 3}, _BOX, False, True, True, _b_max_all)
_scalar("weighted_mean", _M,
        "convex combination sum w_i x_i; idempotent but not symmetric",
        "n = len(w)", (("w", "non-negative weights summing to 1"),),
        {"w": (0.3, 0.7)}, _BOX, True, False, False, _b_weighted_mean)

_scalar("box_clamp", _V, "componentwise clip into [lo, hi]^d", "vector, d >= 1",
        (("lo", "lower edge"), ("hi", "upper edge"), ("d", "dimension")),
        {"lo": 0.0, "hi": 1.0, "d": 3}, _BOX, False, False, True, _v_box_clamp)
_scalar("l2_ball_projection", _V, "nearest point of the centered l2 ball of radius r",
        "vector, d >= 1", (("r", "radius, r > 0"), ("d", "dimension")),
        {"r": 1.0, "d": 3}, _BOX, False, False, False, _v_l2_ball)
_scalar("hyperplane_projection", _V, "orthogonal projection onto a.x = b",
        "vector, d = len(a)", (("a", "normal vector, non-zero"), ("b", "offset")),
        {"a": (1.0, 1.0, 1.0), "b": 1.0}, _BOX, False, False, False,
        _v_hyperplane)
_scalar("simplex_projection", _V,
        "Euclidean projection onto the probability simplex",
        "vector, d >= 1", (("d", "dimension"),), {"d": 3}, (-1.0, 1.0),
        False, False, False, _v_simplex)


def list_entries() -> list[CatalogEntry]:
    return [entry for entry, _ in _REGISTRY.values()]


def entry_names() -> list[str]:
    return list(_REGISTRY)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise CatalogError(f"no catalog entry named {name!r}") from None


def instantiate(name: str, **overrides):
    """Build a concrete instance of a catalog entry.

    Unspecified parameters fall back to the entry defaults, so
    instantiate(name) always works.  Scalar entries yield a ScalarInstance
    holding a DSL expression; vector entries yield a callable
    VectorInstance.  Raises CatalogError for unknown names, unknown or
    invalid parameters.
    """
    if name not in _REGISTRY:
        raise CatalogError(f"no catalog entry named {name!r}")
    entry, builder = _REGISTRY[name]
    params = dict(entry.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise CatalogError(f"{name} does not take parameter {key!r}")
        if isinstance(params[key], tuple) and isinstance(value, (int, float)):
            value = (float(value),)  # one number is a one-element vector
        params[key] = value
    try:
        built, size = builder(params)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CatalogError):
            raise
        raise CatalogError(f"bad parameters for {name}: {exc}") from None
    box = DomainBox.uniform(entry.interval[0], entry.interval[1], size)
    if entry.kind == _V:
        return VectorInstance(entry, built, size, box, params)
    return ScalarInstance(entry, built, size, box, params)
