"""Curated families of idempotent functions.

Scalar entries come with a DSL expression so every engine (evaluation,
membership sampling, dual/finite-difference derivatives) applies to them;
vector entries carry a plain-Python operator on tuples of floats and
extend the membership check to vector-valued domains.  Flags are honest
contract metadata:

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

import itertools
import math
import operator
import sys
from functools import reduce
from typing import Callable, Mapping, Sequence

from ._record import Record, integer, real
from .expr import Expr, parse
from .verify import DEFAULT_INTERVAL, DomainBox

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

    fn maps one point, a sequence of dim floats, to a tuple of dim floats,
    deterministically.  verify applies an instance as it applies any other
    operator, through __call__.
    """

    entry: CatalogEntry
    fn: Callable[[Sequence[float]], tuple[float, ...]]
    dim: int
    box: DomainBox
    params: dict

    def __call__(self, x: Sequence[float]) -> tuple[float, ...]:
        return self.fn(x)

    def _key(self) -> tuple:
        # fn is built per instantiation, so it takes no part in equality
        return (self.entry, self.dim, self.box, self.params)

    @property
    def target(self) -> "VectorInstance":
        return self


def _names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def _typed(key: str, default, value):
    """value in the type of its parameter's default: an int, a finite float,
    or a tuple of finite floats, where a value whose type cannot be iterated
    (one number, numpy's scalars too) is a one-element vector."""
    if isinstance(default, tuple):
        values = value if hasattr(type(value), "__iter__") else (value,)
        return tuple(_typed(key, 0.0, v) for v in values)
    try:
        if isinstance(default, int):
            return integer(key, value)
        v = real(key, value)
    except ValueError as exc:
        raise CatalogError(str(exc)) from None
    if not math.isfinite(v):
        raise CatalogError(f"{key} must be finite, got {value!r}")
    return v


def _int_n(params: Mapping, key: str = "n", *, minimum: int = 2,
           odd: bool = False) -> int:
    n = params[key]
    if n < minimum:
        raise CatalogError(f"{key} must be at least {minimum}")
    if odd and n % 2 == 0:
        raise CatalogError(f"{key} must be odd")
    return n


# --- scalar builders -------------------------------------------------------
# An entry whose formula only fills in its parameters is a DSL template in
# its registry row instead of a builder.

def _b_clamp(p):
    lo, hi = p["lo"], p["hi"]
    if not lo < hi:
        raise CatalogError("clamp needs lo < hi")
    return parse(f"clamp(x, {lo!r}, {hi!r})"), 1


def _b_arith_mean(p):
    n = _int_n(p)
    return parse(f"({' + '.join(_names(n))}) / {n}"), n


def _b_geo_mean(p):
    n = _int_n(p)
    product = " * ".join(_names(n))
    if n == 2:
        return parse(f"sqrt({product})"), 2
    return parse(f"({product})^{1.0 / n!r}"), n


def _b_harmonic_mean(p):
    n = _int_n(p)
    recip = " + ".join(f"1 / {v}" for v in _names(n))
    return parse(f"{n} / ({recip})"), n


def _b_power_mean(p):
    n = _int_n(p)
    exponent = p["p"]
    if exponent == 0.0:
        raise CatalogError("power_mean needs p != 0")
    inverse = 1.0 / exponent
    if not math.isfinite(inverse):
        raise CatalogError(f"power_mean needs a finite 1/p, got p={exponent!r}")
    powers = " + ".join(f"{v}^{exponent!r}" for v in _names(n))
    return parse(f"(({powers}) / {n})^{inverse!r}"), n


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


def _b_fold(func: str):
    """The builder of func folded over n arguments, left to right."""
    def build(p):
        n = _int_n(p)
        return parse(reduce(lambda a, b: f"{func}({a}, {b})", _names(n))), n

    return build


def _b_weighted_mean(p):
    w = p["w"]
    if len(w) < 2:
        raise CatalogError("weighted_mean needs at least two weights")
    if min(w) < 0.0:
        raise CatalogError("weights must be non-negative")
    if abs(math.fsum(w) - 1.0) > 1e-12:
        raise CatalogError("weights must sum to 1 within 1e-12")
    terms = " + ".join(f"{v!r} * {name}" for v, name in zip(w, _names(len(w))))
    return parse(terms), len(w)


# --- vector builders -------------------------------------------------------
# Each operator maps one point, a sequence of d floats, to a tuple of d
# floats, in plain Python.

_ROOT_MAX = math.sqrt(sys.float_info.max)  # beyond it, x . x overflows
_UNIT = 2.0 ** 64


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    """x . y, correctly rounded from the rounded products (math.fsum), so
    it does not depend on summation order.  Where a product or a partial
    sum overflows, the products are summed again in units of 2**64, which
    is exact but for products that underflow; the result is then inf only
    where x . y exceeds the largest double, and nan where even that fails."""
    try:
        return math.fsum(map(operator.mul, x, y))
    except (OverflowError, ValueError):
        pass
    try:
        return math.fsum(v / _UNIT * w for v, w in zip(x, y)) * _UNIT
    except (OverflowError, ValueError):
        return math.nan


def _v_box_clamp(p):
    lo, hi = p["lo"], p["hi"]
    d = _int_n(p, "d", minimum=1)
    if not lo < hi:
        raise CatalogError("box_clamp needs lo < hi")

    def fn(x):
        # an entry equal to an edge is kept, with its own sign of zero
        return tuple([lo if v < lo else hi if v > hi else v for v in x])

    return fn, d


def _v_l2_ball(p):
    r = p["r"]
    d = _int_n(p, "d", minimum=1)
    if r <= 0.0:
        raise CatalogError("l2_ball_projection needs r > 0")

    def fn(x):
        norm = math.hypot(*x)
        if norm <= r:
            return tuple(x)
        if norm > _ROOT_MAX:
            # x is divided by its largest entry first, so v * r stays finite
            s = max(map(abs, x))
            x = [v / s for v in x]
            norm = math.hypot(*x)
        return tuple([v * r / norm for v in x])

    return fn, d


def _v_hyperplane(p):
    a, b = p["a"], p["b"]
    if not a:
        raise CatalogError("a must be a non-empty vector")
    top = max(map(abs, a))
    if top == 0.0:
        raise CatalogError("a must be non-zero")
    # a and b scaled by 2**-e bring the largest |a_i| into [0.5, 1), so
    # a . a neither underflows to 0 nor overflows; a power of two scales
    # exactly, so no projection changes but where an entry turns subnormal
    e = math.frexp(top)[1]
    a = [math.ldexp(w, -e) for w in a]
    try:
        b = math.ldexp(b, -e)
    except OverflowError:
        raise CatalogError(f"b / max|a_i| must be finite, got b = {b}, "
                           f"max|a_i| = {top}") from None
    denom = _dot(a, a)

    def fn(x):
        lam = (_dot(x, a) - b) / denom
        if not math.isfinite(lam):
            # x . a - b exceeds the largest double: project x / 2**64 onto
            # a . y = b / 2**64 and scale back, both exact but for
            # subnormals, so the projection stays finite
            x = [v / _UNIT for v in x]
            lam = (_dot(x, a) - b / _UNIT) / denom
            return tuple([(v - lam * w) * _UNIT for v, w in zip(x, a)])
        return tuple([v - lam * w for v, w in zip(x, a)])

    return fn, len(a)


def _v_simplex(p):
    d = _int_n(p, "d", minimum=1)

    def fn(x):
        # Euclidean projection onto {y >= 0, sum y = 1} by sorting and
        # thresholding: the largest k whose shifted entry stays positive
        # gives the threshold, which is subtracted before clipping at 0.
        u = sorted(x, reverse=True)
        theta = None
        for k, (v, css) in enumerate(zip(u, itertools.accumulate(u)), 1):
            if v * k > css - 1.0:
                theta = (css - 1.0) / k
        if theta is None:
            # k = 1 always qualifies unless u_1 - 1 rounds to u_1
            raise ValueError("entries too large to threshold onto the simplex")
        # v > theta exactly where v - theta > 0.0, and every other entry
        # is +0.0, even where v - theta is -0.0
        return tuple([v - theta if v > theta else 0.0 for v in x])

    return fn, d


# --- registry --------------------------------------------------------------

_REGISTRY: dict[str, tuple[CatalogEntry, Callable]] = {}


def _scalar(name, kind, summary, arity, params, interval,
            smooth, symmetric, exact, build):
    """Register an entry.  params are (name, default, meaning) rows; build
    maps typed params to (expr or operator, size), or is a univariate DSL
    template formatted with them."""
    entry = CatalogEntry(name, kind, summary, arity,
                         tuple((key, meaning) for key, _, meaning in params),
                         {key: default for key, default, _ in params},
                         interval, smooth, symmetric, exact)
    if isinstance(build, str):
        template = build

        def build(p):
            return parse(template.format_map(p)), 1

    _REGISTRY[name] = (entry, build)


_U = "scalar-univariate"
_M = "scalar-multivariate"
_V = "vector-operator"
_BOX = DEFAULT_INTERVAL
_POS = POSITIVE_INTERVAL

_scalar("identity", _U, "x itself; every point is fixed", "1",
        (), _BOX, True, True, True, "x")
# 0*x keeps the function univariate while evaluating to exactly c.
_scalar("constant", _U, "the constant function c (written 0*x + c)", "1",
        (("c", 5.0, "constant value, inside the box"),), _BOX,
        True, True, True, "0 * x + {c!r}")
_scalar("abs", _U, "absolute value; fixes [0, hi]", "1",
        (), _BOX, False, True, True, "abs(x)")
_scalar("floor", _U, "round down; fixes the integers", "1",
        (), _BOX, False, True, True, "floor(x)")
_scalar("ceil", _U, "round up; fixes the integers", "1",
        (), _BOX, False, True, True, "ceil(x)")
_scalar("relu", _U, "max(x, 0); fixes [0, hi]", "1",
        (), _BOX, False, True, True, "relu(x)")
_scalar("clamp", _U, "clip into [lo, hi]", "1",
        (("lo", 0.0, "lower edge"), ("hi", 1.0, "upper edge")),
        _BOX, False, True, True, _b_clamp)
_scalar("max_const", _U, "max(x, c); fixes [c, hi]", "1",
        (("c", 0.0, "floor value"),), _BOX, False, True, True,
        "max(x, {c!r})")
_scalar("min_const", _U, "min(x, c); fixes [lo, c]", "1",
        (("c", 0.0, "cap value"),), _BOX, False, True, True,
        "min(x, {c!r})")

_N_PARAM = ("n", 3, "number of arguments")

_scalar("arith_mean", _M, "arithmetic mean of n arguments", "n >= 2",
        (_N_PARAM,), _BOX, True, True, False, _b_arith_mean)
_scalar("geo_mean", _M, "geometric mean on a positive box", "n >= 2",
        (_N_PARAM,), _POS, True, True, False, _b_geo_mean)
_scalar("harmonic_mean", _M, "harmonic mean on a positive box", "n >= 2",
        (_N_PARAM,), _POS, True, True, False, _b_harmonic_mean)
_scalar("power_mean", _M, "power mean ((sum x_i^p)/n)^(1/p) on a positive box",
        "n >= 2", (("p", 2.0, "exponent, p != 0"), _N_PARAM),
        _POS, True, True, False, _b_power_mean)
_scalar("median", _M, "middle order statistic (odd n keeps it single-valued)",
        "n in {3, 5}", (_N_PARAM,), _BOX, False, True, True, _b_median)
_scalar("min_all", _M, "smallest argument", "n >= 2",
        (_N_PARAM,), _BOX, False, True, True, _b_fold("min"))
_scalar("max_all", _M, "largest argument", "n >= 2",
        (_N_PARAM,), _BOX, False, True, True, _b_fold("max"))
_scalar("weighted_mean", _M,
        "convex combination sum w_i x_i; idempotent but not symmetric",
        "n = len(w)", (("w", (0.3, 0.7), "non-negative weights summing to 1"),),
        _BOX, True, False, False, _b_weighted_mean)

_scalar("box_clamp", _V, "componentwise clip into [lo, hi]^d", "vector, d >= 1",
        (("lo", 0.0, "lower edge"), ("hi", 1.0, "upper edge"),
         ("d", 3, "dimension")), _BOX, False, False, True, _v_box_clamp)
_scalar("l2_ball_projection", _V, "nearest point of the centered l2 ball of radius r",
        "vector, d >= 1", (("r", 1.0, "radius, r > 0"), ("d", 3, "dimension")),
        _BOX, False, False, False, _v_l2_ball)
_scalar("hyperplane_projection", _V, "orthogonal projection onto a.x = b",
        "vector, d = len(a)",
        (("a", (1.0, 1.0, 1.0), "normal vector, non-zero"), ("b", 1.0, "offset")),
        _BOX, False, False, False, _v_hyperplane)
_scalar("simplex_projection", _V,
        "Euclidean projection onto the probability simplex",
        "vector, d >= 1", (("d", 3, "dimension"),), (-1.0, 1.0),
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
    entry = get_entry(name)
    builder = _REGISTRY[name][1]
    params = dict(entry.defaults)
    for key in overrides:
        if key not in params:
            raise CatalogError(f"{name} does not take parameter {key!r}")
    try:
        params.update((key, _typed(key, params[key], value))
                      for key, value in overrides.items())
        built, size = builder(params)
    except (TypeError, ValueError, ArithmeticError) as exc:
        if isinstance(exc, CatalogError):
            raise
        raise CatalogError(f"bad parameters for {name}: {exc}") from None
    box = DomainBox.uniform(entry.interval[0], entry.interval[1], size)
    if entry.kind == _V:
        return VectorInstance(entry, built, size, box, params)
    return ScalarInstance(entry, built, size, box, params)
