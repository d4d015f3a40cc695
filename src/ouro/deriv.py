"""Derivatives of idempotent candidates: forward-mode duals, central
differences, and the unity checks.

An idempotent f: A^n -> A satisfies f(f(x),...,f(x)) = f(x).  Where f is C^1
and the gradient at x does not vanish, differentiating that identity forces
the partials of f at the diagonal point (f(x),...,f(x)) to sum to exactly 1;
for n = 1 this reads f'(f(x)) = 1.  Whether those partials are furthermore
all equal to 1/n is a separate claim: it holds for symmetric candidates but
fails for, say, a weighted mean, so the two claims are always reported
separately.

Points where the hypotheses fail are never counted as violations: a vanishing
gradient (|grad f(x)| below GRADIENT_FLOOR) or a non-smooth diagonal point
yields DEGENERATE.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping

from ._record import Record
from .expr import (
    BINARY_RULES, EvalDomainError, EvaluationError, Expr, UnboundVariableError,
    Undefined, evaluate,
)
from .verify import DomainBox, SamplePlan, Status, _expr_names

__all__ = [
    "KinkPointError", "UnityReport", "UnitySweep",
    "dual_eval", "fd_partial", "gradient",
    "check_unity", "unity_sweep",
    "GRADIENT_FLOOR", "TOL_UNITY", "KINK_RETRY_LIMIT",
]

# Identity checks run at 1e-6 with exact forward-mode derivatives and at a
# looser 1e-4 when both sides come from finite differences.
TOL_UNITY = {"dual": 1e-6, "fd": 1e-4}

# Below this max-norm of grad f(x) the differentiated identity is vacuous
# (0 = 0), so the point is reported DEGENERATE rather than checked.
GRADIENT_FLOOR = 1e-8

# How many fresh points to try when a sample lands within kink_margin of a
# non-smooth locus before giving up on that sample.
KINK_RETRY_LIMIT = 16


class KinkPointError(ValueError):
    """Evaluation touched a non-differentiable locus (jump or corner)."""

    def __init__(self, site: str):
        super().__init__(f"derivative undefined: {site}")
        self.site = site


# ---------------------------------------------------------------------------
# derivative rules
#
# Vector forward mode: every node has a value and a tangent, a tuple of any
# width holding one directional derivative per seed direction.  The rules
# below state each derivative once, over whole tangents, keyed like
# expr.BINARY_RULES / BUILTIN_RULES; a rule takes the values and tangents of
# its arguments and the node's value.  ouro._tangent unrolls them, component
# by component, into generated tangent functions, and the tests compare the
# two bit for bit.

Tangent = tuple[float, ...]


def _near(a: float, b: float, margin: float) -> bool:
    return abs(a - b) <= margin


def _neg(t: Tangent) -> Tangent:
    return tuple([-d for d in t])


def _zeros(t: Tangent) -> Tangent:
    return (0.0,) * len(t)


def _check_tie(a: float, b: float, margin: float, site: str) -> None:
    if _near(a, b, margin):
        raise KinkPointError(f"{site} tie at {a!r}")


def _pow_tangent(a: float, at: Tangent, b: float, bt: Tangent,
                 v: float) -> Tangent:
    base = None
    out = []
    for da, db in zip(at, bt):
        if db == 0.0:
            # constant exponent: d(a^c) = c * a^(c-1) * a'
            if da == 0.0 or b == 0.0:
                out.append(0.0)
                continue
            if base is None:
                base = BINARY_RULES["^"](a, b - 1.0)
            out.append(b * base * da)
        else:
            if a <= 0.0:
                raise Undefined("varying exponent needs a positive base")
            out.append(v * (db * math.log(a) + b * da / a))
    return tuple(out)


# The rules of + - * /, one tangent component at a time:
# (a, a'_k, b, b'_k, value) -> component k.  They are plain float
# arithmetic, so each runs unchanged on floats and on the _Terms of a
# generated tangent function.
_COMPONENT_RULES = {
    "+": lambda a, da, b, db, v: da + db,
    "-": lambda a, da, b, db, v: da - db,
    "*": lambda a, da, b, db, v: da * b + a * db,
    "/": lambda a, da, b, db, v: (da - v * db) / b,
}


def _componentwise(rule):
    return lambda a, at, b, bt, v: tuple([rule(a, da, b, db, v)
                                          for da, db in zip(at, bt)])


# Keyed like expr.BINARY_RULES: (a, a', b, b', value) -> tangent.
BINARY_TANGENTS = {**{op: _componentwise(rule)
                      for op, rule in _COMPONENT_RULES.items()},
                   "^": _pow_tangent}


def _call_tangent(func: str, args, v: float, margin: float) -> Tangent:
    """Kink checks and tangent of builtin `func` with value v; args holds
    the (value, tangent) pair of every argument."""
    a, t = args[0]
    if func in ("abs", "relu", "sign"):
        if _near(a, 0.0, margin):
            kind = "jump" if func == "sign" else "corner"
            raise KinkPointError(f"{func} at its {kind} 0")
        if func == "sign":
            return _zeros(t)
        if a > 0.0:
            return t
        return _neg(t) if func == "abs" else _zeros(t)
    if func in ("floor", "ceil"):
        frac = a - math.floor(a)
        if frac <= margin or 1.0 - frac <= margin:
            raise KinkPointError(f"{func} at a jump near {a!r}")
        return _zeros(t)
    if func == "exp":
        return tuple([d * v for d in t])
    if func == "ln":
        return tuple([d / a for d in t])
    if func == "sqrt":
        if a != 0.0:
            return tuple([d * 0.5 / v for d in t])
        if any(t):
            raise Undefined("derivative of sqrt at zero")
        return _zeros(t)
    b, bt = args[1]
    if func == "min":
        _check_tie(a, b, margin, "min")
        return t if a <= b else bt
    if func == "max":
        _check_tie(a, b, margin, "max")
        return t if a >= b else bt
    # clamp(a, lo, hi) = min(max(a, lo), hi), lo = b
    hi, hit = args[2]
    _check_tie(a, b, margin, "clamp lower corner")
    m, mt = (a, t) if a >= b else (b, bt)
    _check_tie(m, hi, margin, "clamp upper corner")
    return mt if m <= hi else hit


# ---------------------------------------------------------------------------
# tangent functions
#
# One function is generated per expression and seed layout, by the emitter
# in ouro._tangent.  A layout gives, for each variable in order of first
# read, each component of its seed: 0.0 or 1.0 where the source can rely on
# that, else None for a component read when the function runs.

Layout = tuple[tuple[float | None, ...], ...]


def _same_bits(x: float, y: float) -> bool:
    return x.hex() == y.hex()


def _tangent_source(layout: Layout = ()):
    """The emitter of a tangent function for `layout`, and the key of such
    functions in Program.generated.  ouro._tangent is loaded here, with the
    first tangent function built, so a command that takes no derivative
    never compiles it."""
    from ._tangent import _TangentSource
    return _TangentSource(layout)


def _layout(seeds) -> Layout:
    """The layout of `seeds`: each component 0.0 or 1.0 where it is exactly
    that, sign of zero included, and None where it is read when the
    function runs."""
    return tuple(tuple([d if d == 1.0 or _same_bits(d, 0.0) else None
                        for d in seed]) for seed in seeds)


@cache
def _unit_seeds(n: int) -> tuple[Tangent, ...]:
    """The n unit seeds of width n, which are their own layout."""
    return tuple(tuple([1.0 if k == j else 0.0 for k in range(n)])
                 for j in range(n))


def _check_bindings(names: list[str], env: Mapping[str, float]) -> None:
    for name in names:
        if name not in env:
            raise UnboundVariableError(name)
        x = env[name]
        if not math.isfinite(x):
            raise EvaluationError(f"non-finite binding {name}={x!r}")


def _walk(f: Expr, names: list[str], env: Mapping[str, float],
          seeds, margin: float,
          layout: Layout | None = None) -> tuple[float, Tangent]:
    """(value, tangent) of f at env, variable names[j] carrying seeds[j];
    raises KinkPointError within `margin` of a jump or corner.  `layout`
    is _layout(seeds), from a caller that knows it already."""
    _check_bindings(names, env)
    if layout is None:
        layout = _layout(seeds)
    return f.program.generated(_tangent_source, layout)(env, seeds, margin)


def dual_eval(f: Expr, env: Mapping[str, float], i: int, *,
              kink_margin: float = 0.0) -> tuple[float, float]:
    """Value and exact partial d f / d x_i at `env` by forward mode.

    Coordinates are indexed by first appearance, matching free_variables(f).
    The value half is bit-identical to evaluate(f, env).  KinkPointError is
    raised when any non-smooth builtin is evaluated within kink_margin of
    its jump or corner (and always when exactly on it).
    """
    names = f.program.names
    if not 0 <= i < len(names):
        raise ValueError(f"coordinate {i} out of range for {len(names)} variable(s)")
    seeds = tuple([(1.0,) if j == i else (0.0,) for j in range(len(names))])
    value, (deriv,) = _walk(f, names, env, seeds, kink_margin, seeds)
    return value, deriv


def fd_partial(f: Expr, env: Mapping[str, float], i: int) -> float:
    """Central-difference estimate of d f / d x_i at `env`, with step
    h = 1e-6 * max(1, |x_i|).

    Where one probe, x_i + h or x_i - h, raises EvalDomainError, the
    one-sided difference on the other side is taken; where both do, the
    upper probe's error propagates.  Keeping the probes away from kinks is
    the caller's part (the step is not validated against the box).
    """
    names = f.program.names
    if not 0 <= i < len(names):
        raise ValueError(f"coordinate {i} out of range for {len(names)} variable(s)")
    name = names[i]
    x = env[name]
    h = 1e-6 * max(1.0, abs(x))
    probe, ends, errors = dict(env), [], []
    for step in (h, -h):
        probe[name] = x + step
        try:
            ends.append((step, evaluate(f, probe)))
        except EvalDomainError as exc:
            errors.append(exc)
    if not ends:
        raise errors[0]
    if errors:  # x itself stands in for the probe that left the domain
        ends.append((0.0, evaluate(f, env)))
    (s0, y0), (s1, y1) = ends
    return (y0 - y1) / (s0 - s1)


def _value_and_gradient(f: Expr, names: list[str], env: Mapping[str, float],
                        method: str, margin: float) -> tuple[float, Tangent]:
    """f's value and gradient at env, whose bindings the caller checked."""
    if method == "dual":
        unit = _unit_seeds(len(names))
        return f.program.generated(_tangent_source, unit)(env, unit, margin)
    # Finite differencing cannot see kinks on its own: a width-0 walk
    # screens the point first.
    value, _ = f.program.generated(_tangent_source, ())(env, (), margin)
    return value, tuple([fd_partial(f, env, i) for i in range(len(names))])


def gradient(f: Expr, env: Mapping[str, float], method: str = "dual", *,
             kink_margin: float = 0.0) -> tuple[float, ...]:
    """All partials of f at `env` by the chosen method."""
    if method not in TOL_UNITY:
        raise ValueError(f"unknown method {method!r}")
    names = f.program.names
    if method == "dual" and not names:
        return ()  # no coordinates to seed, so nothing is walked
    _check_bindings(names, env)
    return _value_and_gradient(f, names, env, method, kink_margin)[1]


class UnityReport(Record):
    """Outcome of the derivative identity checks at one point.

    sum_to_one constrains the sum of the diagonal partials to 1;
    equal_shares additionally constrains every partial to 1/n.  The two are
    independent claims and are always reported side by side.
    """

    n: int
    point: tuple[float, ...]
    value: float
    outer_gradient: tuple[float, ...]
    shares: tuple[float, ...] | None
    share_sum: float | None
    sum_to_one: Status
    equal_shares: Status
    method: str
    tol: float
    degenerate_reason: str | None = None


class UnitySweep(Record):
    reports: tuple[UnityReport, ...]
    points_skipped: int


def check_unity(f: Expr, env: Mapping[str, float], plan: SamplePlan,
                method: str = "dual") -> UnityReport:
    """Evaluate both unity claims for f at one point.

    DEGENERATE (for both claims) when |grad f(x)| is below the floor --
    there the differentiated identity is vacuous -- or when the diagonal
    point is a kink, where the partials do not exist.  Raises
    KinkPointError if x itself sits on a kink of the outer gradient.  Both
    claims are compared at TOL_UNITY[method].
    """
    if method not in TOL_UNITY:
        raise ValueError(f"unknown method {method!r}")
    tol = TOL_UNITY[method]
    names = f.program.names
    n = len(names)
    if n == 0:
        raise ValueError("candidate has no free variables")
    _check_bindings(names, env)
    margin = plan.kink_margin
    value, outer = _value_and_gradient(f, names, env, method, margin)
    zero_grad = max(map(abs, outer)) <= GRADIENT_FLOOR

    shares: tuple[float, ...] | None
    try:  # value is finite, so the diagonal point binds every name
        diag = dict.fromkeys(names, value)
        shares = _value_and_gradient(f, names, diag, method, margin)[1]
        share_sum = sum(shares)
    except KinkPointError:
        shares = None
        share_sum = None

    if zero_grad:
        reason = "zero_gradient"
    elif shares is None:
        reason = "kink_diagonal"
    else:
        reason = None

    if reason is not None:
        sum_status = equal_status = Status.DEGENERATE
    else:
        sum_status = Status.PASS if abs(share_sum - 1.0) <= tol else Status.FAIL
        target = 1.0 / n
        worst = max([abs(s - target) for s in shares])
        equal_status = Status.PASS if worst <= tol else Status.FAIL

    point = tuple([env[name] for name in names])
    return UnityReport(n, point, value, outer, shares, share_sum,
                       sum_status, equal_status, method, tol, reason)


def unity_sweep(f: Expr, domain: DomainBox, plan: SamplePlan,
                method: str = "dual") -> UnitySweep:
    """Run check_unity at plan.sample_count sampled points.

    A point whose outer gradient touches a kink is replaced by up to
    KINK_RETRY_LIMIT fresh draws; if all retries land on kinks too, the
    sample is counted in points_skipped.  Results are independent of
    evaluation order: candidate j for sample i depends only on (seed, i, j).
    The box must fit f as verify's membership check requires: one interval
    per variable, all of them the same.
    """
    names = _expr_names(f, domain)
    reports = []
    skipped = 0
    stride = KINK_RETRY_LIMIT + 1
    for i in range(plan.sample_count):
        placed = False
        for r in range(stride):
            point = domain.sample_point(plan.seed, i * stride + r)
            env = dict(zip(names, point))
            try:
                reports.append(check_unity(f, env, plan, method))
                placed = True
                break
            except KinkPointError:
                continue
        if not placed:
            skipped += 1
    return UnitySweep(tuple(reports), skipped)
