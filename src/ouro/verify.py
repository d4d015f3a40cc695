"""Sampling-based verification of the idempotence law f(f(x)) = f(x).

A candidate is checked on a box domain A (one closed interval per
coordinate).  Membership in the Ouroboros space additionally requires range
containment, f(x) in A, so that self-application is legal.  A candidate is
a DSL expression or an operator, a callable that maps a tuple of d floats
to a tuple of d floats.  All verdicts are deterministic: the i-th sample
point depends only on (seed, i), never on scheduling, so the first violation
is always the one with the smallest sample index.
"""

from __future__ import annotations

import math
import operator
import struct
from enum import Enum
from typing import Callable, Union

from ._record import Record
from .expr import EvaluationError, Expr, evaluate

__all__ = [
    "Status", "DomainBox", "SamplePlan", "Witness", "Verdict",
    "unit_uniform", "check_membership", "check_iterated",
    "DEFAULT_INTERVAL",
]

DEFAULT_INTERVAL = (-10.0, 10.0)

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def unit_uniform(seed: int, counter: int) -> float:
    """Uniform double in [0, 1) from pure counter mixing (splitmix64).

    Sample i never depends on samples j < i, so verification can be
    reordered or parallelised without changing any verdict.
    """
    z = (seed + (counter + 1) * _GOLDEN) & _M64
    return (_mix64(z) >> 11) * 2.0 ** -53


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    DEGENERATE = "DEGENERATE"
    DOMAIN_ERROR = "DOMAIN_ERROR"

    def __str__(self) -> str:  # keep report text free of enum noise
        return self.value


class DomainBox(Record):
    """Axis-aligned closed box; one (lo, hi) interval per coordinate."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not ivs:
            raise ValueError("a DomainBox needs at least one interval")
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("box bounds must be finite")
            if not lo < hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                # sample_point scales by hi - lo, which would sample infinity
                raise ValueError(f"interval [{lo}, {hi}] is wider than the "
                                 "largest double")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "DomainBox":
        return cls(((lo, hi),) * n)

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.intervals)) == 1

    @property
    def interval(self) -> tuple[float, float]:
        if not self.is_uniform:
            raise ValueError("box has per-coordinate intervals")
        return self.intervals[0]

    def sample_point(self, seed: int, index: int) -> tuple[float, ...]:
        """Coordinate j is lo + unit_uniform(seed, index * n + j) * (hi - lo),
        with the splitmix64 state stepped by _GOLDEN per coordinate."""
        z = (seed + (index * len(self.intervals) + 1) * _GOLDEN) & _M64
        out = []
        for lo, hi in self.intervals:
            x = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
            out.append(lo + ((x ^ (x >> 31)) >> 11) * 2.0 ** -53 * (hi - lo))
            z = (z + _GOLDEN) & _M64
        return tuple(out)

    def signed_escape(self, j: int, value: float, slack: float) -> float:
        """Signed distance by which `value` leaves interval j, 0.0 inside.
        `slack` widens the interval to absorb harmless rounding at the
        boundary."""
        lo, hi = self.intervals[j]
        if value < lo - slack:
            return value - lo
        if value > hi + slack:
            return value - hi
        return 0.0


class SamplePlan(Record):
    """Reproducible sampling and tolerance policy."""

    seed: int = 0
    sample_count: int = 256
    atol: float = 1e-9
    rtol: float = 1e-9
    kink_margin: float = 1e-7
    k_max: int = 16

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        # NaN fails every comparison and inf passes all of them, so either
        # would make every check vacuous.
        for name in ("atol", "rtol", "kink_margin"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.k_max < 2:
            raise ValueError("k_max must be at least 2")
        object.__setattr__(self, "seed", int(self.seed) & _M64)

    def tol(self, ref: float) -> float:
        return self.atol + self.rtol * abs(ref)


class Witness(Record):
    """Concrete counterexample (or fault site) found during a check."""

    point: tuple[float, ...]
    value: object  # f(x): float, tuple for operators, None on eval fault
    revalue: object  # f(f(x)) or the drifted iterate
    residual: float | None  # signed violation size; None on eval fault
    reason: str  # RESIDUAL | RANGE_ESCAPE | DRIFT | EVAL_ERROR
    detail: str = ""


class Verdict(Record):
    status: Status
    witness: Witness | None
    samples_evaluated: int
    samples_skipped: int
    max_drift: float | None = None

    def __post_init__(self):
        if self.status is Status.FAIL and self.witness is None:
            raise ValueError("FAIL verdicts must carry a witness")


def _fail(witness: Witness, index: int, plan: SamplePlan, max_drift=None) -> Verdict:
    return Verdict(Status.FAIL, witness, index + 1,
                   plan.sample_count - index - 1, max_drift)


def _fault(point, exc, index, plan, max_drift=None) -> Verdict:
    witness = Witness(point, None, None, None, "EVAL_ERROR", str(exc))
    return Verdict(Status.DOMAIN_ERROR, witness, index + 1,
                   plan.sample_count - index - 1, max_drift)


def _expr_names(f: Expr, domain: DomainBox) -> tuple[str, ...]:
    """Free variables of a DSL target, checked against its box.

    Self-application feeds the scalar output back into every argument,
    which only types when the domain is A^n for a single interval A.
    """
    names = f.program.names
    n = len(names)
    if n == 0:
        raise ValueError("candidate has no free variables")
    if domain.n != n:
        raise ValueError(f"domain has {domain.n} interval(s) for {n} variable(s)")
    if not domain.is_uniform:
        raise ValueError("self-application needs a uniform box A^n")
    return names


Operator = Callable[[tuple[float, ...]], tuple[float, ...]]
Target = Union[Expr, Operator]


def _call_operator(call, x: tuple[float, ...]) -> tuple[float, ...]:
    """call(x) as a tuple of len(x) finite numbers; any other result, or a
    TypeError, ValueError or ArithmeticError, is an EvaluationError."""
    try:
        y = call(x)
        # isfinite raises TypeError on a non-number, OverflowError on a huge int
        if (isinstance(y, tuple) and len(y) == len(x)
                and all(map(math.isfinite, y))):
            return y
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise EvaluationError(f"{type(exc).__name__}: {exc}") from exc
    raise EvaluationError(f"operator produced {y!r}")


def _max_norm(y: tuple[float, ...], y1: tuple[float, ...]) -> float:
    return max(map(abs, map(operator.sub, y, y1)))


def _target_kind(f: Target, domain: DomainBox):
    """How a target is applied and measured, as the tuple (first, again,
    distance, scale, residual_detail, bits): f at a sample point, f fed its
    own output, the drift of t_k from t_1 (signed, or the max norm for
    operators), the magnitude the tolerance scales with, the detail of a
    RESIDUAL witness, and the bytes of an iterate's floats, by which an
    operator's iteration stops once an iterate repeats (None for a DSL
    target, which keeps the full loop)."""
    if isinstance(f, Expr):
        names = _expr_names(f, domain)
        return (lambda point: evaluate(f, dict(zip(names, point))),
                lambda t: evaluate(f, dict.fromkeys(names, t)),
                operator.sub, abs, "", None)
    if not callable(f):
        raise TypeError(f"a target is an Expr or an operator, got {f!r}")
    apply = lambda x: _call_operator(f, x)
    return (apply, apply, _max_norm, lambda y: max(map(abs, y)),
            "max-norm residual", struct.Struct(f"{domain.n}d").pack)


def _scan(f: Target, domain: DomainBox, plan: SamplePlan,
          membership: bool) -> Verdict:
    """The one sample scan behind both checks.

    At each sample x it computes t_1 = f(x) and feeds it back until t_depth,
    failing at the first k with |t_k - t_1| > atol + rtol*|t_1|.
    Membership is depth 2 plus range containment of t_1 (DSL targets only);
    the iterated check runs to k_max and keeps the largest drift seen.  An
    operator's iteration stops once t_k repeats t_{k-1} bit for bit,
    sign of zero included: every later t_k would be the same, so no verdict
    or drift can change.
    """
    first, again, distance, scale, residual_detail, bits = \
        _target_kind(f, domain)
    # The witness detail is detail.format(k); a RESIDUAL detail has no
    # field, so format leaves it as it is.
    if membership:
        depth, reason, detail, max_drift = 2, "RESIDUAL", residual_detail, None
    else:
        depth, reason, detail, max_drift = plan.k_max, "DRIFT", "k={}", 0.0
    contain = membership and isinstance(f, Expr)
    if contain:
        lo, hi = domain.interval
        slack = plan.tol(max(abs(lo), abs(hi)))
    for i in range(plan.sample_count):
        point = domain.sample_point(plan.seed, i)
        try:
            t1 = first(point)
            if contain:
                escape = domain.signed_escape(0, t1, slack)
                if escape != 0.0:
                    witness = Witness(point, t1, None, escape, "RANGE_ESCAPE",
                                      f"f(x) left [{lo}, {hi}]")
                    return _fail(witness, i, plan)
            tol = plan.tol(scale(t1))
            t = t1
            for k in range(2, depth + 1):
                prev, t = t, again(t)
                drift = distance(t, t1)
                size = abs(drift)
                if max_drift is not None and size > max_drift:
                    max_drift = size
                if size > tol:
                    witness = Witness(point, t1, t, drift, reason,
                                      detail.format(k))
                    return _fail(witness, i, plan, max_drift)
                if bits is not None and bits(*t) == bits(*prev):
                    break
        except EvaluationError as exc:
            return _fault(point, exc, i, plan, max_drift)
    return Verdict(Status.PASS, None, plan.sample_count, 0, max_drift)


def check_membership(f: Target, domain: DomainBox, plan: SamplePlan) -> Verdict:
    """Sampled check of f(f(x),...,f(x)) = f(x) with range containment.

    A DSL target must map A^n into A and satisfy the law within
    atol + rtol*|f(x)| at every sampled x; n = 1 reads f(f(x)) = f(x).
    A vector operator P: R^d -> R^d is checked as P(P(x)) = P(x) in the
    max norm, within atol + rtol*max|P(x)|; its box only places the
    samples, and P(x) is not required to stay inside it.

    f must be deterministic: the verdict must not depend on the order of
    the samples, and a witness must reproduce bit for bit.
    """
    return _scan(f, domain, plan, membership=True)


def check_iterated(f: Target, domain: DomainBox, plan: SamplePlan) -> Verdict:
    """Iterate the self-application k_max times and bound the drift.

    Starting from t_1 = f(x), each step feeds the previous output back in
    (t_{k} = f(t_{k-1}) once, or on every argument).  For an exact member
    every t_k equals t_1; the verdict records the largest |t_k - t_1| seen
    and fails if any drift exceeds atol + rtol*|t_1|.

    f must be deterministic, as for check_membership.
    """
    return _scan(f, domain, plan, membership=False)
