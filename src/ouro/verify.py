"""Sampling-based verification of the idempotence law f(f(x)) = f(x).

A candidate is checked on a box domain A (one closed interval per
coordinate).  Membership in the Ouroboros space additionally requires range
containment, f(x) in A, so that self-application is legal.  All verdicts are
deterministic: the i-th sample point depends only on (seed, i), never on
scheduling, so the first violation is always the one with the smallest
sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .expr import EvaluationError, Expr, evaluate, free_variables

__all__ = [
    "Status", "DomainBox", "SamplePlan", "Witness", "Verdict",
    "unit_uniform", "check_operator_idempotence",
    "check_membership", "check_iterated",
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


@dataclass(frozen=True)
class DomainBox:
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
        out = []
        base = index * self.n
        for j, (lo, hi) in enumerate(self.intervals):
            u = unit_uniform(seed, base + j)
            out.append(lo + u * (hi - lo))
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


@dataclass(frozen=True)
class SamplePlan:
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
        if self.atol < 0 or self.rtol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.kink_margin < 0:
            raise ValueError("kink_margin must be non-negative")
        if self.k_max < 2:
            raise ValueError("k_max must be at least 2")
        object.__setattr__(self, "seed", int(self.seed) & _M64)

    def tol(self, ref: float) -> float:
        return self.atol + self.rtol * abs(ref)


@dataclass(frozen=True)
class Witness:
    """Concrete counterexample (or fault site) found during a check."""

    point: tuple[float, ...]
    value: object  # f(x): float, tuple for operators, None on eval fault
    revalue: object  # f(f(x)) or the drifted iterate
    residual: float | None  # signed violation size; None on eval fault
    reason: str  # RESIDUAL | RANGE_ESCAPE | DRIFT | EVAL_ERROR
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Witness | None
    samples_evaluated: int
    samples_skipped: int
    max_drift: float | None = None

    def __post_init__(self):
        if self.status is Status.FAIL and self.witness is None:
            raise ValueError("FAIL verdicts must carry a witness")


def _containment_slack(plan: SamplePlan, lo: float, hi: float) -> float:
    return plan.atol + plan.rtol * max(abs(lo), abs(hi))


def _fail(witness: Witness, index: int, plan: SamplePlan, max_drift=None) -> Verdict:
    return Verdict(Status.FAIL, witness, index + 1,
                   plan.sample_count - index - 1, max_drift)


def _fault(point, exc, index, plan, max_drift=None) -> Verdict:
    witness = Witness(point, None, None, None, "EVAL_ERROR", str(exc))
    return Verdict(Status.DOMAIN_ERROR, witness, index + 1,
                   plan.sample_count - index - 1, max_drift)


def _expr_names(f: Expr, domain: DomainBox) -> list[str]:
    """Free variables of a DSL target, checked against its box.

    Self-application feeds the scalar output back into every argument,
    which only types when the domain is A^n for a single interval A.
    """
    names = free_variables(f)
    n = len(names)
    if n == 0:
        raise ValueError("candidate has no free variables")
    if domain.n != n:
        raise ValueError(f"domain has {domain.n} interval(s) for {n} variable(s)")
    if not domain.is_uniform:
        raise ValueError("self-application needs a uniform box A^n")
    return names


VectorFn = Callable[[np.ndarray], np.ndarray]


def _apply_operator(op: VectorFn, x: np.ndarray, point, index: int,
                    plan: SamplePlan, max_drift=None):
    """op(x) as a float array of x's shape, or the DOMAIN_ERROR verdict
    when the call raises or yields a wrong shape or a non-finite value."""
    try:
        y = np.asarray(op(x), dtype=float)
    except (ValueError, ArithmeticError) as exc:
        return _fault(point, f"{type(exc).__name__}: {exc}", index, plan,
                      max_drift)
    if y.shape != x.shape or not np.all(np.isfinite(y)):
        return _fault(point, f"operator produced {y!r}", index, plan, max_drift)
    return y


def check_operator_idempotence(op: VectorFn, domain: DomainBox,
                               plan: SamplePlan) -> Verdict:
    """Sampled check that P(P(x)) = P(x) in the max norm for a vector
    operator P: R^d -> R^d.  This extends the scalar membership check to a
    vector-valued domain."""
    for i in range(plan.sample_count):
        point = domain.sample_point(plan.seed, i)
        x = np.asarray(point, dtype=float)
        y = _apply_operator(op, x, point, i, plan)
        if isinstance(y, Verdict):
            return y
        z = _apply_operator(op, y, point, i, plan)
        if isinstance(z, Verdict):
            return z
        residual = float(np.max(np.abs(z - y)))
        if residual > plan.tol(float(np.max(np.abs(y)))):
            witness = Witness(point, tuple(y.tolist()), tuple(z.tolist()),
                              residual, "RESIDUAL", "max-norm residual")
            return _fail(witness, i, plan)
    return Verdict(Status.PASS, None, plan.sample_count, 0)


Target = Union[Expr, VectorFn]


def check_membership(f: Target, domain: DomainBox, plan: SamplePlan) -> Verdict:
    """Sampled check of f(f(x),...,f(x)) = f(x) with range containment.

    A DSL target must map A^n into A and satisfy the law within
    atol + rtol*|f(x)| at every sampled x; n = 1 reads f(f(x)) = f(x).
    Vector operators go to check_operator_idempotence.
    """
    if not isinstance(f, Expr):
        return check_operator_idempotence(f, domain, plan)
    names = _expr_names(f, domain)
    lo, hi = domain.interval
    slack = _containment_slack(plan, lo, hi)
    for i in range(plan.sample_count):
        point = domain.sample_point(plan.seed, i)
        try:
            t = evaluate(f, dict(zip(names, point)))
        except EvaluationError as exc:
            return _fault(point, exc, i, plan)
        escape = domain.signed_escape(0, t, slack)
        if escape != 0.0:
            witness = Witness(point, t, None, escape, "RANGE_ESCAPE",
                              f"f(x) left [{lo}, {hi}]")
            return _fail(witness, i, plan)
        try:
            r = evaluate(f, dict.fromkeys(names, t))
        except EvaluationError as exc:
            return _fault(point, exc, i, plan)
        residual = r - t
        if abs(residual) > plan.tol(t):
            witness = Witness(point, t, r, residual, "RESIDUAL")
            return _fail(witness, i, plan)
    return Verdict(Status.PASS, None, plan.sample_count, 0)


def check_iterated(f: Target, domain: DomainBox, plan: SamplePlan) -> Verdict:
    """Iterate the self-application k_max times and bound the drift.

    Starting from t_1 = f(x), each step feeds the previous output back in
    (t_{k} = f(t_{k-1}) once, or on every argument).  For an exact member
    every t_k equals t_1; the verdict records the largest |t_k - t_1| seen
    and fails if any drift exceeds atol + rtol*|t_1|.
    """
    if isinstance(f, Expr):
        return _check_iterated_expr(f, domain, plan)
    return _check_iterated_operator(f, domain, plan)


def _check_iterated_expr(f: Expr, domain: DomainBox, plan: SamplePlan) -> Verdict:
    names = _expr_names(f, domain)
    max_drift = 0.0
    for i in range(plan.sample_count):
        point = domain.sample_point(plan.seed, i)
        env = dict(zip(names, point))
        try:
            t1 = evaluate(f, env)
        except EvaluationError as exc:
            return _fault(point, exc, i, plan, max_drift)
        tol = plan.tol(t1)
        t = t1
        for k in range(2, plan.k_max + 1):
            try:
                t = evaluate(f, dict.fromkeys(names, t))
            except EvaluationError as exc:
                return _fault(point, exc, i, plan, max_drift)
            drift = t - t1
            if abs(drift) > max_drift:
                max_drift = abs(drift)
            if abs(drift) > tol:
                witness = Witness(point, t1, t, drift, "DRIFT", f"k={k}")
                return _fail(witness, i, plan, max_drift)
    return Verdict(Status.PASS, None, plan.sample_count, 0, max_drift)


def _check_iterated_operator(op: VectorFn, domain: DomainBox,
                             plan: SamplePlan) -> Verdict:
    max_drift = 0.0
    for i in range(plan.sample_count):
        point = domain.sample_point(plan.seed, i)
        x = np.asarray(point, dtype=float)
        y1 = _apply_operator(op, x, point, i, plan, max_drift)
        if isinstance(y1, Verdict):
            return y1
        tol = plan.tol(float(np.max(np.abs(y1))))
        y = y1
        for k in range(2, plan.k_max + 1):
            y = _apply_operator(op, y, point, i, plan, max_drift)
            if isinstance(y, Verdict):
                return y
            drift = float(np.max(np.abs(y - y1)))
            if drift > max_drift:
                max_drift = drift
            if drift > tol:
                witness = Witness(point, tuple(y1.tolist()), tuple(y.tolist()),
                                  drift, "DRIFT", f"k={k}")
                return _fail(witness, i, plan, max_drift)
    return Verdict(Status.PASS, None, plan.sample_count, 0, max_drift)
