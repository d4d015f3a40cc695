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
import operator
from enum import Enum
from typing import TYPE_CHECKING, Callable, Union

from ._record import Record
from .expr import EvaluationError, Expr, evaluate

if TYPE_CHECKING:
    import numpy as np

    from .catalog import VectorInstance

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

    def sample_rows(self, seed: int, start: int, stop: int) -> np.ndarray:
        """sample_point(seed, i) for i in range(start, stop), bit for bit,
        as the rows of one array: splitmix64 over uint64 counters, whose
        arithmetic wraps modulo 2**64 as unit_uniform's masks do."""
        import numpy as np
        u64, n = np.uint64, self.n
        z = (np.arange(start * n + 1, stop * n + 1, dtype=u64) * u64(_GOLDEN)
             + u64(seed & _M64))
        z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
        z ^= z >> u64(31)
        u = (z >> u64(11)).astype(float).reshape(-1, n) * 2.0 ** -53
        lo, hi = np.array(self.intervals).T
        return lo + u * (hi - lo)

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


# numpy is imported only where a vector operator is applied, so scalar
# targets never load it.
VectorFn = Callable[["np.ndarray"], "np.ndarray"]
Target = Union[Expr, VectorFn]


def _call_operator(op: VectorFn, x: np.ndarray) -> np.ndarray:
    """op(x) as a float array of x's shape.  A raising call, a wrong shape
    or a non-finite value becomes an EvaluationError, so an operator fault
    is reported like a DSL one."""
    import numpy as np
    try:
        y = np.asarray(op(x), dtype=float)
    except (ValueError, ArithmeticError) as exc:
        raise EvaluationError(f"{type(exc).__name__}: {exc}") from exc
    if y.shape != x.shape or not np.all(np.isfinite(y)):
        raise EvaluationError(f"operator produced {y!r}")
    return y


def _target_kind(f: Target, domain: DomainBox):
    """How a target is applied and measured, as the tuple (first, again,
    distance, scale, form, residual_detail): f at a sample point, f fed its
    own output, the drift of t_k from t_1 (signed, or the max norm for
    operators), the magnitude the tolerance scales with, the witness form
    of an output, and the detail of a RESIDUAL witness."""
    if isinstance(f, Expr):
        names = _expr_names(f, domain)
        return (lambda point: evaluate(f, dict(zip(names, point))),
                lambda t: evaluate(f, dict.fromkeys(names, t)),
                operator.sub, abs, lambda t: t, "")
    import numpy as np
    return (lambda point: _call_operator(f, np.asarray(point, dtype=float)),
            lambda y: _call_operator(f, y),
            lambda y, y1: float(np.max(np.abs(y - y1))),
            lambda y: float(np.max(np.abs(y))),
            lambda y: tuple(y.tolist()), "max-norm residual")


def _scan(f: Target, domain: DomainBox, plan: SamplePlan,
          membership: bool) -> Verdict:
    """The one sample scan behind both checks.

    At each sample x it computes t_1 = f(x) and feeds it back until t_depth,
    failing at the first k with |t_k - t_1| > atol + rtol*|t_1|.
    Membership is depth 2 plus range containment of t_1 (DSL targets only);
    the iterated check runs to k_max and keeps the largest drift seen.  A
    VectorInstance is checked in chunks; every other target sample by
    sample.
    """
    kind = _target_kind(f, domain)
    max_drift = None if membership else 0.0
    chunked = False
    if not isinstance(f, Expr):  # a DSL target leaves catalog unloaded
        from .catalog import VectorInstance  # catalog imports this module
        chunked = isinstance(f, VectorInstance)
    if chunked:
        verdict, max_drift = _scan_operator(f, kind, domain, plan, membership,
                                            max_drift)
    else:
        verdict, max_drift = _sweep(f, kind, domain, plan, membership,
                                    range(plan.sample_count), max_drift)
    if verdict is None:
        verdict = Verdict(Status.PASS, None, plan.sample_count, 0, max_drift)
    return verdict


def _sweep(f: Target, kind, domain: DomainBox, plan: SamplePlan,
           membership: bool, indices: range, max_drift: float | None):
    """The per-sample check of the samples at `indices`, in order: the
    verdict at the first one that fails or faults (None if none does) and
    the running max_drift."""
    first, again, distance, scale, form, residual_detail = kind
    # The witness detail is detail.format(k); a RESIDUAL detail has no
    # field, so format leaves it as it is.
    if membership:
        depth, reason, detail = 2, "RESIDUAL", residual_detail
    else:
        depth, reason, detail = plan.k_max, "DRIFT", "k={}"
    contain = membership and isinstance(f, Expr)
    if contain:
        lo, hi = domain.interval
        slack = plan.tol(max(abs(lo), abs(hi)))
    for i in indices:
        point = domain.sample_point(plan.seed, i)
        try:
            t1 = first(point)
            if contain:
                escape = domain.signed_escape(0, t1, slack)
                if escape != 0.0:
                    witness = Witness(point, t1, None, escape, "RANGE_ESCAPE",
                                      f"f(x) left [{lo}, {hi}]")
                    return _fail(witness, i, plan), max_drift
            tol = plan.tol(scale(t1))
            t = t1
            for k in range(2, depth + 1):
                t = again(t)
                drift = distance(t, t1)
                size = abs(drift)
                if max_drift is not None and size > max_drift:
                    max_drift = size
                if size > tol:
                    witness = Witness(point, form(t1), form(t), drift, reason,
                                      detail.format(k))
                    return _fail(witness, i, plan, max_drift), max_drift
        except EvaluationError as exc:
            return _fault(point, exc, i, plan, max_drift), max_drift
    return None, max_drift


_CHUNK = 256  # rows of an instance's scan that share one call per step


def _scan_operator(f: VectorInstance, kind, domain: DomainBox,
                   plan: SamplePlan, membership: bool,
                   max_drift: float | None):
    """_sweep's result for a VectorInstance, computed a chunk at a time.

    Each chunk of samples is screened by _first_event, in one operator call
    per step and with no numpy warning, and _sweep replays the chunk from
    the row it names, so the verdict, witness and fault text are the
    per-sample check's own.
    """
    import numpy as np

    def apply(x):
        try:
            y = np.asarray(f(x), dtype=float)
        except Exception:  # the replay from row 0 finds the row that raised
            return None
        return y if y.shape == x.shape else None

    depth = 2 if membership else plan.k_max
    for start in range(0, plan.sample_count, _CHUNK):
        stop = min(start + _CHUNK, plan.sample_count)
        with np.errstate(all="ignore"):
            event, peak = _first_event(
                apply, domain.sample_rows(plan.seed, start, stop), plan, depth)
        if max_drift is not None and peak is not None:
            max_drift = max(max_drift, peak)
        if event is not None:
            verdict, max_drift = _sweep(f, kind, domain, plan, membership,
                                        range(start + event, stop), max_drift)
            if verdict is not None:
                return verdict, max_drift
    return None, max_drift


def _first_event(apply, x: np.ndarray, plan: SamplePlan, depth: int):
    """Screen the sample rows x: the index of the first row whose check
    fails or faults (None if none does), and the largest drift of the rows
    before it (None if there are none).

    apply maps all rows at once, or returns None when the call raises or
    gives the wrong shape; the answer is then row 0.
    A row is no longer applied after its first event, and neither is any
    later row, so the index found is the smallest, at its earliest k.
    """
    import numpy as np
    t1 = apply(x)
    if t1 is None:
        return 0, None
    finite = np.isfinite(t1).all(axis=1)
    end = len(x) if finite.all() else int(np.argmin(finite))
    t1 = t1[:end]
    tol = plan.tol(np.max(np.abs(t1), axis=1))
    peak = np.zeros(end)
    t = t1
    for _ in range(2, depth + 1):
        if end == 0:
            break
        t = apply(t)
        if t is None:
            return 0, None
        drift = np.max(np.abs(t - t1), axis=1)
        peak = np.maximum(peak, drift)
        within = drift <= tol  # False where t is not finite
        if not within.all():
            end = int(np.argmin(within))
            t1, t, tol, peak = t1[:end], t[:end], tol[:end], peak[:end]
    return (None if end == len(x) else end), (float(peak.max()) if end else None)


def check_membership(f: Target, domain: DomainBox, plan: SamplePlan) -> Verdict:
    """Sampled check of f(f(x),...,f(x)) = f(x) with range containment.

    A DSL target must map A^n into A and satisfy the law within
    atol + rtol*|f(x)| at every sampled x; n = 1 reads f(f(x)) = f(x).
    A vector operator P: R^d -> R^d is checked as P(P(x)) = P(x) in the
    max norm, within atol + rtol*max|P(x)|; its box only places the
    samples, and P(x) is not required to stay inside it.
    """
    return _scan(f, domain, plan, membership=True)


def check_iterated(f: Target, domain: DomainBox, plan: SamplePlan) -> Verdict:
    """Iterate the self-application k_max times and bound the drift.

    Starting from t_1 = f(x), each step feeds the previous output back in
    (t_{k} = f(t_{k-1}) once, or on every argument).  For an exact member
    every t_k equals t_1; the verdict records the largest |t_k - t_1| seen
    and fails if any drift exceeds atol + rtol*|t_1|.
    """
    return _scan(f, domain, plan, membership=False)
