"""Tests for the sampling-based membership and iteration checks."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_ast

from ouro import verify
from ouro.catalog import VectorInstance, get_entry, instantiate
from ouro.expr import free_variables, parse
from ouro.verify import (
    DomainBox, SamplePlan, Status, Verdict, Witness, check_iterated,
    check_membership, unit_uniform,
)

BOX1 = DomainBox.uniform(-10.0, 10.0, 1)
BOX2 = DomainBox.uniform(-10.0, 10.0, 2)
PLAN = SamplePlan()


# --- counter-based sampling -------------------------------------------------

def test_unit_uniform_pinned_values():
    # Frozen outputs of the splitmix64 mixing; any change to the stream
    # invalidates every recorded witness downstream.
    assert unit_uniform(0, 0) == 0.8833108082136426
    assert unit_uniform(0, 1) == 0.43152799704850997
    assert unit_uniform(1, 0) == 0.5665615751722809
    # counter+1 wraps to zero at the 64-bit boundary; still inside [0, 1)
    assert unit_uniform(0, 2**64 - 1) == 0.0


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**63))
@settings(max_examples=300)
def test_unit_uniform_range_and_determinism(seed, counter):
    u = unit_uniform(seed, counter)
    assert 0.0 <= u < 1.0
    assert unit_uniform(seed, counter) == u


def test_sample_point_uses_per_coordinate_counters():
    box = DomainBox.uniform(0.0, 1.0, 3)
    for i in (0, 1, 7):
        point = box.sample_point(5, i)
        expected = tuple(unit_uniform(5, i * 3 + j) for j in range(3))
        assert point == expected


def test_sample_points_stay_inside_the_box():
    box = DomainBox(((-2.0, -1.0), (3.0, 7.0)))
    for i in range(500):
        a, b = box.sample_point(0, i)
        assert -2.0 <= a <= -1.0
        assert 3.0 <= b <= 7.0


def _sample_rows(box, seed, start, stop):
    """sample_point(seed, i) for i in range(start, stop) as the rows of one
    array: splitmix64 over numpy uint64 counters, whose arithmetic wraps
    modulo 2**64 as unit_uniform's masks do.  A second statement of the
    sample stream, kept as a reference for sample_point."""
    u64, n = np.uint64, box.n
    z = (np.arange(start * n + 1, stop * n + 1, dtype=u64) * u64(verify._GOLDEN)
         + u64(seed & verify._M64))
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    z ^= z >> u64(31)
    u = (z >> u64(11)).astype(float).reshape(-1, n) * 2.0 ** -53
    lo, hi = np.array(box.intervals).T
    return lo + u * (hi - lo)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
def test_sample_point_matches_unit_uniform_and_sample_rows(seed):
    # sample_point steps one splitmix64 state per coordinate inline; every
    # coordinate stays the unit_uniform draw of its counter, bit for bit
    rng = random.Random(seed)
    for n in range(1, 9):
        ragged = DomainBox(tuple(tuple(sorted((rng.uniform(-1e3, 1e3),
                                               rng.uniform(-1e3, 1e3))))
                                 for _ in range(n)))
        for box in (DomainBox.uniform(-10.0, 10.0, n), ragged):
            for i in (0, 1, 2, 97, 12_345, 99_999, 100_000):
                want = [lo + unit_uniform(seed, i * n + j) * (hi - lo)
                        for j, (lo, hi) in enumerate(box.intervals)]
                got = box.sample_point(seed, i)
                assert list(map(float.hex, got)) == list(map(float.hex, want))
                row = _sample_rows(box, seed, i, i + 1)[0].tolist()
                assert list(map(float.hex, row)) == list(map(float.hex, want))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_sample_rows_match_sample_point(seed):
    boxes = (DomainBox.uniform(-10.0, 10.0, 1),
             DomainBox(((-2.0, -1.0), (3.0, 7.0), (0.0, 1e-300))),
             DomainBox(((-1e300, 1e300), (5.0, 6.0))))
    for box in boxes:
        for start, stop in ((0, 1), (0, 257), (255, 513)):
            rows = _sample_rows(box, seed, start, stop)
            assert rows.shape == (stop - start, box.n)
            got = [tuple(map(float.hex, row)) for row in rows.tolist()]
            want = [tuple(map(float.hex, box.sample_point(seed, i)))
                    for i in range(start, stop)]
            assert got == want


# --- DomainBox / SamplePlan validation ---------------------------------------

def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(())
    with pytest.raises(ValueError):
        DomainBox(((1.0, 1.0),))
    with pytest.raises(ValueError):
        DomainBox(((2.0, 1.0),))
    with pytest.raises(ValueError):
        DomainBox(((0.0, float("inf")),))
    # finite bounds whose width overflows would sample at infinity
    with pytest.raises(ValueError, match="wider than the largest double"):
        DomainBox(((-1e308, 1e308),))
    widest = DomainBox(((-1.7e308, 0.0),))
    assert all(math.isfinite(widest.sample_point(0, i)[0]) for i in range(64))


def test_domain_box_uniform_interval():
    box = DomainBox.uniform(-1.0, 1.0, 4)
    assert box.n == 4
    assert box.is_uniform
    assert box.interval == (-1.0, 1.0)
    ragged = DomainBox(((0.0, 1.0), (0.0, 2.0)))
    assert not ragged.is_uniform
    with pytest.raises(ValueError):
        ragged.interval


def test_signed_escape():
    box = DomainBox(((0.0, 1.0),))
    assert box.signed_escape(0, 0.5, 0.0) == 0.0
    assert box.signed_escape(0, 1.2, 0.0) == pytest.approx(0.2)
    assert box.signed_escape(0, -0.3, 0.0) == pytest.approx(-0.3)
    # slack absorbs boundary rounding
    assert box.signed_escape(0, 1.0 + 1e-12, 1e-9) == 0.0


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(sample_count=0)
    with pytest.raises(ValueError):
        SamplePlan(atol=-1.0)
    with pytest.raises(ValueError):
        SamplePlan(k_max=1)
    for name in ("atol", "rtol", "kink_margin"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                SamplePlan(**{name: bad})
    assert SamplePlan(seed=-1).seed == 2**64 - 1
    assert SamplePlan().tol(10.0) == 1e-9 + 1e-8


# --- univariate membership ----------------------------------------------------

def test_abs_is_a_member():
    v = check_membership(parse("abs(x)"), BOX1, PLAN)
    assert v.status is Status.PASS
    assert v.witness is None
    assert v.samples_evaluated == PLAN.sample_count
    assert v.samples_skipped == 0


def test_halving_fails_with_residual_witness():
    v = check_membership(parse("x / 2"), BOX1, PLAN)
    assert v.status is Status.FAIL
    w = v.witness
    assert w.reason == "RESIDUAL"
    # first sampled point for seed 0; the witness pins the exact floats
    assert w.point == (7.6662161642728535,)
    assert w.value == 3.8331080821364267
    assert w.revalue == 1.9165540410682134
    assert w.residual == -1.9165540410682134
    assert v.samples_evaluated == 1
    assert v.samples_skipped == PLAN.sample_count - 1


def test_range_escape_witness():
    v = check_membership(parse("x + 100"), BOX1, PLAN)
    assert v.status is Status.FAIL
    w = v.witness
    assert w.reason == "RANGE_ESCAPE"
    assert w.value == 107.66621616427285
    # signed distance past the upper edge
    assert w.residual == 97.66621616427285
    assert w.revalue is None


def test_escape_is_checked_before_reapplication():
    # x+1 leaves the box only for x > 9; the first sample sits inside, so
    # the recorded violation is the residual one.
    v = check_membership(parse("x + 1"), BOX1, PLAN)
    assert v.witness.reason == "RESIDUAL"
    assert v.witness.residual == 1.0


def test_evaluation_fault_gives_domain_error():
    neg = DomainBox.uniform(-10.0, -1.0, 1)
    v = check_membership(parse("ln(x)"), neg, PLAN)
    assert v.status is Status.DOMAIN_ERROR
    assert v.witness.reason == "EVAL_ERROR"
    assert "ln" in v.witness.detail
    assert v.samples_evaluated + v.samples_skipped == PLAN.sample_count


def test_univariate_shape_validation():
    with pytest.raises(ValueError):
        check_membership(parse("x1 + x2"), BOX1, PLAN)
    with pytest.raises(ValueError):
        check_membership(parse("x"), BOX2, PLAN)


def test_verdicts_do_not_depend_on_sample_count():
    # The i-th sample is a pure function of (seed, i), so shrinking the
    # plan cannot change which violation is found first.
    small = SamplePlan(**{**PLAN._asdict(), "sample_count": 4})
    v_small = check_membership(parse("x / 2"), BOX1, small)
    v_big = check_membership(parse("x / 2"), BOX1, PLAN)
    assert v_small.witness == v_big.witness


def test_repeated_runs_are_identical():
    first = check_membership(parse("relu(x)"), BOX1, PLAN)
    second = check_membership(parse("relu(x)"), BOX1, PLAN)
    assert first == second


# --- multivariate membership ---------------------------------------------------

def test_mean_is_a_member():
    v = check_membership(parse("(x1 + x2) / 2"), BOX2, PLAN)
    assert v.status is Status.PASS


def test_product_fails():
    v = check_membership(parse("x1 * x2"), BOX2, PLAN)
    assert v.status is Status.FAIL
    w = v.witness
    assert w.reason == "RANGE_ESCAPE"
    assert w.point == (7.6662161642728535, -1.3694400590298006)
    assert w.value == -10.498423516537027
    assert w.residual == -0.4984235165370272


def test_multivariate_needs_uniform_box():
    ragged = DomainBox(((-10.0, 10.0), (-5.0, 5.0)))
    with pytest.raises(ValueError):
        check_membership(parse("(x1 + x2) / 2"), ragged, PLAN)


def test_multivariate_shape_validation():
    with pytest.raises(ValueError):
        check_membership(parse("x1 + x2 - x3"), BOX2, PLAN)
    with pytest.raises(ValueError, match="candidate has no free variables"):
        check_membership(parse("1 + 2"), BOX1, PLAN)


# --- operator idempotence ------------------------------------------------------

def _clip(x):
    return tuple(min(max(v, 0.0), 1.0) for v in x)


def _halve(x):
    return tuple(v / 2.0 for v in x)


def test_clip_operator_passes():
    v = check_membership(_clip, DomainBox.uniform(-2.0, 2.0, 3), PLAN)
    assert v.status is Status.PASS


def test_halving_operator_fails_in_max_norm():
    v = check_membership(_halve, DomainBox.uniform(-2.0, 2.0, 3), PLAN)
    assert v.status is Status.FAIL
    w = v.witness
    assert w.reason == "RESIDUAL"
    assert w.detail == "max-norm residual"
    assert len(w.point) == 3 and len(w.value) == 3 and len(w.revalue) == 3
    got = np.max(np.abs(np.asarray(w.revalue) - np.asarray(w.value)))
    assert w.residual == got


def test_operator_shape_or_nan_is_a_fault():
    for bad, detail in ((lambda x: x[:2], "operator produced "),
                        (list, "operator produced "),
                        (lambda x: tuple(v * math.nan for v in x),
                         "operator produced "),
                        (lambda x: ("a",) * 3, "TypeError: "),
                        (lambda x: (10 ** 400,) * 3, "OverflowError: ")):
        v = check_membership(bad, DomainBox.uniform(0.0, 1.0, 3), PLAN)
        assert v.status is Status.DOMAIN_ERROR
        assert v.witness.detail.startswith(detail)


def _failing_operator(x):
    raise ValueError("user operator failed")


def _overflowing_operator(x):
    return tuple(math.exp(v * 1000.0) for v in x)


def _array_operator(x):
    return x / 2.0  # written for numpy arrays: a tuple raises TypeError


@pytest.mark.parametrize("op, name", [
    (_failing_operator, "ValueError"),
    (_overflowing_operator, "OverflowError"),
    (_array_operator, "TypeError"),
])
@pytest.mark.parametrize("check", [check_membership, check_iterated])
def test_raising_operator_is_a_fault(check, op, name):
    v = check(op, DomainBox.uniform(1.0, 2.0, 3), PLAN)
    assert v.status is Status.DOMAIN_ERROR
    assert v.samples_evaluated == 1
    assert v.samples_skipped == PLAN.sample_count - 1
    assert v.witness.reason == "EVAL_ERROR"
    assert v.witness.detail.startswith(name + ": ")


# --- dispatch -------------------------------------------------------------------

def test_check_membership_dispatches():
    assert check_membership(parse("abs(x)"), BOX1, PLAN).status is Status.PASS
    assert check_membership(parse("min(x1, x2)"), BOX2, PLAN).status is Status.PASS
    box = DomainBox.uniform(-1.0, 2.0, 2)
    assert check_membership(_clip, box, PLAN).status is Status.PASS
    # a caller's mistake, not an operator fault
    with pytest.raises(TypeError, match="^a target is an Expr or an operator"):
        check_membership("abs(x)", BOX1, PLAN)


# --- iterated self-application ---------------------------------------------------

def test_identity_iterates_without_drift():
    v = check_iterated(parse("x"), BOX1, PLAN)
    assert v.status is Status.PASS
    assert v.max_drift == 0.0


def test_smooth_member_iterates_with_tiny_drift():
    box = DomainBox.uniform(0.1, 10.0, 2)
    v = check_iterated(parse("sqrt(x1 * x2)"), box, PLAN)
    assert v.status is Status.PASS
    assert v.max_drift <= 1e-12


def test_creeping_drift_fails_with_iteration_depth():
    # Each application adds 9e-10: a single residual stays below the
    # tolerance but the k-fold drift accumulates past it.
    v = check_iterated(parse("x + 0.9e-9"), BOX1, PLAN)
    assert v.status is Status.FAIL
    w = v.witness
    assert w.reason == "DRIFT"
    assert w.detail == "k=11"
    assert w.residual == 9.000000744663339e-09
    assert v.max_drift == w.residual


def test_membership_alone_accepts_the_creeping_candidate():
    v = check_membership(parse("x + 0.9e-9"), BOX1, PLAN)
    assert v.status is Status.PASS


def test_operator_iteration_drift():
    v = check_iterated(lambda x: tuple(v * 0.99 for v in x),
                       DomainBox.uniform(1.0, 2.0, 2), PLAN)
    assert v.status is Status.FAIL
    assert v.witness.reason == "DRIFT"
    assert v.witness.detail == "k=2"


def test_iterated_counts_remaining_samples_as_skipped():
    v = check_iterated(parse("x + 0.9e-9"), BOX1, PLAN)
    assert v.samples_evaluated + v.samples_skipped == PLAN.sample_count
    assert v.samples_evaluated == 1


def test_iterated_shape_validation():
    with pytest.raises(ValueError):
        check_iterated(parse("1 + 2"), BOX1, PLAN)
    ragged = DomainBox(((-10.0, 10.0), (-5.0, 5.0)))
    with pytest.raises(ValueError):
        check_iterated(parse("(x1 + x2) / 2"), ragged, PLAN)


def _assert_membership_is_depth_two(member, iterated) -> bool:
    """Membership is range containment plus the iterated check at k_max = 2;
    returns whether membership stopped on a range escape."""
    if member.witness is not None and member.witness.reason == "RANGE_ESCAPE":
        # every earlier sample passed both checks alike
        assert iterated.samples_evaluated >= member.samples_evaluated
        return True
    assert member.status is iterated.status
    assert member.samples_evaluated == iterated.samples_evaluated
    assert (member.witness is None) == (iterated.witness is None)
    if member.witness is not None:
        m, it = member.witness, iterated.witness
        assert (m.point, m.value, m.revalue, m.residual) == \
            (it.point, it.value, it.revalue, it.residual)
        if m.reason == "EVAL_ERROR":
            assert it.reason == "EVAL_ERROR" and it.detail == m.detail
        else:
            assert (m.reason, it.reason, it.detail) == ("RESIDUAL", "DRIFT", "k=2")
    return False


def test_membership_is_containment_plus_depth_two_iteration():
    rng = random.Random(20261018)
    base = SamplePlan(sample_count=32, k_max=2)
    trees = compared = escapes = 0
    while trees < 2000:
        f = _random_ast(rng, 4)
        n = len(free_variables(f))
        if n == 0:
            continue
        trees += 1
        lo = rng.uniform(-10.0, 5.0)
        box = DomainBox.uniform(lo, lo + rng.uniform(0.1, 10.0), n)
        plan = SamplePlan(**{**base._asdict(), "seed": rng.getrandbits(64)})
        try:
            escaped = _assert_membership_is_depth_two(
                check_membership(f, box, plan), check_iterated(f, box, plan))
        except AssertionError as exc:
            raise AssertionError((f, box, plan.seed)) from exc
        escapes += escaped
        compared += not escaped
    assert compared >= 500 and escapes >= 100
    for op in (_halve, _clip):
        for _ in range(20):
            box = DomainBox.uniform(-2.0, rng.uniform(0.5, 3.0), rng.randint(1, 4))
            plan = SamplePlan(**{**base._asdict(), "seed": rng.getrandbits(64)})
            assert not _assert_membership_is_depth_two(
                check_membership(op, box, plan), check_iterated(op, box, plan))


# --- the fixed-point stop against a full-depth scan ------------------------------

def _apply(f, x):
    """f(x) as a tuple of floats, or the text of the fault it raises or
    produces."""
    try:
        y = f(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if not (isinstance(y, tuple) and len(y) == len(x) and np.isfinite(y).all()):
        return f"operator produced {y!r}"
    return y


def _full_depth(f, box, plan, membership):
    """The verdict of an operator scan that applies f to the full depth at
    every sample, 2 for membership and k_max for the iterated check, with
    no fixed-point stop and the max norm taken by numpy."""
    depth = 2 if membership else plan.k_max
    peak = None if membership else 0.0
    n = plan.sample_count
    for i in range(n):
        x = box.sample_point(plan.seed, i)
        t1 = t = _apply(f, x)
        if not isinstance(t1, str):
            tol = plan.tol(float(np.max(np.abs(t1))))
            for k in range(2, depth + 1):
                t = _apply(f, t)
                if isinstance(t, str):
                    break
                drift = float(np.max(np.abs(np.subtract(t, t1))))
                if peak is not None and drift > peak:
                    peak = drift
                if drift > tol:
                    reason, detail = (("RESIDUAL", "max-norm residual")
                                      if membership else ("DRIFT", f"k={k}"))
                    return Verdict(Status.FAIL,
                                   Witness(x, t1, t, drift, reason, detail),
                                   i + 1, n - i - 1, peak)
        if isinstance(t, str):
            return Verdict(Status.DOMAIN_ERROR,
                           Witness(x, None, None, None, "EVAL_ERROR", t),
                           i + 1, n - i - 1, peak)
    return Verdict(Status.PASS, None, n, 0, peak)


def _bits(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    return v


def _key(v):
    w = v.witness
    return (v.status, v.samples_evaluated, v.samples_skipped, _bits(v.max_drift),
            w and (_bits(w.point), _bits(w.value), _bits(w.revalue),
                   _bits(w.residual), w.reason, w.detail))


def _assert_matches_full_depth(f, box, plan):
    statuses = []
    for check, membership in ((check_membership, True), (check_iterated, False)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = check(f, box, plan)
        want = _full_depth(f, box, plan, membership)
        assert _key(got) == _key(want), (check.__name__, box, plan)
        statuses.append(got.status)
    return statuses


def _as_instance(fn, d, box):
    # an instance around fn; the scan reads only fn, through __call__
    return VectorInstance(get_entry("box_clamp"), fn, d, box, {})


SAMPLE_COUNTS = (1, 7, 64)


def test_fixed_point_stop_matches_full_depth_scan_on_catalog_operators():
    rng = random.Random(20261018)
    seen = set()
    for count in SAMPLE_COUNTS:
        for name, params in (("box_clamp", {"lo": -1.0, "hi": 2.0, "d": 4}),
                             ("l2_ball_projection", {"r": 1.5, "d": 3}),
                             ("hyperplane_projection", {"a": (2.0, -1.0, 0.5), "b": 3.0}),
                             ("simplex_projection", {"d": 8})):
            inst = instantiate(name, **params)
            lo = rng.uniform(-5.0, 1.0)
            box = DomainBox.uniform(lo, lo + rng.uniform(0.5, 6.0), inst.dim)
            plan = SamplePlan(seed=rng.getrandbits(64), sample_count=count)
            seen.update(_assert_matches_full_depth(inst, box, plan))
            # x / 2 and creeping drift fail, at k = 2 and at a later k
            for fn in (lambda x: tuple(v / 2.0 for v in x),
                       lambda x: tuple(v + 0.9e-9 for v in x)):
                seen.update(_assert_matches_full_depth(
                    _as_instance(fn, inst.dim, box), box, plan))
    # boxes where x . x overflows, or simplex thresholds cannot exist
    for name, box in (("l2_ball_projection", DomainBox.uniform(-1e200, 1e200, 3)),
                      ("l2_ball_projection", DomainBox.uniform(-1.7e308, 0.0, 3)),
                      ("simplex_projection", DomainBox.uniform(1e17, 1e18, 3))):
        inst = instantiate(name, d=3)
        seen.update(_assert_matches_full_depth(inst, box, SamplePlan(sample_count=16)))
    assert {Status.PASS, Status.FAIL, Status.DOMAIN_ERROR} <= seen


AT = 40  # index of the sample where _faulting's operator faults


def _faulting(kind, at):
    """x + 1e-12, which passes with a small drift, except at the point `at`,
    where it returns NaN, the wrong length or raises."""

    def fn(x):
        if tuple(x) != at:
            return tuple(v + 1e-12 for v in x)
        if kind == "nan":
            return (math.nan,) * 3
        if kind == "shape":
            return tuple(x[:-1])
        raise ValueError("operator fault")

    return fn


@pytest.mark.parametrize("kind", ["nan", "shape", "raise"])
def test_fixed_point_stop_matches_full_depth_scan_on_faults(kind):
    box = DomainBox.uniform(-3.0, 3.0, 3)
    for count in (1, AT, AT + 1, 64):
        plan = SamplePlan(seed=7, sample_count=count)
        fn = _faulting(kind, box.sample_point(plan.seed, AT))
        for f in (_as_instance(fn, 3, box), fn):
            statuses = _assert_matches_full_depth(f, box, plan)
            faulted = count > AT
            assert statuses == [Status.DOMAIN_ERROR if faulted else Status.PASS] * 2
            if faulted:
                v = check_iterated(f, box, plan)
                assert v.samples_evaluated == AT + 1
                assert v.max_drift > 0.0


def test_every_operator_stops_at_a_repeated_iterate():
    box = DomainBox.uniform(-3.0, 3.0, 3)
    plan = SamplePlan(seed=5, sample_count=16)
    clamp = instantiate("box_clamp", lo=-1.0, hi=1.0, d=3)
    calls = []

    def counted(fn):
        def call(x):
            calls.append((type(x), len(x)))
            return fn(x)
        return call

    # P(P(x)) repeats P(x) bit for bit, so each sample takes two calls,
    # each on one point as a tuple, for a catalog instance and a plain
    # callable alike
    for op in (_as_instance(counted(clamp), 3, box), counted(_clip)):
        calls.clear()
        v = check_iterated(op, box, plan)
        assert v.status is Status.PASS
        assert len(calls) == 2 * plan.sample_count
        assert set(calls) == {(tuple, 3)}
    # 0.0 and -0.0 are equal but differ in bits, so an operator that swaps
    # them never repeats an iterate and runs to k_max
    swap = lambda x: (-0.0 if str(x[0]) == "0.0" else 0.0,) * 3
    for op in (_as_instance(counted(swap), 3, box), counted(swap)):
        calls.clear()
        v = check_iterated(op, box, plan)
        assert (v.status, v.max_drift) == (Status.PASS, 0.0)
        assert len(calls) == plan.k_max * plan.sample_count


def test_operator_that_raises_at_the_first_sample_is_called_once():
    box = DomainBox.uniform(-1.0, 1.0, 2)
    for op, name in ((_failing_operator, "ValueError"),
                     (_array_operator, "TypeError")):
        calls = []

        def fn(x):
            calls.append(len(x))
            return op(x)

        v = check_iterated(fn, box, PLAN)
        assert (v.status, v.samples_evaluated) == (Status.DOMAIN_ERROR, 1)
        assert v.witness.detail.startswith(name + ": ")
        assert calls == [2]


def test_fail_verdict_requires_witness():
    from ouro.verify import Verdict
    with pytest.raises(ValueError):
        Verdict(Status.FAIL, None, 1, 0)
