"""Tests for the catalog of idempotent families."""

import itertools
import math
import random
import re
import statistics
from fractions import Fraction

import numpy as np
import pytest

from ouro import catalog, cli
from ouro.catalog import (
    CatalogError, POSITIVE_INTERVAL, ScalarInstance, VectorInstance,
    entry_names, get_entry, instantiate, list_entries,
)
from ouro.deriv import dual_eval
from ouro.expr import evaluate, format_expr, free_variables
from ouro.verify import DEFAULT_INTERVAL


def test_registry_is_populated():
    entries = list_entries()
    assert len(entries) >= 17
    assert len(entry_names()) == len(entries)
    assert get_entry("abs").name == "abs"
    with pytest.raises(CatalogError):
        get_entry("parabola")


def test_every_entry_instantiates_with_defaults():
    for entry in list_entries():
        inst = instantiate(entry.name)
        assert inst.entry == entry
        assert inst.box.n >= 1
        assert inst.box.is_uniform
        assert inst.box.interval == entry.interval
        if isinstance(inst, ScalarInstance):
            assert len(free_variables(inst.expr)) == inst.arity
            assert inst.target is inst.expr
        else:
            assert isinstance(inst, VectorInstance)
            assert inst.target is inst


def test_unknown_name_and_parameter_are_rejected():
    with pytest.raises(CatalogError):
        instantiate("nope")
    with pytest.raises(CatalogError):
        instantiate("abs", c=3.0)
    with pytest.raises(CatalogError):
        instantiate("clamp", lo=2.0, hi=1.0)


def test_a_value_takes_the_type_of_its_default():
    value = instantiate("clamp", lo=-2).params["lo"]
    assert type(value) is float and value == -2.0
    params = instantiate("power_mean", p=2, n=4).params
    assert type(params["p"]) is float and type(params["n"]) is int
    assert instantiate("weighted_mean", w=[1, 0]).params["w"] == (1.0, 0.0)
    # numpy's scalars are read through operator.index and __float__
    n = instantiate("arith_mean", n=np.int64(3)).params["n"]
    assert type(n) is int and n == 3
    p = instantiate("power_mean", p=np.float32(2.5)).params["p"]
    assert type(p) is float and p == 2.5


@pytest.mark.parametrize("name, params, message", [
    ("clamp", {"lo": math.nan}, "lo must be finite, got nan"),
    ("power_mean", {"p": math.inf}, "p must be finite, got inf"),
    ("box_clamp", {"hi": -math.inf}, "hi must be finite, got -inf"),
    ("weighted_mean", {"w": (0.5, math.nan)}, "w must be finite, got nan"),
    ("hyperplane_projection", {"a": (1.0, math.inf)}, "a must be finite, got inf"),
    ("arith_mean", {"n": 3.0}, "n must be an integer, got 3.0"),
    ("arith_mean", {"n": "3"}, "n must be an integer, got '3'"),
    ("power_mean", {"p": "2"}, "p must be a number, got '2'"),
    ("constant", {"c": True}, "c must be a number, got True"),
    ("weighted_mean", {"w": (0.5, False)}, "w must be a number, got False"),
])
def test_typing_errors_name_the_key(name, params, message):
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        instantiate(name, **params)


# Every scalar entry's formula at its defaults, and at one other set where
# the entry takes parameters.
FORMULAS = [
    ("identity", {}, "x"),
    ("constant", {}, "0 * x + 5.0"),
    ("abs", {}, "abs(x)"),
    ("floor", {}, "floor(x)"),
    ("ceil", {}, "ceil(x)"),
    ("relu", {}, "relu(x)"),
    ("clamp", {}, "clamp(x, 0.0, 1.0)"),
    ("max_const", {}, "max(x, 0.0)"),
    ("min_const", {}, "min(x, 0.0)"),
    ("arith_mean", {}, "(x1 + x2 + x3) / 3"),
    ("geo_mean", {}, "(x1 * x2 * x3)^0.3333333333333333"),
    ("harmonic_mean", {}, "3 / (1 / x1 + 1 / x2 + 1 / x3)"),
    ("power_mean", {}, "((x1^2.0 + x2^2.0 + x3^2.0) / 3)^0.5"),
    ("median", {}, "max(min(x1, x2), min(max(x1, x2), x3))"),
    ("min_all", {}, "min(min(x1, x2), x3)"),
    ("max_all", {}, "max(max(x1, x2), x3)"),
    ("weighted_mean", {}, "0.3 * x1 + 0.7 * x2"),
    ("constant", {"c": -3.25}, "0 * x + -3.25"),
    ("max_const", {"c": -1}, "max(x, -1.0)"),
    ("min_const", {"c": 2.5}, "min(x, 2.5)"),
    ("clamp", {"lo": -2, "hi": 0.5}, "clamp(x, -2.0, 0.5)"),
]


@pytest.mark.parametrize("name, params, formula", FORMULAS)
def test_scalar_formulas_are_pinned(name, params, formula):
    assert format_expr(instantiate(name, **params).expr) == formula


def test_every_scalar_entry_has_a_pinned_formula():
    pinned = {name for name, params, _ in FORMULAS if not params}
    assert pinned == {e.name for e in list_entries() if e.kind != "vector-operator"}


# --- scalar values against independent formulas --------------------------------

def test_constant_evaluates_to_exactly_c():
    inst = instantiate("constant", c=-3.25)
    for x in (-10.0, 0.0, 7.7):
        assert evaluate(inst.expr, {"x": x}) == -3.25


def test_means_against_python_reference():
    rng = random.Random(99)
    arith = instantiate("arith_mean", n=4)
    geo = instantiate("geo_mean", n=3)
    harm = instantiate("harmonic_mean", n=3)
    power = instantiate("power_mean", n=3, p=2.0)
    for _ in range(200):
        vals = [rng.uniform(0.1, 10.0) for _ in range(4)]
        env4 = {f"x{i+1}": v for i, v in enumerate(vals)}
        env3 = {f"x{i+1}": v for i, v in enumerate(vals[:3])}
        assert evaluate(arith.expr, env4) == pytest.approx(sum(vals) / 4)
        assert evaluate(geo.expr, env3) == pytest.approx(
            math.prod(vals[:3]) ** (1.0 / 3.0))
        assert evaluate(harm.expr, env3) == pytest.approx(
            statistics.harmonic_mean(vals[:3]))
        assert evaluate(power.expr, env3) == pytest.approx(
            math.sqrt(sum(v * v for v in vals[:3]) / 3.0))


def test_geo_mean_pair_uses_sqrt():
    inst = instantiate("geo_mean", n=2)
    assert format_expr(inst.expr) == "sqrt(x1 * x2)"
    assert evaluate(inst.expr, {"x1": 2.0, "x2": 8.0}) == 4.0


def test_power_mean_rejects_zero_exponent():
    with pytest.raises(CatalogError):
        instantiate("power_mean", p=0.0)
    # 1/p overflows: the message names the parameter that was given
    with pytest.raises(CatalogError, match=r"1/p, got p=1e-320"):
        instantiate("power_mean", p=1e-320)


def test_median_matches_the_order_statistic():
    for n in (3, 5):
        inst = instantiate("median", n=n)
        names = [f"x{i+1}" for i in range(n)]
        # exhaustive over small grids, including every tie pattern
        for tup in itertools.product(range(4), repeat=n):
            env = {k: float(v) for k, v in zip(names, tup)}
            assert evaluate(inst.expr, env) == statistics.median(tup)
        rng = random.Random(5)
        for _ in range(500):
            vals = [rng.uniform(-50.0, 50.0) for _ in range(n)]
            env = dict(zip(names, vals))
            assert evaluate(inst.expr, env) == statistics.median(vals)


def test_median_arity_is_restricted():
    for bad in (1, 4, 7, 9):
        with pytest.raises(CatalogError):
            instantiate("median", n=bad)


def test_median_is_differentiable_at_generic_points():
    # selection networks never tie at distinct inputs, so the dual walker
    # gets through with the default kink margin
    inst = instantiate("median", n=5)
    env = {"x1": 4.0, "x2": -2.0, "x3": 9.5, "x4": 0.5, "x5": 3.0}
    value, deriv = dual_eval(inst.expr, env, 4, kink_margin=1e-7)
    assert value == 3.0   # median picks x5 here
    assert deriv == 1.0


def test_min_all_max_all():
    lo = instantiate("min_all", n=4)
    hi = instantiate("max_all", n=4)
    rng = random.Random(17)
    for _ in range(100):
        vals = [rng.uniform(-10.0, 10.0) for _ in range(4)]
        env = {f"x{i+1}": v for i, v in enumerate(vals)}
        assert evaluate(lo.expr, env) == min(vals)
        assert evaluate(hi.expr, env) == max(vals)


def test_weighted_mean_values_and_validation():
    inst = instantiate("weighted_mean", w=(0.3, 0.7))
    assert evaluate(inst.expr, {"x1": 10.0, "x2": 0.0}) == 3.0
    with pytest.raises(CatalogError):
        instantiate("weighted_mean", w=(0.5,))
    with pytest.raises(CatalogError):
        instantiate("weighted_mean", w=(0.5, 0.6))
    with pytest.raises(CatalogError):
        instantiate("weighted_mean", w=(-0.2, 1.2))


def test_weighted_mean_weights_that_overflow_are_bad_parameters():
    # fsum of the weights overflows before their sum can be compared to 1
    with pytest.raises(CatalogError, match=r"^bad parameters for weighted_mean: "
                                           r"intermediate overflow in fsum$"):
        instantiate("weighted_mean", w=(1e308, 1e308))


def test_one_number_is_a_one_element_vector_parameter():
    for a in (2, 2.0):
        inst = instantiate("hyperplane_projection", a=a)
        assert inst.params["a"] == (2.0,) and inst.dim == 1
        assert inst((5.0,)) == (0.5,)  # onto 2x = 1
    with pytest.raises(CatalogError, match="needs at least two weights"):
        instantiate("weighted_mean", w=1)


@pytest.mark.parametrize("name, value, want", [
    # numpy's scalars are one number, as for a scalar parameter
    ("hyperplane_projection", np.float32(2.0), (2.0,)),
    ("hyperplane_projection", np.int64(2), (2.0,)),
    ("hyperplane_projection", np.float64(2.0), (2.0,)),
    ("hyperplane_projection", np.array([1.0, 2.0]), (1.0, 2.0)),
    # an array is iterated, never read by float(), even with one element
    ("hyperplane_projection", np.array([2.0]), (2.0,)),
    ("weighted_mean", np.float32(0.5), "weighted_mean needs at least two weights"),
    # what is neither one number nor a sequence is refused by its key
    ("weighted_mean", True, "w must be a number, got True"),
    ("weighted_mean", None, "w must be a number, got None"),
    ("weighted_mean", np.array([[0.5, 0.5]]),
     "w must be a number, got array([0.5, 0.5])"),
])
def test_a_numpy_scalar_is_a_one_element_vector_parameter(name, value, want):
    key = "a" if name == "hyperplane_projection" else "w"
    if isinstance(want, str):
        with pytest.raises(CatalogError, match=f"^{re.escape(want)}$"):
            instantiate(name, **{key: value})
    else:
        got = instantiate(name, **{key: value}).params[key]
        assert got == want and all(type(v) is float for v in got)


def test_positive_families_use_the_positive_box():
    for name in ("geo_mean", "harmonic_mean", "power_mean"):
        assert instantiate(name).box.interval == POSITIVE_INTERVAL
    assert instantiate("arith_mean").box.interval == DEFAULT_INTERVAL


# --- flags are honest -----------------------------------------------------------

def test_smooth_entries_accept_the_dual_walker():
    # a smooth entry must be differentiable at a generic interior point
    for entry in list_entries():
        if not entry.smooth:
            continue
        inst = instantiate(entry.name)
        assert isinstance(inst, ScalarInstance)
        names = free_variables(inst.expr)
        lo, hi = inst.box.interval
        env = {name: lo + (hi - lo) * (0.31 + 0.07 * j)
               for j, name in enumerate(names)}
        for i in range(len(names)):
            dual_eval(inst.expr, env, i, kink_margin=1e-7)


def test_symmetric_entries_are_permutation_invariant():
    rng = random.Random(3)
    for entry in list_entries():
        if not entry.symmetric or entry.kind == "vector-operator":
            continue
        inst = instantiate(entry.name)
        names = free_variables(inst.expr)
        if len(names) == 1:
            continue
        lo, hi = inst.box.interval
        for _ in range(20):
            vals = [rng.uniform(lo, hi) for _ in names]
            base = evaluate(inst.expr, dict(zip(names, vals)))
            rng.shuffle(vals)
            permuted = evaluate(inst.expr, dict(zip(names, vals)))
            # association order may differ after the shuffle, so exact
            # equality is only guaranteed for selection-based entries
            assert permuted == pytest.approx(base, rel=1e-12)


def test_exact_fixed_point_entries_return_their_output_unchanged():
    rng = random.Random(11)
    for entry in list_entries():
        if not entry.exact_fixed_points:
            continue
        inst = instantiate(entry.name)
        lo, hi = inst.box.interval
        if isinstance(inst, ScalarInstance):
            names = free_variables(inst.expr)
            for _ in range(50):
                env = {n: rng.uniform(lo, hi) for n in names}
                t = evaluate(inst.expr, env)
                again = evaluate(inst.expr, {n: t for n in names})
                assert again == t, entry.name
        else:
            for _ in range(50):
                y = inst(tuple(rng.uniform(lo, hi) for _ in range(inst.dim)))
                assert _hexed(inst(y)) == _hexed(y), entry.name


# --- vector operators ------------------------------------------------------------

def _hexed(point):
    return tuple(map(float.hex, point))


def test_box_clamp_matches_numpy_clip():
    inst = instantiate("box_clamp", lo=-1.0, hi=2.0, d=4)
    assert inst.dim == 4
    x = (-5.0, 0.5, 2.0, 7.0)
    assert inst(x) == tuple(np.clip(x, -1.0, 2.0).tolist())


def test_l2_ball_projection_values():
    inst = instantiate("l2_ball_projection", r=1.0, d=2)
    inside = (0.3, -0.4)
    assert inst(inside) == inside
    outside = (3.0, 4.0)
    assert inst(outside) == (0.6, 0.8)
    # the projected point sits on the sphere, re-projection is a no-op
    y = inst(outside)
    assert math.hypot(*y) <= 1.0 + 1e-12
    with pytest.raises(CatalogError):
        instantiate("l2_ball_projection", r=0.0)


def test_l2_ball_projection_survives_overflowing_squares():
    inst = instantiate("l2_ball_projection", r=1.0, d=2)
    assert inst((3e200, 4e200)) == (0.6, 0.8)
    assert inst((-3e200, 0.0)) == (-1.0, 0.0)
    # the norm itself exceeds the largest double
    assert inst((-1.7e308, -1.7e308)) == (-1.0 / math.sqrt(2.0),) * 2


def test_dot_sums_again_in_units_where_the_products_overflow():
    # the products 6e307, 4e307 (four times) and -4e307 (three times) sum
    # to 1e308, a double, but their partial sum 2.2e308 overflows fsum
    x, y = (8e307,) * 5 + (-8e307,) * 3, (0.75,) + (0.5,) * 7
    products = [Fraction(v * w) for v, w in zip(x, y)]
    with pytest.raises(OverflowError):
        math.fsum(v * w for v, w in zip(x, y))
    assert float(sum(products)) == catalog._dot(x, y) == 1e308
    # 8 * 4e307 exceeds the largest double
    assert catalog._dot((8e307,) * 8, (0.5,) * 8) == math.inf


def test_simplex_projection_rejects_entries_too_large_to_threshold():
    inst = instantiate("simplex_projection", d=3)
    with pytest.raises(ValueError, match="^entries too large to threshold "
                                         "onto the simplex$"):
        inst((1e17, 2e17, 3e17))


# The operators as they were written on numpy arrays, kept unchanged as the
# slow reference for the plain-Python ones: box_clamp and simplex must match
# them bit for bit, l2 and hyperplane within a few ulps (their numpy dot
# products sum in the order the BLAS library picks).

def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y along the last axis, each row's value as np.dot gives it for
    that row alone: a stack of 1 x d by d x 1 matrix products, which numpy
    computes one dot per row (x @ y with a 2-D x would not)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _numpy_box_clamp(p):
    lo, hi = p["lo"], p["hi"]

    def fn(x: np.ndarray) -> np.ndarray:
        return np.clip(x, lo, hi)

    return fn


def _numpy_l2_ball(p):
    r = p["r"]

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

    return fn


def _numpy_hyperplane(p):
    a = np.asarray(p["a"], dtype=float)
    b = p["b"]
    denom = float(a @ a)

    def fn(x: np.ndarray) -> np.ndarray:
        return x - ((_rowdot(x, a) - b) / denom)[..., None] * a

    return fn


def _numpy_simplex(p):
    d = p["d"]
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

    return fn


def _reference_points(rng, d):
    """Random points inside, on and outside the boxes, the ball and the
    simplex, with ties, box edges, signed zeros and points whose x . x
    overflows."""
    points = [tuple(rng.uniform(lo, hi) for _ in range(d))
              for lo, hi, count in ((-4.0, 4.0, 300), (-0.3, 0.3, 100))
              for _ in range(count)]
    points += [tuple(float(rng.randint(-2, 2)) for _ in range(d))
               for _ in range(50)]
    specials = (-1.0, 2.0, 0.0, -0.0, 0.5, 1.0, 1.0 / d, 1e-300, 1e200, -3e307)
    points += [tuple(rng.choice(specials) for _ in range(d)) for _ in range(100)]
    # the simplex threshold is +0.0 at the last one, so -0.0 - theta is -0.0
    points += [(0.0,) * d, (-0.0,) * d, (1.0 / d,) * d, (1.5e154,) * d,
               (1.0,) + (-0.0,) * (d - 1)]
    return points


def _within_ulps(got, want, ulps, scale):
    return all(abs(g - w) <= ulps * math.ulp(scale) for g, w in zip(got, want))


@pytest.mark.parametrize("d", [1, 3, 8, 17, 64])
def test_vector_operators_match_the_numpy_reference(d):
    rng = random.Random(d)
    a = tuple(rng.uniform(-3.0, 3.0) for _ in range(d))
    cases = [(instantiate("box_clamp", lo=-1.0, hi=2.0, d=d), _numpy_box_clamp),
             (instantiate("box_clamp", lo=0.0, hi=2.0, d=d), _numpy_box_clamp),
             (instantiate("simplex_projection", d=d), _numpy_simplex),
             (instantiate("l2_ball_projection", r=1.5, d=d), _numpy_l2_ball),
             (instantiate("hyperplane_projection", a=a, b=0.5), _numpy_hyperplane)]
    compared = 0
    for inst, numpy_form in cases:
        reference = numpy_form(inst.params)
        for x in _reference_points(rng, d):
            try:
                with np.errstate(all="ignore"):
                    want = tuple(reference(np.array(x)).tolist())
            except ValueError as exc:  # simplex: no threshold exists
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    inst(x)
                continue
            got = inst(x)
            name = inst.entry.name
            if name in ("box_clamp", "simplex_projection"):
                assert _hexed(got) == _hexed(want), (name, x)
            elif name == "l2_ball_projection":
                # each entry to a few ulps of itself
                assert all(_within_ulps((g,), (w,), 4, abs(w))
                           for g, w in zip(got, want)), (name, x)
            elif all(map(math.isfinite, want)):
                # x - lam * a cancels, so entries agree to a few ulps of
                # the largest magnitude in play
                scale = max(map(abs, x + want + a))
                assert _within_ulps(got, want, 4, scale), (name, x)
            compared += 1
    assert compared >= 5 * 500


def test_hyperplane_projection_analytics():
    a = (2.0, -1.0, 0.5)
    inst = instantiate("hyperplane_projection", a=a, b=3.0)
    assert inst.dim == 3
    rng = random.Random(23)
    av = np.asarray(a)
    for _ in range(50):
        x = np.array([rng.uniform(-10.0, 10.0) for _ in range(3)])
        y = np.array(inst(tuple(x.tolist())))
        # lands on the plane
        assert float(av @ y) == pytest.approx(3.0, abs=1e-9)
        # moves along the normal only
        move = y - x
        lam = float(move @ av) / float(av @ av)
        assert np.allclose(move, lam * av, atol=1e-12)
    with pytest.raises(CatalogError, match="^a must be non-zero$"):
        instantiate("hyperplane_projection", a=(0.0, 0.0), b=1.0)
    # a . a overflows, underflows to 0 or makes the step overflow at these
    # normals, but the operator works on a scaled by a power of two
    for w in (1e200, 1e-155, 1e-200):
        inst = instantiate("hyperplane_projection", a=w)
        y = inst((0.0,))
        assert y[0] == pytest.approx(1.0 / w, rel=1e-15)
        assert inst(y)[0] == pytest.approx(y[0], rel=1e-15)
    with pytest.raises(CatalogError, match="^b / max"):
        instantiate("hyperplane_projection", a=1e-200, b=1e200)


def _unscaled_hyperplane(p):
    """x - ((x . a - b) / a . a) a on a and b as given, unscaled: the
    reference for normals whose a . a is a normal double."""
    a, b = p["a"], p["b"]
    denom = catalog._dot(a, a)

    def fn(x):
        lam = (catalog._dot(x, a) - b) / denom
        return tuple([v - lam * w for v, w in zip(x, a)])

    return fn


def test_scaled_hyperplane_projection_matches_the_unscaled_formula():
    # scaling a and b by a power of two is exact, so the bits agree
    rng = random.Random(24)
    for _ in range(2000):
        d = rng.randint(1, 8)
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        a = tuple(rng.uniform(-3.0, 3.0) * scale for _ in range(d))
        inst = instantiate("hyperplane_projection", a=a,
                           b=rng.uniform(-5.0, 5.0) * scale)
        reference = _unscaled_hyperplane(inst.params)
        for _ in range(5):
            x = tuple(rng.uniform(-10.0, 10.0) for _ in range(d))
            assert _hexed(inst(x)) == _hexed(reference(x)), (a, x)


def test_hyperplane_projection_past_the_largest_dot_product(capsys):
    # x . a exceeds the largest double on these boxes, yet the projection
    # is finite: it is taken on x / 2**64 and scaled back
    argv = ["check", "--catalog", "hyperplane_projection", "--params",
            "a=1,1,1,1,1,1,1,1", "--box=4e307:8e307", "--samples", "64"]
    assert cli.main(argv) == 0
    assert "overall: PASS" in capsys.readouterr().out
    rng = random.Random(25)
    for (lo, hi), d in (((4e307, 8e307), 8), ((1e308, 1.7e308), 3),
                        ((-8e307, 8e307), 8)):
        inst = instantiate("hyperplane_projection", a=(1.0,) * d)
        a = [Fraction(w) for w in inst.params["a"]]
        b = Fraction(inst.params["b"])
        for _ in range(100):
            x = tuple(rng.uniform(lo, hi) for _ in range(d))
            lam = (sum(Fraction(v) * w for v, w in zip(x, a)) - b) / sum(
                w * w for w in a)
            scale = 2 * math.ulp(max(map(abs, x)))
            for got, v, w in zip(inst(x), x, a):
                assert abs(Fraction(got) - (Fraction(v) - lam * w)) <= scale, x


def _grid_simplex_argmin(x: np.ndarray, steps: int) -> float:
    """Smallest squared distance from x to any grid point of the simplex.

    Independent brute-force oracle for the sort-and-threshold projection.
    """
    best = math.inf
    if x.size == 2:
        for i in range(steps + 1):
            t = i / steps
            d = (t - x[0]) ** 2 + ((1.0 - t) - x[1]) ** 2
            best = min(best, d)
    elif x.size == 3:
        for i in range(steps + 1):
            u = i / steps
            for j in range(steps + 1 - i):
                v = j / steps
                w = 1.0 - u - v
                d = (u - x[0]) ** 2 + (v - x[1]) ** 2 + (w - x[2]) ** 2
                best = min(best, d)
    else:
        raise AssertionError("oracle supports d = 2 or 3")
    return best


@pytest.mark.parametrize("d", [2, 3])
def test_simplex_projection_beats_every_grid_point(d):
    inst = instantiate("simplex_projection", d=d)
    rng = random.Random(41)
    steps = 400 if d == 2 else 60
    for _ in range(20):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(d)])
        y = np.array(inst(tuple(x.tolist())))
        assert float(np.sum(y)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.min(y)) >= -1e-15
        own = float(np.sum((y - x) ** 2))
        assert own <= _grid_simplex_argmin(x, steps) + 1e-12


def test_simplex_projection_kkt_certificate():
    # optimality certificate: positive coordinates share one shift theta,
    # and dropped coordinates satisfy x_i <= theta
    inst = instantiate("simplex_projection", d=5)
    rng = random.Random(43)
    for _ in range(100):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(5)])
        y = np.array(inst(tuple(x.tolist())))
        support = y > 0.0
        assert support.any()
        thetas = x[support] - y[support]
        theta = float(thetas[0])
        assert np.allclose(thetas, theta, atol=1e-12)
        assert np.all(x[~support] <= theta + 1e-12)
        assert float(np.sum(y)) == pytest.approx(1.0, abs=1e-12)


def test_simplex_projection_fixes_simplex_points():
    inst = instantiate("simplex_projection", d=3)
    x = (0.2, 0.3, 0.5)
    assert inst(x) == x


def test_vector_dimension_overrides():
    assert instantiate("box_clamp", d=5).dim == 5
    assert instantiate("simplex_projection", d=2).dim == 2
    assert instantiate("hyperplane_projection", a=(1.0, 2.0), b=0.0).dim == 2


@pytest.mark.parametrize("name", ["box_clamp", "l2_ball_projection",
                                  "simplex_projection"])
def test_vector_dimension_errors_name_d(name):
    for bad in (3.5, 3.0, True):
        message = f"d must be an integer, got {bad}"
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            instantiate(name, d=bad)
    with pytest.raises(CatalogError, match=r"^d must be at least 1$"):
        instantiate(name, d=0)
