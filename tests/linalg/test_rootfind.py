"""Unit tests for the monotone root finder."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.core.background import BackgroundModel
from repro.core.solver import SolverOptions
from repro.datasets import DATASETS
from repro.errors import RootFindError
from repro.linalg import find_monotone_root, rootfind
from repro.linalg.rootfind import _brentq


class TestFindMonotoneRoot:
    def test_linear_function(self):
        root = find_monotone_root(lambda x: 2.0 * x - 3.0)
        assert root == pytest.approx(1.5)

    def test_decreasing_function(self):
        root = find_monotone_root(lambda x: 5.0 - x)
        assert root == pytest.approx(5.0)

    def test_root_far_from_start(self):
        root = find_monotone_root(lambda x: x - 1e7, start=0.0, initial_step=1.0)
        assert root == pytest.approx(1e7, rel=1e-6)

    def test_root_in_negative_direction(self):
        root = find_monotone_root(lambda x: x + 42.0)
        assert root == pytest.approx(-42.0)

    def test_exact_root_at_start(self):
        assert find_monotone_root(lambda x: x, start=0.0) == 0.0

    def test_one_sided_domain_with_pole(self):
        # f(x) = 1/(1+x) - 0.25 on x > -1: root at x = 3.
        def f(x):
            return 1.0 / (1.0 + x) - 0.25

        root = find_monotone_root(f, lower=-1.0, upper=math.inf, start=0.0)
        assert root == pytest.approx(3.0)

    def test_root_close_to_open_lower_bound(self):
        # Root at x = -0.999 just inside the open bound at -1.
        def f(x):
            return 1.0 / (1.0 + x) - 1000.0

        root = find_monotone_root(f, lower=-1.0, upper=math.inf, start=0.0)
        assert root == pytest.approx(-0.999, rel=1e-6)

    def test_quadratic_constraint_shape(self):
        # The real shape from the MaxEnt solver: v(lam) = s/(1+lam s) +
        # off^2/(1+lam s)^2 with target between asymptote and v(0).
        s, off, target = 2.0, 1.5, 1.0

        def phi(lam):
            denom = 1.0 + lam * s
            return s / denom + off**2 / denom**2 - target

        root = find_monotone_root(phi, lower=-1.0 / s, upper=math.inf, start=0.0)
        denom = 1.0 + root * s
        assert s / denom + off**2 / denom**2 == pytest.approx(target, rel=1e-9)

    def test_no_root_raises(self):
        # Strictly positive function: no root anywhere.
        with pytest.raises(RootFindError):
            find_monotone_root(lambda x: 1.0 + np.exp(-abs(x)) * 0.0, start=0.0)

    def test_empty_interval_raises(self):
        with pytest.raises(RootFindError):
            find_monotone_root(lambda x: x, lower=2.0, upper=1.0)

    def test_start_outside_interval_is_clipped(self):
        root = find_monotone_root(
            lambda x: x - 0.5, lower=0.0, upper=1.0, start=50.0
        )
        assert root == pytest.approx(0.5)

    def test_bounded_interval(self):
        root = find_monotone_root(
            lambda x: x**3 - 0.2, lower=-1.0, upper=1.0, start=0.0
        )
        assert root == pytest.approx(0.2 ** (1.0 / 3.0))


class TestSubnormalOffsets:
    def test_subnormal_intercept_does_not_hide_the_crossing(self):
        """The sign-change test must not rely on a product that can
        underflow: 5e-324 * -0.5 rounds to -0.0 and previously made the
        bracketer discard a genuine crossing (found by hypothesis)."""
        root = find_monotone_root(lambda x: 0.5 * x + 5e-324)
        assert abs(0.5 * root + 5e-324) < 1e-6

    def test_negative_subnormal_slope_side(self):
        root = find_monotone_root(lambda x: -0.5 * x - 5e-324)
        assert abs(-0.5 * root - 5e-324) < 1e-6


# ----------------------------------------------------------------------
# The Brent port against the SciPy routine it was ported from
# ----------------------------------------------------------------------

#: Factors every generated function is scaled by: subnormal to huge.
_SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300]),
    st.floats(min_value=-323.3, max_value=300.0).map(lambda e: 10.0**e),
)


@st.composite
def _brackets(draw):
    a = draw(st.floats(min_value=-3.0, max_value=1.0))
    return a, a + draw(st.floats(min_value=1e-9, max_value=5.0))


@st.composite
def _monotone_problems(draw):
    """``(kind, params, scale, a, b)``: a monotone function and a bracket.

    The bracket need not hold a sign change: both routines must then
    raise the same error.
    """
    kind = draw(
        st.sampled_from(["linear", "cubic", "tanh", "power", "expectation"])
    )
    scale = draw(_SCALES)
    if kind == "linear":
        slope = draw(
            st.floats(min_value=0.01, max_value=10.0)
            | st.floats(min_value=-10.0, max_value=-0.01)
        )
        intercept = draw(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
            | st.floats(min_value=-2.0, max_value=2.0)
        )
        return kind, (slope, intercept), scale, *draw(_brackets())
    if kind == "expectation":
        # The solver's quadratic step: expectation(lam) - target over the
        # open half-line 1 + lam * max(variances) > 0.
        n = draw(st.integers(min_value=1, max_value=4))
        counts = draw(st.lists(st.integers(1, 2000), min_size=n, max_size=n))
        variances = draw(
            st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n)
        )
        offsets = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        at_zero = sum(
            c * (v + o * o) for c, v, o in zip(counts, variances, offsets)
        )
        target = at_zero * draw(st.floats(min_value=0.05, max_value=3.0))
        lower = -1.0 / max(variances) * (1.0 - 1e-9)
        a = draw(st.floats(min_value=lower, max_value=0.0))
        b = draw(st.floats(min_value=1e-9, max_value=100.0))
        params = (tuple(counts), tuple(variances), tuple(offsets), target)
        return kind, params, scale, a, b
    centre = draw(st.floats(min_value=-2.0, max_value=2.0))
    if kind == "cubic":
        shape = draw(st.floats(min_value=0.0, max_value=2.0))
    elif kind == "tanh":
        shape = draw(st.floats(min_value=0.1, max_value=100.0))
    else:
        shape = draw(st.floats(min_value=0.1, max_value=4.0))
    return kind, (centre, shape), scale, *draw(_brackets())


def _function(kind, params, scale):
    if kind == "linear":
        slope, intercept = params
        return lambda x: scale * (slope * x + intercept)
    if kind == "cubic":
        centre, shape = params
        return lambda x: scale * ((x - centre) ** 3 + shape * (x - centre))
    if kind == "tanh":
        centre, shape = params
        return lambda x: scale * math.tanh(shape * (x - centre))
    if kind == "power":
        centre, shape = params
        return lambda x: scale * math.copysign(abs(x - centre) ** shape, x - centre)
    if kind == "expectation":
        counts, variances, offsets, target = (np.asarray(p) for p in params)
        offsets_sq = offsets**2

        def phi(lam):
            denom = 1.0 + lam * variances
            value = float(np.dot(counts, variances / denom + offsets_sq / denom**2))
            return scale * (value - float(target))

        return phi
    if kind == "step":
        (centre,) = params
        return lambda x: scale * (1.0 if x > centre else -1.0)
    if kind == "nan_inside":
        low, high = params
        return lambda x: math.nan if low < x < high else scale * (x - 0.5)
    raise AssertionError(kind)


def _outcome(solver, f, a, b, xtol):
    """The root's bits (sign of zero included) or the exception type."""
    try:
        return float(solver(f, a, b, xtol)).hex()
    except Exception as exc:  # the type is the outcome
        return type(exc)


def _scipy_brentq(f, a, b, xtol):
    return brentq(f, a, b, xtol=xtol)


class TestBrentPort:
    """``_brentq`` returns SciPy's float or raises SciPy's exception."""

    @settings(max_examples=400, deadline=None)
    @given(
        problem=_monotone_problems(),
        xtol=st.sampled_from([1e-12, 2e-12, 5e-324]),
    )
    @example(problem=("nan_inside", (0.2, 0.6), 1.0, 0.0, 1.0), xtol=2e-12)
    @example(problem=("step", (0.0,), 1e300, -1.0, 1.0), xtol=5e-324)
    # Underflowing extrapolation denominators: C gets ±inf or NaN and
    # bisects, where a bare Python division raises ZeroDivisionError.
    @example(problem=("tanh", (0.4, 50.0), 1e-150, 0.0, 1.0), xtol=2e-12)
    # The brackets find_monotone_root hands over in TestSubnormalOffsets.
    @example(problem=("linear", (0.5, 5e-324), 1.0, -1.0, 0.0), xtol=1e-12)
    @example(problem=("linear", (-0.5, -5e-324), 1.0, -1.0, 0.0), xtol=1e-12)
    def test_matches_scipy_brentq(self, problem, xtol):
        kind, params, scale, a, b = problem
        f = _function(kind, params, scale)
        assert _outcome(_brentq, f, a, b, xtol) == _outcome(
            _scipy_brentq, f, a, b, xtol
        )

    def test_pinned_outcomes(self):
        """The pinned examples reach the paths they are there for."""
        tanh = _function("tanh", (0.4, 50.0), 1e-150)
        assert _brentq(tanh, 0.0, 1.0, 2e-12) == 0.4
        step = _function("step", (0.0,), 1e300)
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(step, -1.0, 1.0, 5e-324)
        with pytest.raises(ValueError, match="is NaN"):
            _brentq(_function("nan_inside", (0.2, 0.6), 1.0), 0.0, 1.0, 2e-12)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x + 2.0, 0.0, 1.0, 2e-12)
        with pytest.raises(ValueError, match="xtol too small"):
            _brentq(lambda x: x, -1.0, 1.0, 0.0)


class TestSolverParity:
    """Fits after a cluster mark match SciPy's ``brentq`` bit for bit."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_fits_after_a_cluster_mark_match_scipy(self, name, monkeypatch):
        bundle = DATASETS[name]()
        classes = np.unique(bundle.labels)
        marks = []
        for seed in (0, 1):
            # Marks of one class, sized as the benchmark's (200 rows at
            # n = 1,000, 2,000 at n = 20,000), on raw and standardized data.
            rng = np.random.default_rng(seed)
            members = np.flatnonzero(bundle.labels == rng.choice(classes))
            size = min(members.size, max(200, bundle.data.shape[0] // 10))
            rows = np.sort(rng.choice(members, size=size, replace=False))
            marks.append((rows, bool(seed)))

        calls = []

        def fits():
            fitted = []
            for rows, standardize in marks:
                model = BackgroundModel(
                    bundle.data,
                    standardize=standardize,
                    solver_options=SolverOptions(time_cutoff=None),
                )
                model.add_cluster_constraint(rows)
                model.fit()
                fitted.append(model)
            return fitted

        def counted(solver):
            def root(f, a, b, xtol):
                calls.append(solver)
                return solver(f, a, b, xtol)

            return root

        monkeypatch.setattr(rootfind, "_brentq", counted(_brentq))
        ported = fits()
        monkeypatch.setattr(rootfind, "_brentq", counted(_scipy_brentq))
        reference = fits()

        assert calls.count(_brentq) == calls.count(_scipy_brentq) > 0
        for ours, theirs in zip(ported, reference):
            for field in ("theta1", "sigma", "mean"):
                assert np.array_equal(
                    getattr(ours._params, field), getattr(theirs._params, field)
                )
            assert np.array_equal(ours.whiten(), theirs.whiten())
