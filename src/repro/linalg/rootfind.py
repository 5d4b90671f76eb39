"""Bracketed root finding for monotone 1-D functions.

The quadratic-constraint update of the MaxEnt solver reduces to solving
``phi(lam) = 0`` where ``phi`` is strictly monotone on an open half-line
(Sec. II-A.1, Eq. 10).  The work here is robust bracket expansion against a
possibly one-sided domain, e.g. ``lam > lower`` with ``phi -> +inf`` at the
lower end; once the root is bracketed, Brent's method polishes it (Brent,
*Algorithms for Minimization Without Derivatives*, 1973, ch. 4).

:func:`_brentq` is a line-for-line port of SciPy's C ``brentq``
(``scipy/optimize/Zeros/brentq.c``) as ``scipy.optimize.brentq(f, a, b,
xtol=...)`` runs it with its defaults: the same operation order, relative
tolerance (4 eps), iteration cap (100) and errors.  Every root is therefore
the float SciPy returns, and no serving process has to import SciPy.
``tests/linalg/test_rootfind.py`` pins the port to ``scipy.optimize.brentq``
over generated functions and brackets.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from repro.errors import RootFindError

#: Hard cap on bracket expansion iterations.  Steps double each round, so a
#: root at any realistic scale is bracketed long before this triggers.
_MAX_EXPANSIONS = 200

#: ``scipy.optimize.brentq``'s defaults: relative x-tolerance and iteration
#: cap.
_RTOL = 4 * sys.float_info.epsilon
_MAX_ITERATIONS = 100


def find_monotone_root(
    func: Callable[[float], float],
    lower: float = -math.inf,
    upper: float = math.inf,
    start: float = 0.0,
    initial_step: float = 1.0,
    tolerance: float = 1e-12,
) -> float:
    """Find the root of a monotone function on an open interval.

    The function is probed outwards from ``start`` on both sides
    simultaneously, doubling the step each round; when moving towards a
    finite open bound the step bisects towards the bound instead, so the
    probes converge to the bound from inside without ever touching it.  Once
    two probes of opposite sign are seen, Brent's method polishes the root.

    Parameters
    ----------
    func:
        Monotone (increasing or decreasing) callable, finite on the open
        interval ``(lower, upper)``.  The end points are never evaluated.
    lower, upper:
        Open interval bounds; either may be infinite.
    start:
        Point inside the interval to start bracketing from.  If it falls
        outside it is nudged inside.
    initial_step:
        First bracket expansion step.
    tolerance:
        Absolute x-tolerance passed to Brent's method.

    Returns
    -------
    float
        A point where ``func`` crosses zero.

    Raises
    ------
    RootFindError
        If no sign change can be bracketed (typically: the target value is
        unreachable inside the interval).
    """
    if not lower < upper:
        raise RootFindError(f"empty interval: ({lower}, {upper})")

    x0 = _clip_into_open_interval(start, lower, upper, initial_step)
    f0 = func(x0)
    if f0 == 0.0:
        return x0

    step = initial_step
    right, f_right = x0, f0
    left, f_left = x0, f0
    for _ in range(_MAX_EXPANSIONS):
        # Expand right.
        nxt = right + step
        if nxt >= upper:
            nxt = 0.5 * (right + upper)
        if nxt > right:
            f_nxt = func(nxt)
            if f_nxt == 0.0:
                return nxt
            # Compare signs directly: a product of a subnormal and a
            # normal value can underflow to -0.0 and hide the crossing.
            if (f_nxt > 0.0) != (f_right > 0.0):
                return _brentq(func, right, nxt, tolerance)
            right, f_right = nxt, f_nxt

        # Expand left.
        nxt = left - step
        if nxt <= lower:
            nxt = 0.5 * (left + lower)
        if nxt < left:
            f_nxt = func(nxt)
            if f_nxt == 0.0:
                return nxt
            if (f_nxt > 0.0) != (f_left > 0.0):
                return _brentq(func, nxt, left, tolerance)
            left, f_left = nxt, f_nxt

        step *= 2.0

    raise RootFindError(
        "could not bracket a sign change after "
        f"{_MAX_EXPANSIONS} expansions (bracket [{left!r}, {right!r}], "
        f"values [{f_left!r}, {f_right!r}])"
    )


def _clip_into_open_interval(
    x: float, lower: float, upper: float, margin: float
) -> float:
    """Move ``x`` strictly inside ``(lower, upper)`` if necessary."""
    if lower < x < upper:
        return x
    if math.isinf(lower) and math.isinf(upper):
        return 0.0
    if math.isinf(upper):
        return lower + margin
    if math.isinf(lower):
        return upper - margin
    return 0.5 * (lower + upper)


def _brentq(
    f: Callable[[float], float], xa: float, xb: float, xtol: float
) -> float:
    """A root of ``f`` bracketed by ``[xa, xb]``.

    Returns the float ``scipy.optimize.brentq(f, xa, xb, xtol=xtol)``
    returns and raises what it raises: ``ValueError`` for ``xtol <= 0``, a
    NaN function value or equal signs at the two ends, ``RuntimeError``
    when :data:`_MAX_ITERATIONS` iterations do not converge.  The comments
    are the C source's.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAX_ITERATIONS):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2*delta
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(
                    -fcur * (fblk * dblk - fpre * dpre),
                    dblk * dpre * (fblk - fpre),
                )
            if 2 * abs(stry) < _c_min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAX_ITERATIONS} iterations.")


def _value(f: Callable[[float], float], x: float) -> float:
    """``f(x)`` as a float; a NaN raises, as SciPy's wrapper does."""
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return float(fx)


def _signbit(x: float) -> bool:
    """C's ``signbit``: true for a set sign bit, ``-0.0`` included."""
    return math.copysign(1.0, x) < 0.0


def _div(a: float, b: float) -> float:
    """``a / b`` as C computes it: ±inf or NaN, not an exception, at 0.

    A non-finite step fails Brent's step test, so the C code bisects where
    Python would raise ``ZeroDivisionError``.
    """
    if b:
        return a / b
    if a == 0 or math.isnan(a):
        return math.nan
    return math.inf if _signbit(a) == _signbit(b) else -math.inf


def _c_min(a: float, b: float) -> float:
    """C's ``MIN(a, b)`` macro, ``a < b ? a : b`` (``min`` differs on NaN)."""
    return a if a < b else b
