"""Small numeric search routines shared by the solvers.

All solvers in this package reduce one-dimensional subproblems to either a
sign change of a monotone function or the minimum of a convex function with
an available derivative, so bracketing searches are enough everywhere and
keep the package dependency-free.  ``scan_sign_changes`` finds the fixed
points that iteration repels, on a ``grid`` whose ends are exact.  It,
``bisect_sign_change`` and ``argmin_by_derivative`` share one bisection
loop.  ``newton_argmin`` is the same minimization for a derivative whose
own slope is at hand: Newton steps, kept inside the sign-change bracket
by bisection, reach float resolution in a handful of evaluations.  Every
search stops after ``SEARCH_STEPS`` Newton steps or halvings.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

# The most Newton steps or halvings a search takes before it settles for
# the point it has; shared by every search here and by the level search
# of nash's water-filling, whose per-path flows at a level are closed
# forms (``costs.SplitCost.level``) or ``newton_argmin``.
SEARCH_STEPS = 60


def grid(r: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced points from 0 to ``r``, both ends exact."""
    return [r * i / (n - 1) for i in range(n - 1)] + [r]


def _bisect(f: Callable[[float], float], a: float, b: float,
            fa: float) -> float:
    """Bisect ``[a, b]``, whose ends have opposite signs; ``fa = f(a)``.
    Stops early at a midpoint where ``f`` is zero.  A midpoint where ``f``
    is not a number becomes the new upper end."""
    sign = 1.0 if fa > 0.0 else -1.0   # read a rising f as falling
    for _ in range(SEARCH_STEPS):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = sign * f(mid)
        if fm > 0.0:
            a = mid
        elif fm < 0.0 or math.isnan(fm):
            b = mid
        else:
            return mid
    return 0.5 * (a + b)


def bisect_sign_change(f: Callable[[float], float], lo: float,
                       hi: float) -> float:
    """Point where a function decreasing from >=0 to <=0 crosses zero.

    Assumes ``f(lo) >= 0 >= f(hi)``; callers check the bracket.  Returns
    the midpoint of the final interval.
    """
    flo = f(lo)
    if flo <= 0.0:
        return lo
    fhi = f(hi)
    if fhi >= 0.0:
        return hi
    return _bisect(f, lo, hi, flo)


def scan_sign_changes(f: Callable[[float], float],
                      xs: Sequence[float]) -> list[float]:
    """Every zero of ``f`` that the increasing grid ``xs`` brackets, in
    grid order: grid points where ``f`` is exactly zero, and each strict
    sign change between neighbours bisected."""
    vals = [f(x) for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(xs[i])
        elif (a > 0 > b) or (a < 0 < b):
            roots.append(_bisect(f, xs[i], xs[i + 1], a))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def argmin_by_derivative(deriv: Callable[[float], float], lo: float,
                         hi: float) -> float:
    """Minimizer of a convex function on [lo, hi] given its derivative.

    The derivative of a convex function is nondecreasing, so the minimum
    sits at ``lo`` when the derivative starts nonnegative, at ``hi`` when
    it stays nonpositive, and at the derivative's zero otherwise.  An
    infinite derivative value is treated as its sign.
    """
    if hi <= lo:
        return lo
    dlo = deriv(lo)
    if dlo >= 0.0:
        return lo
    if deriv(hi) <= 0.0:
        return hi
    # Capacity blowups show up as nan only through subtraction of
    # infinities; ``_bisect`` steps back toward the feasible side.
    return _bisect(deriv, lo, hi, dlo)


def newton_argmin(deriv: Callable[[float], tuple[float, float]], lo: float,
                  hi: float) -> float:
    """Minimizer of a convex function on [lo, hi] given its derivative and
    the derivative's slope, ``deriv(x) -> (d, d')``.

    The end tests are ``argmin_by_derivative``'s.  Inside, Newton steps
    from the midpoint toward the derivative's zero, keeping the bracket
    where its sign changes: a step that leaves the bracket, a NaN
    derivative (which moves the upper end, as in ``_bisect``) or a slope
    that is not positive and finite bisects instead.  Stops when a step
    no longer moves the point, when no float is left inside the
    bracket, or after ``SEARCH_STEPS`` steps.
    """
    if hi <= lo:
        return lo
    if deriv(lo)[0] >= 0.0:
        return lo
    if deriv(hi)[0] <= 0.0:
        return hi
    a, b = lo, hi
    x = 0.5 * (a + b)
    for _ in range(SEARCH_STEPS):
        d, slope = deriv(x)
        if d < 0.0:
            a = x
        elif d > 0.0 or math.isnan(d):
            b = x
        else:
            return x
        nx = 0.5 * (a + b)
        if 0.0 < slope < math.inf and not math.isnan(d):
            step = x - d / slope
            if step == x:
                return x
            if a < step < b:
                nx = step
        if nx == a or nx == b:
            return x
        x = nx
    return x
