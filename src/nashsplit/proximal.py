"""Proximity operators and resolvents for the nonsmooth game terms.

Each :class:`NonsmoothTerm` bundles a resolvent ``(gamma, x) -> prox`` with a
finite value callable used by the sampling oracles. Nonsmooth terms are
exposed as resolvent providers so that set-valued operators can be plugged
in through :func:`custom_resolvent` without a separate code path; the
built-in kinds realize the classical proximity operators. All functions
here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

__all__ = [
    "NonsmoothTerm",
    "prox",
    "prox_optimality_check",
    "project_simplex",
    "is_indicator",
    "zero",
    "box",
    "ball",
    "shifted_orthant",
    "simplex",
    "singleton",
    "l1",
    "quadratic",
    "custom_resolvent",
    "INDICATOR_KINDS",
]

# Membership slack for indicator values; projections land in their sets up
# to exact arithmetic, the slack only absorbs representation noise.
_MEMBER_TOL = 1e-9

INDICATOR_KINDS = frozenset({"box", "ball", "shifted_orthant", "simplex", "singleton"})


@dataclass(frozen=True)
class NonsmoothTerm:
    """A proper lower-semicontinuous convex term given by its resolvent.

    Attributes
    ----------
    kind : str
        Tag identifying the built-in family (``"zero"``, ``"box"``, ...,
        ``"custom"``); oracles introspect it.
    dim : int or None
        Intrinsic dimension when the term fixes one, else None.
    prox_fn : callable
        ``(gamma, x) -> argmin f + ||. - x||^2 / (2 gamma)``.
    value_fn : callable
        ``x -> f(x)``; returns ``inf`` outside the domain.
    meta : mapping
        Construction data (bounds, offsets, weights) for oracles.
    stack : tuple or None
        ``(constructor, scalars, vectors)`` when the prox acts entry by
        entry with per-entry data: ``constructor(*scalars, *vectors)``
        builds the term, and terms with the same constructor and scalars
        make one term over their concatenated vectors that gives each
        entry the bits of its own term's prox. ``Game`` stacks players'
        terms by it; None keeps a term alone.
    """

    kind: str
    dim: Optional[int]
    prox_fn: Callable[[float, np.ndarray], np.ndarray]
    value_fn: Callable[[np.ndarray], float]
    meta: Mapping[str, Any] = field(default_factory=dict)
    stack: Optional[tuple] = None


def is_indicator(term: NonsmoothTerm) -> bool:
    return term.kind in INDICATOR_KINDS


def prox(term: NonsmoothTerm, gamma: float, x) -> np.ndarray:
    """Evaluate the proximity operator of ``gamma * term`` at ``x``.

    For indicator kinds this is the Euclidean projection, independent of
    ``gamma``. Raises ValueError on nonpositive ``gamma`` and on a
    dimension mismatch with the term's intrinsic dimension.
    """
    if not gamma > 0.0:
        raise ValueError(f"prox requires gamma > 0, got {gamma}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"prox expects a vector, got shape {arr.shape}")
    if term.dim is not None and arr.shape[0] != term.dim:
        raise ValueError(f"prox: term has dimension {term.dim}, input has {arr.shape[0]}")
    return term.prox_fn(float(gamma), arr)


def prox_optimality_check(
    term: NonsmoothTerm, gamma: float, x, trials: int = 100, seed: int = 0
) -> float:
    """Sample how far the prox output is from minimizing its objective.

    Draws random perturbations ``y`` (pulled into the domain through the
    term's own resolvent) and returns the largest amount by which
    ``f(p) + ||p - x||^2/(2 gamma)`` exceeds the objective at a sampled
    ``y``, where ``p`` is the prox output. A correct prox stays at or
    below numerical noise; an infeasible output returns ``inf``.
    """
    arr = np.asarray(x, dtype=float)
    p = prox(term, gamma, arr)

    def objective(v):
        return term.value_fn(v) + float(np.dot(v - arr, v - arr)) / (2.0 * gamma)

    base = objective(p)
    if not np.isfinite(base):
        return np.inf
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.linalg.norm(arr))
    worst = 0.0
    for _ in range(trials):
        probe = p + scale * rng.standard_normal(p.shape) * rng.uniform(1e-6, 1.0)
        y = prox(term, gamma, probe)
        gap = base - objective(y)
        if np.isfinite(gap) and gap > worst:
            worst = gap
    return worst


def project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, x.shape[0] + 1)
    feasible = u + (1.0 - css) / ks > 0.0
    k = ks[feasible][-1]
    tau = (css[feasible][-1] - 1.0) / k
    return np.maximum(x - tau, 0.0)


def _indicator_value(member_fn):
    def value(v):
        return 0.0 if member_fn(v) else np.inf

    return value


def zero() -> NonsmoothTerm:
    """The identically-zero term; its prox is the identity."""
    return NonsmoothTerm("zero", None, lambda g, x: x, lambda v: 0.0, stack=(zero, (), ()))


def box(lower, upper) -> NonsmoothTerm:
    """Indicator of the box ``[lower, upper]`` (componentwise)."""
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("box bounds must have matching shapes")
    if np.any(lo > hi):
        raise ValueError(f"infeasible box: lower {lo} exceeds upper {hi}")
    dim = int(lo.shape[0])

    def member(v):
        slack = _MEMBER_TOL * (1.0 + float(np.max(np.abs(v), initial=0.0)))
        return bool(np.all(v >= lo - slack) and np.all(v <= hi + slack))

    return NonsmoothTerm(
        "box",
        dim,
        lambda g, x: np.minimum(np.maximum(x, lo), hi),
        _indicator_value(member),
        {"lower": lo, "upper": hi},
        (box, (), (lo, hi)),
    )


def ball(center, radius: float) -> NonsmoothTerm:
    """Indicator of the closed Euclidean ball."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    r = float(radius)
    if r < 0.0:
        raise ValueError("ball radius must be nonnegative")

    def proj(g, x):
        d = x - c
        nrm = float(np.linalg.norm(d))
        if nrm <= r:
            return x
        return c + (r / nrm) * d

    def member(v):
        return float(np.linalg.norm(v - c)) <= r + _MEMBER_TOL * (1.0 + r)

    return NonsmoothTerm("ball", int(c.shape[0]), proj, _indicator_value(member), {"center": c, "radius": r})


def shifted_orthant(offset) -> NonsmoothTerm:
    """Indicator of ``offset + [0, inf)^M``, the shifted nonnegative orthant."""
    r = np.atleast_1d(np.asarray(offset, dtype=float))

    def member(v):
        slack = _MEMBER_TOL * (1.0 + float(np.max(np.abs(v), initial=0.0)))
        return bool(np.all(v >= r - slack))

    return NonsmoothTerm(
        "shifted_orthant",
        int(r.shape[0]),
        lambda g, x: np.maximum(x, r),
        _indicator_value(member),
        {"offset": r},
        (shifted_orthant, (), (r,)),
    )


def simplex() -> NonsmoothTerm:
    """Indicator of the probability simplex (any dimension)."""

    def member(v):
        return bool(np.all(v >= -_MEMBER_TOL) and abs(float(np.sum(v)) - 1.0) <= _MEMBER_TOL * v.shape[0])

    return NonsmoothTerm("simplex", None, lambda g, x: project_simplex(x), _indicator_value(member))


def singleton(point) -> NonsmoothTerm:
    """Indicator of a single point."""
    a = np.atleast_1d(np.asarray(point, dtype=float))

    def member(v):
        return float(np.max(np.abs(v - a), initial=0.0)) <= _MEMBER_TOL * (1.0 + float(np.max(np.abs(a))))

    return NonsmoothTerm("singleton", int(a.shape[0]), lambda g, x: np.array(a),
                         _indicator_value(member), {"point": a}, (singleton, (), (a,)))


def l1(weight: float = 1.0) -> NonsmoothTerm:
    """Weighted l1 norm; its prox is soft thresholding at ``gamma * weight``."""
    w = float(weight)
    if w < 0.0:
        raise ValueError("l1 weight must be nonnegative")

    def soft(g, x):
        t = g * w
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    return NonsmoothTerm("l1", None, soft, lambda v: w * float(np.sum(np.abs(v))), {"weight": w},
                         (l1, (w,), ()))


def quadratic(curvature: float, linear) -> NonsmoothTerm:
    """The term ``(curvature/2) ||x||^2 + <linear, x>`` handled through its prox."""
    c = float(curvature)
    if c < 0.0:
        raise ValueError("quadratic curvature must be nonnegative for convexity")
    b = np.atleast_1d(np.asarray(linear, dtype=float))

    def proxq(g, x):
        return (x - g * b) / (1.0 + g * c)

    def value(v):
        return 0.5 * c * float(np.dot(v, v)) + float(np.dot(b, v))

    return NonsmoothTerm("quadratic", int(b.shape[0]), proxq, value, {"curvature": c, "linear": b},
                         (quadratic, (c,), (b,)))


def custom_resolvent(resolvent, value=None, dim: Optional[int] = None) -> NonsmoothTerm:
    """Wrap a user resolvent ``(gamma, x) -> J(x)`` as a nonsmooth term.

    Realizes set-valued maximally monotone terms; beyond sampled firm
    nonexpansiveness no verification is possible, and optimality checks
    need ``value`` to be supplied.
    """

    def no_value(v):
        raise ValueError("custom resolvent has no value callable")

    return NonsmoothTerm("custom", dim, resolvent, value if value is not None else no_value)
