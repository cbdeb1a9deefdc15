"""Adding-machine arithmetic and the spacer cocycle over it.

The construction is represented as a tower over the product adding machine
Y = prod {0..p_n-1}: adding one carries rightward, and the roof function
1 + sum_n s_n records the extra spacer steps, where s_n is supported on the
points whose first n-1 coordinates are all full (value s_{n, y_n} there).
Points are finite truncations with a free tail: whenever a computation needs
coordinates beyond the truncation the outcome is reported as undetermined
instead of guessing, which preserves the exact j*2^-r tail bound on the
distributions computed below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .construction import ConstructionParams, heights
from .errors import InputError, RangeError, Refusal

__all__ = [
    "OdometerPoint",
    "IntegerDistribution",
    "add_one",
    "add_at",
    "tower_index",
    "spacer_cocycle",
    "roof_value",
    "tail_spacers",
    "g_function",
    "cocycle_sum",
    "cocycle_distribution",
]


@dataclass(frozen=True)
class OdometerPoint:
    """Truncated point of the adding machine; coordinates beyond depth are unknown."""

    coords: tuple
    cuts: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.cuts) or not self.coords:
            raise InputError("point needs one coordinate per cut, depth >= 1")
        for k, (y, p) in enumerate(zip(self.coords, self.cuts), start=1):
            if not 0 <= y < p:
                raise RangeError(f"coordinate {k} value {y} outside 0..{p - 1}")

    @property
    def depth(self):
        return len(self.coords)

    @classmethod
    def zero(cls, params: ConstructionParams, depth):
        return cls((0,) * depth, params.cuts[:depth])


def add_at(y: OdometerPoint, k: int):
    """Add one at coordinate k (1-based), carrying rightward.

    Returns (point, overflowed); overflow means the carry left the truncation,
    in which case the returned point wrapped to zeros from k on."""
    if not 1 <= k <= y.depth:
        raise RangeError(f"coordinate {k} outside 1..{y.depth}")
    coords = list(y.coords)
    i = k - 1
    while i < y.depth:
        coords[i] += 1
        if coords[i] < y.cuts[i]:
            return OdometerPoint(tuple(coords), y.cuts), False
        coords[i] = 0
        i += 1
    return OdometerPoint(tuple(coords), y.cuts), True


def add_one(y: OdometerPoint):
    """The adding machine itself: y + (1, 0, 0, ...) with carry."""
    return add_at(y, 1)


def tower_index(y: OdometerPoint, n: int) -> int:
    """Level of y in the width-q_n tower: y_1 + y_2 q_1 + ... + y_n q_{n-1}."""
    if not 1 <= n <= y.depth:
        raise RangeError(f"stage {n} outside 1..{y.depth}")
    idx = 0
    q = 1
    for k in range(n):
        idx += y.coords[k] * q
        q *= y.cuts[k]
    return idx


def spacer_cocycle(params: ConstructionParams, y: OdometerPoint, n: int) -> int:
    """Value of the stage-n spacer function at y.

    Nonzero only on the top slab of the previous tower: coordinates 1..n-1 all
    full, where the value is the spacer count of column y_n."""
    if n < 1:
        raise RangeError("stage must be >= 1")
    if y.depth < n or params.depth < n:
        raise RangeError(f"stage {n} needs point depth and params depth >= {n}")
    if any(y.coords[k] != params.cut(k + 1) - 1 for k in range(n - 1)):
        return 0
    return params.spacer(n, y.coords[n - 1])


def tail_spacers(params, y, n):
    """Sum of all stage > n spacer functions at y, or None when undetermined.

    The stage-m term vanishes unless coordinates 1..m-1 are all full, so the
    sum is determined as soon as some coordinate below the truncation depth is
    not full (and the stage data reaches that far)."""
    first_free = None
    for k in range(y.depth):
        if y.coords[k] < y.cuts[k] - 1:
            first_free = k + 1
            break
    if first_free is None or first_free > params.depth:
        return None
    total = 0
    for m in range(n + 1, first_free + 1):
        total += params.spacer(m, y.coords[m - 1])
    return total


def roof_value(params, y):
    """Return-time function 1 + sum_n s_n(y), or None when undetermined."""
    tail = tail_spacers(params, y, 0)
    return None if tail is None else 1 + tail


def g_function(params, y, n):
    """Column-constant spread of the stage > n spacer sum.

    Equals sum_{m=1..t} s_{n+m, y_{n+m}} where t is the first index after n
    whose coordinate is not full; None when no such index is visible within
    the truncation (or the stage data runs out)."""
    if y.depth <= n:
        raise RangeError(f"need point depth > {n}")
    total = 0
    for m in range(n + 1, min(y.depth, params.depth) + 1):
        total += params.spacer(m, y.coords[m - 1])
        if y.coords[m - 1] < y.cuts[m - 1] - 1:
            return total
    return None


def cocycle_sum(g, y: OdometerPoint, q: int) -> int:
    """Exact Birkhoff sum g(y) + g(Sy) + ... + g(S^{q-1} y).

    Raises if the adding-machine orbit carries past the truncation depth
    (a deeper point is needed) or if g reports undetermined."""
    if q < 1:
        raise InputError("need q >= 1")
    total = 0
    cur = y
    for step in range(q):
        value = g(cur)
        if value is None:
            raise RangeError(f"observable undetermined after {step} steps; deepen the point")
        total += value
        if step + 1 < q:
            cur, overflow = add_one(cur)
            if overflow:
                raise RangeError(f"orbit overflowed truncation after {step + 1} steps")
    return total


# ----------------------------------------------------------------------------
# Exact finitely-supported distributions on the integers
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerDistribution:
    """Exact probability distribution on Z with a declared un-enumerated tail.

    Masses are reduced rationals, strictly positive, sorted by value; the
    support below is therefore provably positive, never extrapolated."""

    masses: tuple  # ((value, Fraction), ...) sorted by value
    tail: Fraction = Fraction(0)

    def __post_init__(self):
        values = [v for v, _ in self.masses]
        if values != sorted(values) or len(set(values)) != len(values):
            raise InputError("masses must be sorted by distinct value")
        if any(m <= 0 for _, m in self.masses) or self.tail < 0:
            raise InputError("masses must be positive and tail non-negative")
        if sum((m for _, m in self.masses), self.tail) != 1:
            raise InputError("masses plus tail must sum to exactly 1")

    @classmethod
    def from_map(cls, mapping, tail=Fraction(0)):
        items = tuple(sorted((int(v), Fraction(m)) for v, m in mapping.items() if m))
        return cls(items, Fraction(tail))

    @classmethod
    def delta(cls, value=0):
        return cls(((value, Fraction(1)),))

    def as_dict(self):
        return dict(self.masses)

    def support(self):
        return tuple(v for v, _ in self.masses)

    def mass(self, value):
        return dict(self.masses).get(value, Fraction(0))

    def mass_at_least(self, value):
        return sum((m for v, m in self.masses if v >= value), Fraction(0))

    def shift(self, k):
        return IntegerDistribution(tuple((v + k, m) for v, m in self.masses), self.tail)

    def csv_rows(self):
        """Rows value,numerator,denominator with a TAIL footer row."""
        rows = [(v, m.numerator, m.denominator) for v, m in self.masses]
        rows.append(("TAIL", self.tail.numerator, self.tail.denominator))
        return rows


# ----------------------------------------------------------------------------
# Distribution of the centered cocycle sums
# ----------------------------------------------------------------------------
#
# Both evaluation orders below compute the exact law, over the product-uniform
# measure on r truncated coordinates, of the j-fold Birkhoff sum (under the
# shifted adding machine) of the excess return time: the spacers collected
# while scanning coordinates up to the first non-full one.  Samples needing
# coordinates beyond the truncation land in the tail mass.


def _excess_once(window, coords):
    """Spacer sum up to the first non-full coordinate; None if none visible."""
    total = 0
    for (p, row), c in zip(window, coords):
        total += row[c]
        if c < p - 1:
            return total
    return None


def _window_distribution_enum(window, j):
    """Oracle path: full product enumeration of the truncated coordinates."""
    sizes = [p for p, _ in window]
    denom = 1
    for p in sizes:
        denom *= p
    counts = {}
    tail_count = 0
    for coords in itertools.product(*(range(p) for p in sizes)):
        cur = list(coords)
        total = 0
        determined = True
        for step in range(j):
            value = _excess_once(window, cur)
            if value is None:
                determined = False
                break
            total += value
            if step + 1 < j:
                # add one with carry; cannot run off the end, since the
                # excess was determined (some coordinate is not full)
                i = 0
                while True:
                    cur[i] += 1
                    if cur[i] < sizes[i]:
                        break
                    cur[i] = 0
                    i += 1
        if determined:
            counts[total] = counts.get(total, 0) + 1
        else:
            tail_count += 1
    masses = {v: Fraction(c, denom) for v, c in counts.items()}
    return IntegerDistribution.from_map(masses, Fraction(tail_count, denom))


def _count_full_hits(c, w, p):
    """How many of c, c+1, ..., c+w-1 are congruent to p-1 mod p."""
    last = c + w - 1
    if last < p - 1:
        return 0
    return (last - (p - 1)) // p + 1


def _cyclic_sum(row, c, w):
    """row[c % p] + row[(c+1) % p] + ... over w terms."""
    p = len(row)
    total = (w // p) * sum(row)
    for i in range(w % p):
        total += row[(c + i) % p]
    return total


def _window_distribution_conv(window, j):
    """Per-coordinate recursion: condition on the first coordinate.

    Given the first coordinate c, the w pending sums contribute a
    deterministic amount from this coordinate, and exactly the iterates that
    land on the full column recurse into the remaining coordinates -- in
    carry order, so their contribution is a w'-fold sum one coordinate deeper.
    """

    @lru_cache(maxsize=None)
    def level(k, w):
        if w == 0:
            return (((0, Fraction(1)),), Fraction(0))
        if k == len(window):
            return ((), Fraction(1))
        p, row = window[k]
        acc = {}
        tail = Fraction(0)
        for c in range(p):
            base = _cyclic_sum(row, c, w)
            sub_masses, sub_tail = level(k + 1, _count_full_hits(c, w, p))
            for v, m in sub_masses:
                key = v + base
                acc[key] = acc.get(key, Fraction(0)) + Fraction(m, p)
            tail += Fraction(sub_tail, p)
        return tuple(sorted(acc.items())), tail

    masses, tail = level(0, j)
    return IntegerDistribution(masses, tail)


def _window_distribution(window, j, method):
    if j < 1:
        raise InputError("need j >= 1")
    if method == "convolution":
        dist = _window_distribution_conv(tuple(window), j)
    elif method == "enumerate":
        dist = _window_distribution_enum(tuple(window), j)
    else:
        raise InputError(f"unknown method {method!r}")
    # exact tail guarantee inherited from the per-coordinate 1/p_n <= 1/2
    bound = Fraction(j, 2 ** len(window))
    if dist.tail > bound:
        raise Refusal(f"{method} tail {dist.tail} exceeds the guaranteed bound {bound}")
    return dist


def stage_window(params: ConstructionParams, base, r):
    """(cut, spacer row) pairs for stages base+1 .. base+r."""
    if base + r > params.depth:
        raise RangeError(
            f"window base {base} depth {r} needs params depth >= {base + r}"
        )
    if r < 1:
        raise InputError("need depth >= 1")
    return tuple((params.cut(m), params.spacer_row(m)) for m in range(base + 1, base + r + 1))


def cocycle_distribution(params, n, j, depth, method="convolution"):
    """Exact law of the j-fold centered cocycle sum at stage n, truncated at `depth`.

    Enumerates coordinates n+1..n+depth with product-uniform weights; outcomes
    needing deeper coordinates accumulate in the tail, which is guaranteed
    <= j * 2^-depth.  `method` selects one of two independent evaluation
    orders that must agree exactly."""
    return _window_distribution(stage_window(params, n, depth), j, method)
