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

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import prod

from .blocks import DEFAULT_CAP
from .construction import ConstructionParams
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

    def support(self):
        return tuple(v for v, _ in self.masses)

    def mass(self, value):
        return dict(self.masses).get(value, Fraction(0))

    def mass_at_least(self, value):
        return sum((m for v, m in self.masses if v >= value), Fraction(0))

    def csv_rows(self):
        """Rows value,numerator,denominator with a TAIL footer row."""
        rows = [(v, m.numerator, m.denominator) for v, m in self.masses]
        rows.append(("TAIL", self.tail.numerator, self.tail.denominator))
        return rows


# ----------------------------------------------------------------------------
# Distribution of the centered cocycle sums
# ----------------------------------------------------------------------------
#
# Both evaluation orders below count the points of r truncated coordinates by
# the j-fold Birkhoff sum (under the shifted adding machine) of the excess
# return time: the spacers collected while scanning coordinates up to the
# first non-full one.  Points needing coordinates beyond the truncation count
# in the tail.  `_window_distribution` alone divides by the point count, which
# makes the exact law under the product-uniform measure.


SLIDE = 1 << 16  # starts per big-int segment of the enumeration


def _slot_width(top):
    """Smallest power-of-two byte count whose unsigned slot holds top."""
    return 1 << (max(top.bit_length() - 1, 0) // 8).bit_length()


def _level_excess(window, j=1):
    """Excess of every point of the window, indexed by tower level
    t = c_1 + c_2 p_1 + c_3 p_1 p_2 + ..., so that the adding machine is t -> t + 1.

    Returns (table, width): one little-endian slot per level, `width` bytes
    wide, the smallest power of two that holds j * sum(max(row)) (1, 2, 4, 8,
    then 16 and up), so that a sum of j slots fits in one.  A point whose
    first non-full coordinate is the k-th collects the full-column spacers of
    coordinates 1..k-1 plus row_k[c_k], so the table is built last coordinate
    first: the row's p slots, each plus the spacers above, repeated fill the
    non-full columns, and the full column is the table one coordinate deeper
    (level t // p), placed byte by byte at stride p.  The last level (every
    coordinate full) is undetermined and holds a placeholder."""
    width = _slot_width(j * sum(max(row) for _, row in window))
    above = list(accumulate((row[-1] for _, row in window), initial=0))
    table = above.pop().to_bytes(width, "little")
    for (p, row), base in zip(reversed(window), reversed(above)):
        deeper, stride = table, p * width
        table = bytearray(b"".join((base + v).to_bytes(width, "little") for v in row))
        table *= len(deeper) // width
        for b in range(width):
            table[stride - width + b::stride] = deeper[b::width]
    return table, width


def _window_distribution_enum(window, j, cap):
    """Oracle path: every level of the truncated tower, with the orbit t -> t + 1.

    The j-fold sum started at level t reads the excess of levels t..t+j-1, so
    the starts that reach the all-full last level, exactly the last min(j, D)
    of the D points, land in the tail.  Windows of more than `cap` points are
    refused before the level table is built.  The starts run in segments of
    max(SLIDE, j), each read as one int; one multiply of that int by the
    repunit of j slots of 1, shifted down j - 1 slots, forms every start's sum
    at once.  No slot carries: a slot holds j times the largest excess.  A
    segment holds max(SLIDE, j) + j - 1 slots, so each level is read at most
    twice, and memory grows with j past SLIDE.  When every sum of a segment
    fits in its low byte, those bytes alone are tallied, one value per pass
    that deletes it; otherwise, or once a pass finds a value holding under
    1/32 of the bytes left, a Counter takes the sums point by point.
    Returns (counts by value, tail count, number of points), as the recursion
    does."""
    size = prod(p for p, _ in window)
    if size > cap:
        raise Refusal(f"enumerating {size} points exceeds the cap; raise it to at least {size}")
    table, width = _level_excess(window, j)
    bits = 8 * width
    code = next((c for c in "BHIQ" if array(c).itemsize == width), None)
    n, step = max(size - j, 0), max(SLIDE, j)  # the first n starts stay below the last level
    repunit = ((1 << j * bits) - 1) // ((1 << bits) - 1)  # j slots of 1
    first = 0 if sys.byteorder == "little" else width - 1  # the low byte of a native slot
    counts = Counter()
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        run = int.from_bytes(memoryview(table)[lo * width:(hi + j - 1) * width], "little")
        total = run * repunit >> (j - 1) * bits  # slot t sums the levels t..t+j-1
        # the sums of starts lo..hi-1, in native byte order for the cast
        sums = (total & (1 << (hi - lo) * bits) - 1).to_bytes((hi - lo) * width, sys.byteorder)
        low = sums[first::width]
        if width > 1 and sums.count(0) - low.count(0) != len(low) * (width - 1):
            counts.update(memoryview(sums).cast(code) if code else (
                int.from_bytes(sums[i:i + width], sys.byteorder) for i in range(0, len(sums), width)))
            continue
        while low:  # every sum is its low byte: count one value per deleting pass
            rest = low.translate(None, low[:1])
            counts[low[0]] += len(low) - len(rest)
            # a pass costs ~1 ns a byte, a Counter step ~45 ns (CPython 3.11, x86-64):
            # a value under 1/32 of the bytes left hands them all to the Counter
            if 32 * (len(low) - len(rest)) < len(low):
                counts.update(rest)
                break
            low = rest
    return counts, size - n, size


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
    Those iterates number (c + w) // p - c // p, that is (c + w) // p as
    0 <= c < p.  Level k counts the prod(p for p, _ in window[k:]) points of
    coordinates k on: all at 0 once no sum is pending, one in the tail past
    the truncation.  Returns (counts by value, tail count, number of points)."""

    @lru_cache(maxsize=None)
    def level(k, w):
        if w == 0:
            return {0: prod(p for p, _ in window[k:])}, 0
        if k == len(window):
            return {}, 1
        p, row = window[k]
        acc = {}
        tail = 0
        for c in range(p):
            base = _cyclic_sum(row, c, w)
            sub_counts, sub_tail = level(k + 1, (c + w) // p)
            for v, m in sub_counts.items():
                acc[v + base] = acc.get(v + base, 0) + m
            tail += sub_tail
        return acc, tail

    return (*level(0, j), prod(p for p, _ in window))


def _window_distribution(window, j, method, cap=DEFAULT_CAP):
    if j < 1:
        raise InputError("need j >= 1")
    if method == "convolution":
        counts, tail, size = _window_distribution_conv(tuple(window), j)
    elif method == "enumerate":
        counts, tail, size = _window_distribution_enum(tuple(window), j, cap)
    else:
        raise InputError(f"unknown method {method!r}")
    # exact tail guarantee inherited from the per-coordinate 1/p_n <= 1/2
    tail, bound = Fraction(tail, size), Fraction(j, 2 ** len(window))
    if tail > bound:
        raise Refusal(f"{method} tail {tail} exceeds the guaranteed bound {bound}")
    return IntegerDistribution.from_map({v: Fraction(c, size) for v, c in counts.items()}, tail)


def stage_window(params: ConstructionParams, base, r):
    """(cut, spacer row) pairs for stages base+1 .. base+r."""
    if base < 0:
        raise RangeError(f"stage {base} is negative; need n >= 0")
    if base + r > params.depth:
        raise RangeError(
            f"window base {base} depth {r} needs params depth >= {base + r}"
        )
    if r < 1:
        raise InputError("need depth >= 1")
    return tuple((params.cut(m), params.spacer_row(m)) for m in range(base + 1, base + r + 1))


def cocycle_distribution(params, n, j, depth, method="convolution", cap=DEFAULT_CAP):
    """Exact law of the j-fold centered cocycle sum at stage n, truncated at `depth`.

    Enumerates coordinates n+1..n+depth with product-uniform weights; outcomes
    needing deeper coordinates accumulate in the tail, which is guaranteed
    <= j * 2^-depth.  `method` selects one of two independent evaluation
    orders that must agree exactly; "enumerate" refuses windows of more than
    `cap` points."""
    return _window_distribution(stage_window(params, n, depth), j, method, cap)
