"""Mobius orthogonality experiments along symbolic orbits.

A linear sieve produces the Mobius values; orbit words come from random
access into the block layout, so horizons far beyond the materialization cap
are feasible.  Partial averages are accumulated exactly (rationals for
rational-valued observables) and emitted on a geometric grid of horizons.
Decay is reported, never "verified": the vanishing of these averages is an
asymptotic statement, so acceptance rests on recorded regression baselines
and trend diagnostics, not on the conjecture.

The K-floor suspension pairs each orbit position with a cyclic floor index,
modelling a finite cyclic group of eigenvalues with continuous
eigenfunctions; observables split into per-floor cylinder functions, and the
floorwise means can be subtracted exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .blocks import BlockDag, _check_word
from .errors import InputError, RangeError

__all__ = [
    "mobius_sieve",
    "mertens",
    "OrbitSpec",
    "orbit_word",
    "geometric_grid",
    "partial_averages",
    "cylinder_sarnak_averages",
    "prime_power_averages",
    "suspension_values",
    "EigenObservable",
    "FloorCylinderObservable",
    "floor_means",
]


def mobius_sieve(limit):
    """mu(1..limit) by a linear sieve; index 0 is unused."""
    if limit < 1:
        raise InputError("need limit >= 1")
    mu = [0] * (limit + 1)
    mu[1] = 1
    primes = []
    composite = bytearray(limit + 1)
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            composite[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return mu


def mertens(mu, limit=None):
    """Sum of mu(1..limit)."""
    return sum(mu[1 : (limit or len(mu) - 1) + 1])


# ----------------------------------------------------------------------------
# Orbits
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpec:
    """Base point of an orbit: a window of a deep block, optionally spliced.

    A plain spec reads from B_stage at 1-based `offset`.  A spliced spec
    realizes points near the all-spacers fixed point: the last `splice_suffix`
    symbols of B_stage, then `splice_ones` spacers, then a prefix of B_stage.
    Spliced words need not belong to the language and are flagged as such.
    `floors` >= 2 with `start_floor` selects a suspension orbit."""

    stage: int
    offset: int = 1
    splice_suffix: int = 0
    splice_ones: int = 0
    floors: int = 1
    start_floor: int = 0

    def __post_init__(self):
        if self.offset < 1 or self.stage < 1:
            raise InputError("stage and offset must be >= 1")
        if self.splice_suffix < 0 or self.splice_ones < 0:
            raise InputError("splice lengths must be >= 0")
        if self.floors < 1 or not 0 <= self.start_floor < self.floors:
            raise InputError("need floors >= 1 and 0 <= start_floor < floors")

    @property
    def spliced(self):
        return self.splice_suffix > 0 or self.splice_ones > 0


def orbit_word(dag: BlockDag, spec: OrbitSpec, length):
    """The first `length` symbols of the orbit's itinerary word."""
    if length < 1:
        raise InputError("need length >= 1")
    h = dag.height(spec.stage)
    if not spec.spliced:
        if spec.offset + length - 1 > h:
            raise RangeError(
                f"window [{spec.offset}, {spec.offset + length - 1}] leaves B_{spec.stage}"
            )
        return dag.extract(spec.stage, spec.offset, length)
    if spec.splice_suffix > h:
        raise RangeError("splice suffix longer than the block")
    parts = []
    take = min(spec.splice_suffix, length)
    parts.append(dag.extract(spec.stage, h - spec.splice_suffix + 1, take))
    remaining = length - take
    ones = min(spec.splice_ones, remaining)
    parts.append("1" * ones)
    remaining -= ones
    if remaining:
        if remaining > h:
            raise RangeError("splice prefix longer than the block")
        parts.append(dag.extract(spec.stage, 1, remaining))
    return "".join(parts)


def geometric_grid(horizon):
    """Horizons ceil(N / 2^k), deduplicated, ascending."""
    if horizon < 1:
        raise InputError("need horizon >= 1")
    grid = set()
    k = 0
    while True:
        n = -(-horizon // (2 ** k))
        grid.add(n)
        if n == 1:
            break
        k += 1
    return sorted(grid)


def _grid_steps(horizon, grid):
    """(N', steps since the previous grid point) for each point of the sorted,
    deduplicated grid (default: geometric), all of which must lie in 1..horizon."""
    grid = sorted(set(grid or geometric_grid(horizon)))
    if grid[0] < 1 or grid[-1] > horizon:
        raise InputError("grid points must lie in 1..horizon")
    prev = 0
    for point in grid:
        yield point, range(prev + 1, point + 1)
        prev = point


def partial_averages(values, weights, horizon, grid=None):
    """Exact partial averages (1/N') * sum_{n<=N'} values[n] * weights[n].

    `values` is indexed from 1 (callable or sequence with [n]); accumulation
    is exact for int/Fraction values and complex otherwise.  This is the
    per-step reference the integer-count accumulators below must match."""
    get = values if callable(values) else values.__getitem__
    out = []
    acc = 0
    for point, steps in _grid_steps(horizon, grid):
        for n in steps:
            w = weights[n]
            if w:
                acc = acc + get(n) * w
        avg = Fraction(acc, point) if isinstance(acc, (int, Fraction)) else acc / point
        out.append((point, avg))
    return out


def cylinder_sarnak_averages(word, cylinder, center, mu, horizon, grid=None, start_floor=0):
    """Mobius averages of a centered cylinder observable, via integer counts.

    `center` is one rational, or one per floor of a K-floor suspension orbit.
    Step n sits on floor (start_floor + n) % K and reads word position
    (start_floor + n) // K, so the partial sum splits into an integer hit sum
    and one Mertens counter per floor, combined exactly at grid points only."""
    _check_word(cylinder)
    centers = [Fraction(c) for c in (center if isinstance(center, (list, tuple)) else [center])]
    K = len(centers)
    if not 0 <= start_floor < K:
        raise InputError("need 0 <= start_floor < number of floors")
    if len(word) < (start_floor + horizon) // K + len(cylinder):
        raise RangeError("orbit word too short for the horizon and window")
    out = []
    hit_sum = 0
    mertens_by_floor = [0] * K
    for point, steps in _grid_steps(horizon, grid):
        for n in steps:
            m = mu[n]
            if m and word.startswith(cylinder, (start_floor + n) // K):
                hit_sum += m
        for floor in range(K):
            first = steps.start + (floor - start_floor - steps.start) % K
            mertens_by_floor[floor] += sum(mu[first : point + 1 : K])
        centered = hit_sum - sum(c * s for c, s in zip(centers, mertens_by_floor))
        out.append((point, Fraction(centered, point)))
    return out


def prime_power_averages(word, cylinder, center, p, q, horizon, grid=None):
    """Partial averages of f(T^{pn} omega) * f(T^{qn} omega) for f centered.

    With hits h_p, h_q in {0, 1}, (h_p - c)(h_q - c) expands to
    h_p*h_q - c*(h_p + h_q) + c^2: two integer counts, combined exactly only
    at grid points.  p and q must differ (primes in the intended use); the
    orbit word must reach max(p, q) * horizon plus the window."""
    _check_word(cylinder)
    if p == q:
        raise InputError("need two different primes")
    center = Fraction(center)
    need = max(p, q) * horizon + len(cylinder)
    if len(word) < need:
        raise RangeError(f"orbit word must cover {need} symbols")
    out = []
    both = either = 0
    for point, steps in _grid_steps(horizon, grid):
        for n in steps:
            hp = word.startswith(cylinder, p * n)
            hq = word.startswith(cylinder, q * n)
            both += hp and hq
            either += hp + hq
        out.append((point, Fraction(both - center * either + point * center * center, point)))
    return out


# ----------------------------------------------------------------------------
# Suspension orbits
# ----------------------------------------------------------------------------


def suspension_values(dag, spec: OrbitSpec, observable, horizon):
    """Values of a floor-aware observable along the suspension orbit.

    Step n sits on floor (start_floor + n) mod K with the base advanced by
    (start_floor + n) // K.  `observable` maps (word, base_position, floor)
    to a value; base positions are 0-based into the orbit word."""
    K = spec.floors
    base_steps = (spec.start_floor + horizon) // K
    word = orbit_word(dag, spec, base_steps + getattr(observable, "window", 1) + 1)
    values = [None] * (horizon + 1)
    for n in range(1, horizon + 1):
        total = spec.start_floor + n
        values[n] = observable(word, total // K, total % K)
    return values


class EigenObservable:
    """Pure eigenfunction of the floor rotation: value exp(2*pi*i*j*floor/K)."""

    window = 1

    def __init__(self, K, power=1):
        self.K = K
        self.power = power
        self._table = [cmath.exp(2j * cmath.pi * power * i / K) for i in range(K)]

    def __call__(self, word, base_pos, floor):
        return self._table[floor]


class FloorCylinderObservable:
    """Cylinder indicator on selected floors, with exact per-floor centering."""

    def __init__(self, cylinder, floor_centers):
        _check_word(cylinder)
        self.cylinder = cylinder
        self.window = len(cylinder)
        self.floor_centers = [Fraction(c) for c in floor_centers]

    def __call__(self, word, base_pos, floor):
        hit = int(word.startswith(self.cylinder, base_pos))
        return hit - self.floor_centers[floor]


def floor_means(dag, stage, cylinder, K):
    """Per-floor means of a cylinder indicator under the product measure:
    the block frequency on every floor (the floors are measure-uniform)."""
    f = dag.frequency(cylinder, stage).frequency
    return [f] * K
