"""Mobius orthogonality experiments along symbolic orbits.

A slice sieve produces the Mobius values as signed bytes: the primes come
from zeroing their multiples in a bytearray, the squarefree flags from
zeroing the p^2 strides, and the sign flips once per prime factor: one
stride per small prime, and one stride per multiplier m for all the large
primes at once, since each has fewer than 16 multiples in range.  Orbit
words come from random access into the block layout, so horizons far beyond
the materialization cap are feasible.  Partial averages are accumulated
exactly (rationals for rational-valued observables) and emitted on a
geometric grid of horizons.  The cylinder and prime-pair accumulators turn
the orbit word into one byte string of hit flags and count each grid segment
with `bytes.count`, so their sums are integer counts combined with the
center at grid points only.  Decay is reported, never "verified": the
vanishing of these averages is an asymptotic statement, so acceptance rests
on recorded regression baselines and trend diagnostics, not on the
conjecture.

The K-floor suspension pairs step n with floor (start_floor + n) % K and
base position (start_floor + n) // K, modelling a finite cyclic group of
eigenvalues.  An eigenfunction of the floor rotation depends on the floor
alone; a cylinder observable reads the base word and is centered by one
constant, since the floors carry equal measure.
"""

from __future__ import annotations

import cmath
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, cycle
from math import isqrt
from operator import add, getitem, mul

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
    "eigen_suspension_averages",
]

# byte tables: a Mobius value is stored as its low byte, so -1 is 0xff
_PRIME_TO_MU = bytes.maketrans(b"\x00\x01", b"\x01\xff")
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")
_PRIME_TO_FLIP = bytes.maketrans(b"\x01", b"\xfe")  # 0x01 ^ 0xfe == 0xff
# primes above limit // _SPLIT have fewer than _SPLIT multiples in range
_SPLIT = 16
_MATCH = {s: bytes(255 * (i == ord(s)) for i in range(256)) for s in "01"}


def mobius_sieve(limit):
    """mu(0..limit) as an array('b'), with mu(0) = 0, by slice sieving.

    Each n >= 1 starts at -1 if prime, else +1.  A prime p <= limit // _SPLIT
    negates its stride 2p, 3p, ...; for each m < _SPLIT, one XOR with 0xfe
    flips m * p for all the larger primes p at once.  The p^2 strides are
    zeroed last, so every flip meets a +-1."""
    if limit < 1:
        raise InputError("need limit >= 1")
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    mu = prime.translate(_PRIME_TO_MU)
    mu[0] = 0
    split = limit // _SPLIT
    for p in compress(range(split + 1), prime):
        mu[2 * p :: p] = mu[2 * p :: p].translate(_NEGATE)
    for m in range(2, _SPLIT):
        top = limit // m
        stride = slice(m * (split + 1), m * top + 1, m)  # m * p for split < p <= top
        mu[stride] = _xor(mu[stride], prime[split + 1 : top + 1].translate(_PRIME_TO_FLIP))
    for p in compress(range(isqrt(limit) + 1), prime):
        mu[p * p :: p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    return array("b", mu)


def mertens(mu, limit=None):
    """Sum of mu(1..limit); None sums the whole sieve."""
    if limit is None:
        limit = len(mu) - 1
    elif not 0 <= limit < len(mu):
        raise InputError(f"Mertens limit must lie in 0..{len(mu) - 1}")
    return sum(mu[1 : limit + 1])


# ----------------------------------------------------------------------------
# Orbits
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpec:
    """Base point of an orbit: a window of a deep block, optionally spliced.

    A plain spec reads from B_stage at 1-based `offset`.  A spliced spec
    realizes points near the all-spacers fixed point: the last `splice_suffix`
    symbols of B_stage, then `splice_ones` spacers, then a prefix of B_stage;
    it has no offset, so one other than 1 is refused.
    Spliced words need not belong to the language and are flagged as such.
    A suspension orbit's base starts here; the accumulators count its floors."""

    stage: int
    offset: int = 1
    splice_suffix: int = 0
    splice_ones: int = 0

    def __post_init__(self):
        if self.offset < 1 or self.stage < 1:
            raise InputError("stage and offset must be >= 1")
        if self.splice_suffix < 0 or self.splice_ones < 0:
            raise InputError("splice lengths must be >= 0")
        if self.spliced and self.offset != 1:
            raise InputError("a spliced orbit takes no offset")

    @property
    def spliced(self):
        return self.splice_suffix > 0 or self.splice_ones > 0


def orbit_word(dag: BlockDag, spec: OrbitSpec, length):
    """The first `length` symbols of the orbit's itinerary word."""
    if length < 1:
        raise InputError("need length >= 1")
    if not spec.spliced:
        _check_window(dag, spec, length)
        return dag.extract(spec.stage, spec.offset, length)
    h = dag.height(spec.stage)
    if spec.splice_suffix > h:
        raise RangeError("splice suffix longer than the block")
    parts = []
    take = min(spec.splice_suffix, length)
    parts.append(dag.extract(spec.stage, h - spec.splice_suffix + 1, take))
    remaining = length - take
    ones = min(spec.splice_ones, remaining)
    parts.append("1" * ones)
    remaining -= ones
    if remaining > h:
        raise RangeError("splice prefix longer than the block")
    parts.append(dag.extract(spec.stage, 1, remaining))
    return "".join(parts)


def _check_window(dag, spec, length):
    """Raise unless the plain orbit's first `length` symbols lie in B_stage."""
    end = spec.offset + length - 1
    if end > dag.height(spec.stage):
        raise RangeError(f"window [{spec.offset}, {end}] leaves B_{spec.stage}")


def _orbit_reach(floors, start_floor, horizon):
    """The number of word positions, 0..(start_floor + horizon) // floors, that a
    `floors`-floor suspension orbit spans in `horizon` steps; one floor is the plain orbit."""
    if floors < 1 or not 0 <= start_floor < floors:
        raise InputError("need floors >= 1 and 0 <= start_floor < floors")
    return (start_floor + horizon) // floors + 1


def geometric_grid(horizon):
    """Horizons ceil(N / 2^k), deduplicated, ascending."""
    if horizon < 1:
        raise InputError("need horizon >= 1")
    return sorted({-(-horizon >> k) for k in range(horizon.bit_length() + 1)})


def _grid_steps(horizon):
    """(N', steps since the previous grid point) for each N' of the geometric grid."""
    grid = geometric_grid(horizon)
    return [(point, range(prev + 1, point + 1)) for prev, point in zip([0] + grid, grid)]


def _check_weights(weights, horizon):
    if len(weights) <= horizon:
        raise InputError(f"need weights at steps 1..{horizon}")


def _signs(mu, horizon):
    """mu[1..horizon] as bytes, byte n - 1 holding step n's Mobius value as its
    low byte (-1 is 0xff); anything but an int -1, 0 or 1 is refused."""
    _check_weights(mu, horizon)
    weights = array("b")
    try:
        # extend, unlike the constructor, reads bytes as 0..255, not as signed bytes
        weights.extend(mu[1 : horizon + 1])
    except (OverflowError, TypeError) as exc:
        raise InputError("Mobius weights must be ints -1, 0 or 1") from exc
    signs = weights.tobytes()
    if signs.translate(None, b"\x00\x01\xff"):
        raise InputError("Mobius weights must be ints -1, 0 or 1")
    return signs


def _average(acc, point):
    """acc / point, exact unless the sum went complex."""
    return Fraction(acc, point) if isinstance(acc, (int, Fraction)) else acc / point


def partial_averages(values, weights, horizon):
    """Exact partial averages (1/N') * sum_{n<=N'} values[n] * weights[n].

    `values` is indexed from 1 (callable or sequence with [n]); accumulation
    is exact for int/Fraction values and complex otherwise.  Steps with a zero
    weight are skipped and the others add `acc = acc + values[n] * weights[n]`
    in step order, so float sums round the same way on every path.  This is
    the per-step reference that the integer-count accumulators and the
    eigenfunction averages below must match."""
    _check_weights(weights, horizon)
    get = values if callable(values) else values.__getitem__
    out = []
    acc = 0
    for point, steps in _grid_steps(horizon):
        w = weights[steps.start : steps.stop]
        acc = reduce(add, map(mul, map(get, compress(steps, w)), compress(w, w)), acc)
        out.append((point, _average(acc, point)))
    return out


def _signed_sum(data, start=0, end=None):
    """Sum of the Mobius values stored as bytes in data[start:end]."""
    return data.count(1, start, end) - data.count(255, start, end)


def _and(a, b):
    """Bytewise AND of two byte strings of one length."""
    return (int.from_bytes(a, "little") & int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _xor(a, b):
    """Bytewise XOR of two byte strings of one length."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _hit_flags(word, cylinder, length):
    """Byte i is 0xff where `cylinder` occurs in `word` at i and 0 elsewhere,
    for i < length; the word must reach length + |cylinder| - 1 symbols."""
    data = word.encode("ascii")
    return reduce(_and, (data[k : k + length].translate(_MATCH[symbol])
                         for k, symbol in enumerate(cylinder)))


def cylinder_sarnak_averages(word, cylinder, center, mu, horizon, floors=1, start_floor=0):
    """Mobius averages of a cylinder observable minus `center`, via integer counts.

    Step n of a `floors`-floor suspension orbit sits on floor (start_floor + n) % floors
    and reads word position (start_floor + n) // floors, so the partial sum splits into
    an integer hit sum and the Mertens sum, combined exactly at grid points only."""
    _check_word(cylinder)
    center = Fraction(center)
    reach = _orbit_reach(floors, start_floor, horizon)
    if len(word) < reach + len(cylinder) - 1:
        raise RangeError("orbit word too short for the horizon and window")
    segments = _grid_steps(horizon)
    signs = _signs(mu, horizon)
    hits = _hit_flags(word, cylinder, reach)
    # byte n - 1 of `stepped` flags a hit at the word position step n reads
    stepped = bytearray(horizon)
    for floor in range(floors):
        base = (start_floor + floor + 1) // floors
        stepped[floor::floors] = hits[base : base + len(range(floor, horizon, floors))]
    hit_signs = _and(signs, stepped)
    out = []
    hit_sum = mertens_sum = 0
    for point, steps in segments:
        hit_sum += _signed_sum(hit_signs, steps.start - 1, point)
        mertens_sum += _signed_sum(signs, steps.start - 1, point)
        out.append((point, Fraction(hit_sum - center * mertens_sum, point)))
    return out


def prime_power_averages(word, cylinder, center, p, q, horizon):
    """Partial averages of f(T^{pn} omega) * f(T^{qn} omega) for f centered.

    With hits h_p, h_q in {0, 1}, (h_p - c)(h_q - c) expands to
    h_p*h_q - c*(h_p + h_q) + c^2: two integer counts, combined exactly only
    at grid points.  p and q must be distinct and >= 1 (primes in the
    intended use); the orbit word must reach max(p, q) * horizon plus the
    window."""
    _check_word(cylinder)
    if p < 1 or q < 1:
        raise InputError("p and q must be >= 1")
    if p == q:
        raise InputError("need two different primes")
    center = Fraction(center)
    need = max(p, q) * horizon + len(cylinder)
    if len(word) < need:
        raise RangeError(f"orbit word must cover {need} symbols")
    segments = _grid_steps(horizon)
    hits = _hit_flags(word, cylinder, max(p, q) * horizon + 1)
    hits_p = hits[: p * horizon + 1 : p]  # byte n flags a hit at word position p * n
    hits_q = hits[: q * horizon + 1 : q]
    hits_pq = _and(hits_p, hits_q)
    out = []
    both = either = 0
    for point, steps in segments:
        both += hits_pq.count(255, steps.start, steps.stop)
        either += hits_p.count(255, steps.start, steps.stop)
        either += hits_q.count(255, steps.start, steps.stop)
        out.append((point, Fraction(both - center * either + point * center * center, point)))
    return out


# ----------------------------------------------------------------------------
# Suspension orbits
# ----------------------------------------------------------------------------


def eigen_suspension_averages(K, power, mu, horizon, start_floor=0):
    """Mobius averages of the floor-rotation eigenfunction exp(2*pi*i*power*f/K).

    Step n sits on floor f = (start_floor + n) % K of the K-floor suspension
    orbit; the eigenfunction reads the floor alone, never the orbit word.
    The weights mu[1..horizon] must be Mobius values -1, 0 or 1.  Floor f
    has a row holding table[f] * 1 at byte 0x01 and table[f] * -1 at byte
    0xff, so each step adds the product `partial_averages` adds, in its
    order, and the averages match it bit for bit."""
    _orbit_reach(K, start_floor, horizon)  # refuses a start floor outside 0..K-1
    segments = _grid_steps(horizon)
    signs = _signs(mu, horizon)
    table = [cmath.exp(2j * cmath.pi * power * f / K) for f in range(K)]
    rows = [[None, v * 1, *[None] * 253, v * -1] for v in table]  # indexed by signed byte
    out = []
    acc = 0
    for point, steps in segments:
        first = (start_floor + steps.start) % K
        floors = cycle(rows[first:] + rows[:first])
        seg = signs[steps.start - 1 : steps.stop - 1]
        acc = reduce(add, compress(map(getitem, floors, seg), seg), acc)
        out.append((point, _average(acc, point)))
    return out
