"""Mobius orthogonality experiments along symbolic orbits.

Every accumulator walks its horizon in segments of SEGMENT steps and carries
its running integer counts (the eigen sum: its complex accumulator, in step
order) from one segment to the next, so no buffer as long as the horizon is
held.  A segment's Mobius values come as signed bytes from one sieve
segment, decided by the parity and size of one byte sum of odd base-prime
weights per number (see `mobius_sieve`), and its orbit symbols from one
layout descent of an `OrbitWord`, so horizons far beyond the materialization
cap are feasible.  The cylinder and prime-pair accumulators take a segment's
hit flags, one byte per step, from the word kernel that also serves the
exact counts and the sampler's tables (`blocks._flags`), and count each grid
piece by popcounts of its bytes read as one int: Mobius weights 0b11, 0b01
and 0 give sum(mu) = W.bit_count() - L over L steps, and ANDed with the
0xff hit flags H, the hit sum (W & H).bit_count() - H.bit_count() // 8.
Their sums are integer counts combined with the center at grid points only.
The eigen sum folds one code byte per nonzero step, 2r + 1 or 2r + 2 for
mu(n) = 1 or -1, r < 127 being its floor counted from the first step of its
run (a grid piece, cut every 127 steps past K = 127 floors).
Partial averages are exact (rationals for rational-valued observables) and
emitted on a geometric grid of horizons.
Decay is reported, never "verified": the vanishing of these averages is an
asymptotic statement, so acceptance rests on recorded regression baselines
and trend diagnostics, not on the conjecture.

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
from itertools import compress
from math import gcd, isqrt
from operator import add

from .blocks import SEGMENT, BlockDag, _check_word, _flags
from .errors import InputError, RangeError

__all__ = [
    "mobius_sieve",
    "mertens",
    "OrbitSpec",
    "OrbitWord",
    "orbit_word",
    "geometric_grid",
    "cylinder_sarnak_averages",
    "prime_power_averages",
    "eigen_suspension_averages",
]

def mobius_sieve(limit):
    """mu(0..limit) as an array('b'), with mu(0) = 0: the join of the
    segments of `_mobius_segments`, the one sieve behind every accumulator.

    A segment [L, R) starts at byte sums S = 0, and each base prime
    p <= s = isqrt(limit) adds its odd weight w_p, floor(4 log2 p) rounded
    down to an odd number, to the sums of its multiples, so S mod 2 counts
    the base primes of n (the sums wrap modulo 256, which keeps the parity).
    A squarefree n in [L, R) is P * m, where P is the product of its base
    primes and m is 1 or one prime above s (two would exceed the limit), so
    mu(n) = (-1)^(S + f) with f = [m > s].  Since 4 log2 p - 2 < w_p
    <= 4 log2 p, and P has at most omega_max prime factors (the most any
    n <= limit has), 4 log2 P - 2 omega_max < S <= 4 log2 P for P > 1.  Let
    c >= 1 be least with R^4 <= (s + 1)^4 * 2^c, and x the least n with
    floor(4 log2 n) >= c + 2 omega_max.  If m > s, then P < R / (s + 1), so
    S < c.  If m = 1 and n >= x, then P = n and S > 4 log2 n - 2 omega_max
    >= c.  So on [max(L, x), R) f = [S < c], read with S's parity from one
    256-entry table; R < 2^64 keeps S <= 4 log2 n below 256, and a segment
    with R >= 2^64 takes x = R.  Below x, a stretch only near the start of
    the sieve, each n has its base primes divided out as a Python int
    instead, and f = [a cofactor above 1 is left].  The p^2 strides are
    zeroed last, over whatever sign a non-squarefree n was given."""
    mu = array("b", b"\0")
    for segment in _mobius_segments(limit):
        mu.frombytes(segment)
    return mu


def _mobius_segments(limit):
    """mu(1..limit) as bytes (-1 is 0xff), SEGMENT numbers at a time."""
    if limit < 1:
        raise InputError("need limit >= 1")
    root = isqrt(limit)
    prime = bytearray([1]) * (root + 1)
    for p in range(2, isqrt(root) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    base = []  # each base prime p <= root with its table adding w_p to a byte
    for p in compress(range(2, root + 1), prime[2:]):
        w = (p**4).bit_length() - 2 | 1  # floor(4 log2 p), rounded down to odd
        base.append((p, bytes(range(w, 256)) + bytes(range(w))))
    omega, product, m = 0, 1, 2  # omega_max: the longest primorial 2*3*5*... <= limit
    while product * m <= limit:
        if gcd(product, m) == 1:  # product holds every prime below m, so m is prime
            omega, product = omega + 1, product * m
        m += 1
    for lo in range(1, limit + 1, SEGMENT):
        yield _sieve_segment(lo, min(lo + SEGMENT, limit + 1), base, root, omega)


def _sieve_segment(lo, hi, base, root, omega):
    """mu(lo..hi-1) as bytes for 1 <= lo < hi, from the base primes p <= root."""
    size = hi - lo
    sums = bytearray(size)
    for p, add_weight in base:
        first = -lo % p
        sums[first::p] = sums[first::p].translate(add_weight)
    c = max(1, ((hi**4 - 1) // (root + 1) ** 4).bit_length())
    x = hi  # byte sums decide [x, hi), x the least n >= lo with n^4 >= 2^(c + 2 omega)
    if hi.bit_length() <= 64:
        x = min(max(isqrt(isqrt((1 << c + 2 * omega) - 1)) + 1, lo), hi)
    mu = sums.translate(bytes(255 if (s + (s < c)) % 2 else 1 for s in range(256)))
    if x > lo:
        mu[: x - lo] = _cofactor_signs(lo, x, base, sums)
    for p, _ in base:
        if p * p >= hi:
            break
        first = -lo % (p * p)
        mu[first :: p * p] = bytes(len(range(first, size, p * p)))
    return mu


def _cofactor_signs(lo, hi, base, sums):
    """(-1)^(S + f) as bytes for n in [lo, hi), S = sums[n - lo] and f = 1
    where n keeps a cofactor above 1 once each base prime dividing it is
    divided out once: the exact path below a segment's byte-sum threshold."""
    rest = list(range(lo, hi))
    for p, _ in base:
        first = -lo % p
        rest[first::p] = [n // p for n in rest[first::p]]
    return bytes(255 if (s + (n > 1)) % 2 else 1 for n, s in zip(rest, sums))


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


class OrbitWord:
    """The first `length` symbols of the orbit's itinerary word, read on
    demand: `len` and slices [lo:hi] give what they give on the str
    `orbit_word` returns, each piece of a slice by one `BlockDag._extract`
    descent.  The window is checked once, here."""

    def __init__(self, dag: BlockDag, spec: OrbitSpec, length):
        if length < 1:
            raise InputError("need length >= 1")
        self.dag, self.stage, self.length = dag, spec.stage, length
        # pieces (start, end, shift): word position i in [start, end) reads
        # 0-based position i + shift of B_stage, or a spacer if shift is None
        if not spec.spliced:
            end = spec.offset + length - 1
            if end > dag.height(spec.stage):
                raise RangeError(f"window [{spec.offset}, {end}] leaves B_{spec.stage}")
            self.pieces = ((0, length, spec.offset - 1),)
            return
        h = dag.height(spec.stage)
        if spec.splice_suffix > h:
            raise RangeError("splice suffix longer than the block")
        take = min(spec.splice_suffix, length)
        ones = take + min(spec.splice_ones, length - take)
        if length - ones > h:
            raise RangeError("splice prefix longer than the block")
        # the block's last symbols, then spacers, then its first symbols
        self.pieces = ((0, take, h - spec.splice_suffix), (take, ones, None),
                       (ones, length, -ones))

    def __len__(self):
        return self.length

    def __getitem__(self, key):
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise InputError("an orbit word is read in contiguous slices only")
        lo, hi, _ = key.indices(self.length)
        return "".join(
            "1" * (b - a) if shift is None else self.dag._extract(self.stage, a + shift, b + shift)
            for start, end, shift in self.pieces
            for a, b in [(max(start, lo), min(end, hi))]
            if a < b
        )


def orbit_word(dag: BlockDag, spec: OrbitSpec, length):
    """The first `length` symbols of the orbit's itinerary word."""
    return OrbitWord(dag, spec, length)[:]


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


def _steps(horizon, size):
    """Steps 1..horizon in segments [lo, hi) of `size` steps: (lo, hi, pieces)
    for each, where pieces (a, b, point) cut the offsets [0, hi - lo) at the
    geometric grid, `point` being the grid point that ends a piece, or None."""
    grid = geometric_grid(horizon)
    for lo in range(1, horizon + 1, size):
        hi = min(lo + size, horizon + 1)
        pieces, a = [], 0
        for point in grid:
            if lo <= point < hi:
                pieces.append((a, point + 1 - lo, point))
                a = point + 1 - lo
        if a < hi - lo:
            pieces.append((a, hi - lo, None))
        yield lo, hi, pieces


# Mobius bytes (1, 0, 0xff) to bit weights 0b11, 0b01 and 0, whose popcount
# over L steps is L + their Mobius sum
_WEIGHT = bytes([1, 3]) + bytes(254)
# Mobius bytes to the nonzero mask 0xff and to the eigen sign codes 1 and 2
_NONZERO = bytes([0]) + b"\xff" * 255
_SIGN_CODE = bytes([0, 1]) + bytes(253) + bytes([2])


def cylinder_sarnak_averages(word, cylinder, center, horizon, floors=1, start_floor=0):
    """Mobius averages of a cylinder observable minus `center`, via integer counts.

    Step n of a `floors`-floor suspension orbit sits on floor (start_floor + n) % floors
    and reads word position (start_floor + n) // floors.  `word` is a str or an
    `OrbitWord`; mu(n) is sieved segment by segment alongside.  The partial
    sum splits into an integer hit sum and the Mertens sum, carried across
    segments as popcounts (see the module docstring) and combined exactly at
    grid points only."""
    _check_word(cylinder)
    center = Fraction(center)
    reach = _orbit_reach(floors, start_floor, horizon)
    if len(word) < reach + len(cylinder) - 1:
        raise RangeError("orbit word too short for the horizon and window")
    out = []
    hit_sum = mertens_sum = 0
    for (lo, hi, pieces), signs in zip(_steps(horizon, SEGMENT), _mobius_segments(horizon)):
        first = (start_floor + lo) // floors
        span = (start_floor + hi - 1) // floors - first + 1
        hits = _flags(word[first : first + span + len(cylinder) - 1], cylinder, "", 0, 0, span)
        # byte i of `stepped` flags a hit at the word position step lo + i reads
        stepped = bytearray(hi - lo)
        for floor in range(min(floors, hi - lo)):
            base = (start_floor + lo + floor) // floors - first
            stepped[floor::floors] = hits[base : base + len(range(floor, hi - lo, floors))]
        weights = signs.translate(_WEIGHT)
        for a, b, point in pieces:
            w = int.from_bytes(weights[a:b], "little")
            h = int.from_bytes(stepped[a:b], "little")
            hit_sum += (w & h).bit_count() - h.bit_count() // 8
            mertens_sum += w.bit_count() - (b - a)
            if point:
                out.append((point, Fraction(hit_sum - center * mertens_sum, point)))
    return out


def prime_power_averages(word, cylinder, center, p, q, horizon):
    """Partial averages of f(T^{pn} omega) * f(T^{qn} omega) for f centered.

    With hits h_p, h_q in {0, 1}, (h_p - c)(h_q - c) expands to
    h_p*h_q - c*(h_p + h_q) + c^2: two integer counts, carried across
    segments of SEGMENT // max(p, q) steps as popcounts of the hit flags
    (0xff per hit) read as ints, and combined exactly only at grid points.
    p and q must be distinct and >= 1 (primes in the intended use);
    the orbit word (a str or an `OrbitWord`) must reach max(p, q) * horizon
    plus the window."""
    _check_word(cylinder)
    if p < 1 or q < 1:
        raise InputError("p and q must be >= 1")
    if p == q:
        raise InputError("need two different primes")
    center = Fraction(center)
    need = max(p, q) * horizon + len(cylinder)
    if len(word) < need:
        raise RangeError(f"orbit word must cover {need} symbols")
    out = []
    both = either = 0
    for lo, hi, pieces in _steps(horizon, max(1, SEGMENT // max(p, q))):
        # byte i flags a hit at word position p * (lo + i), resp. q * (lo + i)
        hits_p, hits_q = (_flags(word[s * lo : s * (hi - 1) + len(cylinder)], cylinder, "", 0,
                                 0, hi - lo, s) for s in (p, q))
        for a, b, point in pieces:
            h_p, h_q = (int.from_bytes(hits[a:b], "little") for hits in (hits_p, hits_q))
            both += (h_p & h_q).bit_count() // 8
            either += (h_p.bit_count() + h_q.bit_count()) // 8
            if point:
                out.append((point, Fraction(both - center * either + point * center * center,
                                            point)))
    return out


# ----------------------------------------------------------------------------
# Suspension orbits
# ----------------------------------------------------------------------------


def eigen_suspension_averages(K, power, horizon, start_floor=0):
    """Mobius averages of the floor-rotation eigenfunction exp(2*pi*i*power*f/K).

    Step n sits on floor f = (start_floor + n) % K of the K-floor suspension
    orbit; the eigenfunction reads the floor alone, never the orbit word.
    mu(n) is sieved segment by segment, and each step with mu(n) != 0 adds
    table[f] * mu(n) to the complex accumulator, in step order across
    segments, so float sums round the same way as the per-step loop.  Each
    grid piece is cut into runs, whole for K <= 127 and of 127 steps beyond.
    A step's code byte is 2r + 1 where mu(n) = 1, 2r + 2 where mu(n) = -1
    and 0 where mu(n) = 0, for r < 127 its floor counted from its run's first
    step: the pattern 2r, masked to the nonzero steps, plus the sign codes,
    in one int addition that no byte carries out of.  A run's nonzero codes
    index the addends table[f] * (1, -1) from its first floor on.
    mu(1) = 1, so the sum is complex from step 1 on."""
    _orbit_reach(K, start_floor, horizon)  # refuses a start floor outside 0..K-1
    table = [cmath.exp(2j * cmath.pi * power * f / K) for f in range(K)]
    addends = [None, *(v * sign for v in table * 2 for sign in (1, -1))]  # 2f + 1, 2f + 2
    run = SEGMENT if K < 128 else 127
    floors = bytes(range(0, 254, 2)[:K]) * (SEGMENT // min(K, 127) + 1)  # 2r
    out = []
    acc = 0
    for (lo, hi, pieces), signs in zip(_steps(horizon, SEGMENT), _mobius_segments(horizon)):
        for a, b, point in pieces:
            seg = signs[a:b]
            codes = ((int.from_bytes(floors[: b - a], "little")
                      & int.from_bytes(seg.translate(_NONZERO), "little"))
                     + int.from_bytes(seg.translate(_SIGN_CODE), "little"))
            codes = codes.to_bytes(b - a, "little")
            for i in range(0, b - a, run):
                first = 2 * ((start_floor + lo + a + i) % K)
                acc = _fold(addends[first : first + 255], codes[i : i + run], acc)  # codes <= 254
            if point:
                out.append((point, acc / point))
    return out


def _fold(addends, codes, acc):
    """acc plus addends[c] for each nonzero code c, added in order."""
    return reduce(add, map(addends.__getitem__, codes.translate(None, b"\0")), acc)
