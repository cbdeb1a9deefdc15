"""Building blocks of the symbolic model, without materializing them.

B_1 = "0" and B_{n+1} = B_n 1^{s_{n,0}} B_n 1^{s_{n,1}} ... B_n 1^{s_{n,p_n-1}},
so |B_n| equals the tower height h_n.  Blocks beyond the materialization cap
are handled through their recursive layout: random access, range extraction
and exact counts of words, of word pairs at a lag and of all windows of one
length descend the layout instead of building the word.  Word frequencies are
exact rationals count / (h_n - |W| + 1).

Spacer symbols carry an order: the stage at which the run containing them was
inserted.  The ABC decomposition below splits a window of the subshift into a
prefix and suffix covered by disjoint canonical blocks of stage >= ell plus at
most one spacer run containing the very-high-order spacers, with the
uncovered letter count controlled once the window is long enough.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, compress, count, islice, repeat, takewhile
from operator import add, floordiv, ge, getitem, le, mod, not_, sub

from .construction import ConstructionParams, _rising_heights, heights, spacer_stats
from .errors import InputError, RangeError, Refusal

DEFAULT_CAP = 10_000_000
PREFIX_LIMIT = 1 << 17
_FLAT = 1 << 14  # copies of its lower block a flat level of the sampler holds, at most
_CHUNK = 1 << 11  # draws the sampler settles together


def _check_word(word):
    if not isinstance(word, str) or not word or word.strip("01"):
        raise InputError("words must be non-empty strings over {0,1}")


# starts per chunk of `count_overlapping`; `sarnak` takes it as the steps per
# accumulator segment and the numbers per sieve segment
SEGMENT = 1 << 16

_MATCH = {s: bytes(255 * (i == ord(s)) for i in range(256)) for s in "01"}


def _and(a, b):
    """Bytewise AND of two byte strings of one length."""
    return (int.from_bytes(a, "little") & int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _flags(text, w1, w2, lag, start, size, stride=1):
    """The one word-matching kernel: byte i is 0xff where `w1` sits at
    start + stride * i of `text` and `w2` sits `lag` symbols later, else 0,
    for i < size.  `text` must hold every letter read; "#" matches neither
    symbol.  Each letter reads only its own slice of `text`, one symbol per
    start, and `bytes.translate` turns it into flags; the letters' flags are
    ANDed as they come, so two flag strings are held at once, not one per
    letter."""
    end = stride * (size - 1) + 1
    return reduce(_and, (text[k : k + end : stride].encode().translate(_MATCH[c])
                         for k, c in [*enumerate(w1, start), *enumerate(w2, start + lag)]))


def count_overlapping(text, w1, w2="", lag=0):
    """Positions i of `text` with `w1` at i and `w2` at i + lag, both inside
    `text`; overlaps included.  With the default empty `w2` this counts the
    occurrences of `w1`.  The kernel's flags are counted SEGMENT starts at a
    time, so no buffer longer than a chunk is built beside `text`."""
    if lag < 0:
        raise InputError("the lag must be >= 0")
    starts = len(text) - max(len(w1), lag + len(w2) if w2 else 0) + 1
    return sum(_flags(text, w1, w2, lag, a, min(SEGMENT, starts - a)).count(255)
               for a in range(0, starts, SEGMENT))


def _hit_table(text, w1, w2, lag):
    """One byte per position of `text`: 1 at each start `count_overlapping`
    counts, else 0; the kernel's flags as 0/1 bytes, padded with 0s to
    len(text)."""
    starts = max(len(text) - max(len(w1), lag + len(w2) if w2 else 0) + 1, 0)
    hits = _flags(text, w1, w2, lag, 0, starts).translate(bytes(255) + b"\1")
    return hits + bytes(len(text) - starts)


def _get(table, indexes):
    """`table[i]` for each i of `indexes`, lazily: `getitem` on a repeated
    table outruns the bound `__getitem__` of a list or bytes."""
    return map(getitem, repeat(table), indexes)


def _reader(dag, w1, w2, lag, span):
    """The per-sample read: whether w1 sits at i of B_n and w2 at i + lag,
    by one `_locate` of their span; unchecked, the span lies in B_n."""
    locate, extract, prefix = dag._locate, dag._extract, dag._prefix
    limit, ones = len(prefix), "0" not in w1 + w2

    def read(n, i):
        m, lo, hi = locate(n, i, i + span)
        if not m:  # inside a spacer run
            return ones
        if hi <= limit:
            return prefix.startswith(w1, lo) and prefix.startswith(w2, lo + lag)
        return (extract(m, lo, lo + len(w1)) == w1
                and extract(m, lo + lag, lo + lag + len(w2)) == w2)

    return read


def _level(dag, n, k, span, table, read):
    """The settler of one flat level, B_n as copies of B_k each followed by
    its gap, the run of "1"s that sums the trailing spacer runs of the blocks
    the copy ends: it takes offsets in B_n and returns the offsets in B_k of
    those whose span stays inside a copy, with the hits of the rest.  Those
    are read from the hit table (`table`) of tail + "1" * gap + head, the
    last and first span - 1 symbols of B_k, one per distinct gap, shortest
    first while their total fits under the cap; a gap left without one is
    read by `read`.

    Copies start at least h_k apart, so a draw's copy is the one its bucket
    lo // h_k starts in, or the next: the offset from the bucket's copy start
    modulo that copy's period (h_k + its gap).  `read` takes every draw where
    no span fits in B_k, or where the gaps fill half of B_n or more, which
    would make twice as many buckets as copies."""
    h = dag._heights[k]
    gaps = [0]
    for j in range(k + 1, n + 1):
        row, c = dag._layout[j][1], len(gaps)
        gaps *= len(row)
        gaps[c - 1::c] = map(add, gaps[c - 1::c], row)
    if span > h or dag._heights[n] // h >= 2 * len(gaps):
        return lambda los: ([], sum(map(read, repeat(n), los)))
    starts = list(accumulate(map(add, gaps, repeat(h)), initial=0))
    # bucket b belongs to the last copy c with c * h + (the gaps before c)
    # <= b * h: each copy opens one bucket, and each multiple e * h the gaps
    # run past adds one to the last copy c_e whose gaps before it stay within
    # it, at c_e + 1 + e
    spill = list(accumulate(gaps, initial=0))
    opens = bytearray(b"\1") * (len(gaps) + -(-spill[-1] // h))
    for b in map(add, map(bisect_right, repeat(spill), range(0, spill[-1], h)), count()):
        opens[b] = 0
    idx = list(islice(accumulate(opens, initial=-1), 1, None))
    base = list(_get(starts, idx))
    period = list(map(add, _get(gaps, idx), repeat(h)))
    tail, head = dag._extract(k, h - span + 1, h), dag._extract(k, 0, span - 1)
    at, tables, size, distinct = {}, [], 0, sorted(set(gaps))
    for g in distinct:
        if size + 2 * span - 2 + g > dag.cap:
            break
        at[g] = size - (h - span + 1)  # a seam draw's table index less its offset
        tables.append(table(tail + "1" * g + head))
        size += 2 * span - 2 + g
    seam, lost = b"".join(tables), len(at) < len(distinct)

    def settle(los):
        bs = list(map(floordiv, los, repeat(h)))
        raw = list(map(sub, los, _get(base, bs)))
        per = list(_get(period, bs))
        rs = list(map(mod, raw, per))
        inside = list(map(le, rs, repeat(h - span)))
        down = list(compress(rs, inside))
        if len(down) == len(rs):
            return down, 0
        out = list(map(not_, inside))
        # the bucket's copy, or the next one when the offset passed its period
        cs = map(add, _get(idx, compress(bs, out)), map(ge, compress(raw, out), compress(per, out)))
        gs, rs = list(_get(gaps, cs)), compress(rs, out)
        if not lost:
            return down, sum(_get(seam, map(add, map(at.__getitem__, gs), rs)))
        return down, sum(seam[at[g] + r] if g in at else read(n, lo)
                         for g, r, lo in zip(gs, rs, compress(los, out)))

    return settle


def _runs(cuts):
    """Stages per flat level, from the cuts of the stages above the prefix
    block, both top first: the fewest levels of at most _FLAT copies (a
    stage with more is a level alone), each closed once it holds the L-th
    root of all the copies, so they come out even.  Chacon's 20 stages above
    B_11 make 7 + 7 + 6 where filled levels would make 8 + 8 + 4, with twice
    3^8 copies to index."""
    def split(full):
        runs = []  # [stages, copies]
        for p in cuts:
            if runs and not full(runs[-1][1]) and runs[-1][1] * p <= _FLAT:
                runs[-1][0] += 1
                runs[-1][1] *= p
            else:
                runs.append([1, p])
        return runs

    root = math.exp(sum(map(math.log, cuts)) / max(len(split(lambda copies: False)), 1))
    return [stages for stages, _ in split(lambda copies: copies >= root)]


@dataclass(frozen=True)
class CylinderMeasureEstimate:
    word: str
    stage: int
    count: int
    denominator: int
    frequency: Fraction


class BlockDag:
    """Recursive view of the building blocks of one construction.

    The layout table holds the heights h_n indexed by stage and, for each
    stage n >= 2, the start offsets of the p_{n-1} copies of B_{n-1} inside
    B_n with the spacer row that follows them.  `height(n)` extends it
    through stage n on first read, so a call pays for the stages it reads,
    not for the depth of the construction.  Two readers use the start
    offsets: `_locate` descends a stage by one bisection while its range
    stays inside one piece, and `segments` splits a range into pieces.
    `_extract` reads a range where `_locate` leaves it, and `_sampled_hits`
    settles a sampled correlation's draws through tables over the layout.
    Counts read the spacer rows alone, through one seam walker: `_seams` joins
    each stage's row, its pieces cut down to their edges, into one seam string,
    and both `_count` (words, word pairs) and `window_counts` (all windows of
    one length) read what it yields.

    Every block begins with the block before it, so B_1, B_2, ... are
    prefixes of one limit word.  `_prefix` is the deepest block of at most
    PREFIX_LIMIT symbols whatever the cap; reads (`_locate`, `_extract`, the
    sampler) slice it for ranges ending within it; counts skip it.  Nothing
    else is cached.

    The cap bounds every string built for a caller, and `check_cap` is its
    one check: a materialized block, a range the CLI prints, a period prefix
    and each string an exact correlation builds.  Word counts and orbit words
    are not capped."""

    def __init__(self, params: ConstructionParams, cap=DEFAULT_CAP):
        self.params = params
        self.cap = cap
        self._rising = _rising_heights(params.spacers)
        self._heights = [0, next(self._rising)]  # h_n at index n, for the stages built so far
        self._layout = [None, None]
        prefix = "0"  # B_1: every descent ends by then
        for n in range(2, self.max_stage + 1):
            if self.height(n) > PREFIX_LIMIT:
                break
            prefix = "".join(prefix + "1" * s for s in self._layout[n][1])
        self._prefix = prefix

    @property
    def max_stage(self):
        return self.params.depth + 1

    def height(self, n):
        """h_n, building the layout through stage n on first read."""
        if not 1 <= n <= self.max_stage:
            raise RangeError(f"stage {n} outside 1..{self.max_stage}")
        while len(self._heights) <= n:
            h, row = self._heights[-1], self.params.spacers[len(self._heights) - 2]
            self._layout.append((list(accumulate((h + s for s in row[:-1]), initial=0)), row))
            self._heights.append(next(self._rising))
        return self._heights[n]

    def deepest_materializable(self):
        """The deepest stage whose block fits under the cap, or None: heights
        grow with the stage, so the scan stops at the first one above it."""
        n = 0
        while n < self.max_stage and self.height(n + 1) <= self.cap:
            n += 1
        return n or None

    # -- layout ---------------------------------------------------------

    def segments(self, n, lo, hi):
        """Yield the pieces of B_n (2 <= n <= max_stage) overlapping the
        0-based range [lo, hi), in order, as (a, b, child): [a, b) is the
        overlap and `child` the offset of the piece's copy of B_{n-1} in B_n,
        or None when the piece is a spacer run."""
        self.height(n)  # builds the layout through stage n
        starts, row = self._layout[n]
        h = self._heights[n - 1]
        for j in range(bisect_right(starts, lo) - 1, len(starts)):
            bstart = starts[j]
            if bstart >= hi:
                return
            bend = bstart + h
            if bend > lo:
                yield max(lo, bstart), min(hi, bend), bstart
            if row[j] and bend < hi and bend + row[j] > lo:
                yield max(lo, bend), min(hi, bend + row[j]), None

    # -- materialization and extraction ----------------------------------

    def check_cap(self, length):
        """`length`, or a refusal when a string that long exceeds the cap."""
        if length > self.cap:
            raise Refusal(
                f"a {length}-symbol string exceeds the materialization cap; "
                f"raise it to at least {length}"
            )
        return length

    def materialize(self, n):
        """The explicit word B_n; refuses when h_n exceeds the cap."""
        return self.extract(n, 1, self.check_cap(self.height(n)))

    def check_range(self, n, start, length):
        """Refuse a range of B_n other than `length` >= 0 symbols from 1-based
        `start` <= h_n + 1."""
        h = self.height(n)
        if length < 0 or not 1 <= start <= h + 1 or start + length - 1 > h:
            raise RangeError(f"range [{start}, {start + length - 1}] outside B_{n}")

    def extract(self, n, start, length):
        """Substring of B_n of `length` symbols from 1-based `start` <= h_n + 1:
        `check_range`, then the unchecked `_extract`."""
        self.check_range(n, start, length)
        return self._extract(n, start - 1, start - 1 + length)

    def _extract(self, n, lo, hi):
        """Symbols [lo, hi) of B_n, 0-based and unchecked: the caller keeps
        0 <= lo <= hi <= h_n.  `_locate` descends; a range it leaves inside
        `_prefix` is a slice of it, one in a spacer run is all "1"s, and one
        straddling pieces is joined from `segments`."""
        n, lo, hi = self._locate(n, lo, hi)
        if not n:
            return "1" * (hi - lo)
        if hi <= len(self._prefix):
            return self._prefix[lo:hi]
        return "".join(
            "1" * (b - a) if child is None else self._extract(n - 1, a - child, b - child)
            for a, b, child in self.segments(n, lo, hi)
        )

    def _locate(self, n, lo, hi):
        """The range [lo, hi) of B_n, 0-based and unchecked, moved into the
        deepest copy of a block that holds it whole: (m, lo', hi') with the
        same symbols at [lo', hi') of B_m.  The range then ends within
        `_prefix` or straddles pieces of B_m's row; m = 0 when it lies in a
        spacer run, and [lo', hi') keeps only its length.

        While the range lies inside one piece of B_n's row, one `bisect_right`
        on the start offsets descends a stage."""
        heights, layout, limit = self._heights, self._layout, len(self._prefix)
        while hi > limit:
            starts, row = layout[n]
            j = bisect_right(starts, lo) - 1
            off, h = starts[j], heights[n - 1]
            if hi - off <= h:  # inside copy j of B_{n-1}
                n, lo, hi = n - 1, lo - off, hi - off
            elif lo - off >= h and hi - off <= h + row[j]:  # inside the spacer run after it
                return 0, lo, hi
            else:
                break
        return n, lo, hi

    def _sampled_hits(self, w1, w2, lag, stage, draws):
        """How many of `draws`, positions i of B_stage, carry w1 at i and w2
        at i + lag.  No draw is range checked: the caller keeps every joint
        span inside B_stage.

        The draws are settled _CHUNK at a time through tables built on each
        call.  The stages from B_stage down to the prefix block B_m fold into
        flat levels of at most _FLAT copies of a lower block (more when one
        stage has more; `_runs`), each copy followed by its gap, its run of
        "1"s.  At each level (`_level`) a bucket index finds each draw's copy;
        a draw whose span leaves the copy is read from the hit table of that
        gap's seam, and the others descend into the copy.  One hit table over
        B_m (B_stage, when no deeper) settles the draws that reach the bottom.
        Only draws no table covers take one `_locate` descent each (`_reader`):
        every draw reaching a level whose lower block is shorter than the span,
        the seam draws of a gap whose table would pass the cap, and every draw
        of a level that spacer runs fill half of."""
        span = max(len(w1), lag + len(w2))
        read = _reader(self, w1, w2, lag, span)
        m = self._heights.index(len(self._prefix))
        table = partial(_hit_table, w1=w1, w2=w2, lag=lag)
        levels, n = [], stage
        for stages in _runs([len(self._layout[j][1]) for j in range(stage, m, -1)]):
            levels.append(_level(self, n, n - stages, span, table, read))
            n -= stages
        bottom = _hit_table(self._prefix[:self._heights[min(stage, m)]], w1, w2, lag)
        hits = 0
        while los := list(islice(draws, _CHUNK)):
            for settle in levels:
                los, seam_hits = settle(los)
                hits += seam_hits
            hits += sum(_get(bottom, los))
        return hits

    def symbol_at(self, n, i):
        """Symbol of B_n at 1-based position i, by O(depth) descent."""
        return int(self.extract(n, i, 1))

    # -- exact occurrence counting ---------------------------------------

    def count_occurrences(self, word, n):
        """Exact number of (overlapping) occurrences of `word` in B_n.

        Counts by descent over the layout -- occurrences inside the long
        pieces of B_n's row plus those on the seam string that joins their
        edges -- so B_n is never materialized."""
        _check_word(word)
        if len(word) > self.height(n):
            raise RangeError(f"word longer than B_{n}")
        return self._count(word, "", 0, n)

    def _seams(self, span, n, capped=False):
        """Yield (copies, text, ones) per stage: the windows of `span` symbols
        in B_n are those of each `text` times its `copies`, plus `copies` *
        `ones` all-"1" windows.  Each text joins B_n's row, a piece longer than
        2m (m = span - 1) cut to its first and last m symbols around a "#" no
        window matches (`ones` counts the all-"1" windows cut from spacer runs),
        and leaves the windows inside B_{n-1} to the next stage, down to a block
        of at most 2 * span symbols, yielded whole.  Reads stay inside B_{n-1}
        or B_n, so go unchecked; `capped` checks each string before it is built."""
        m = span - 1
        copies = 1
        while self.height(n) > 2 * span:
            h = self._heights[n - 1]
            row = self._layout[n][1]
            if capped:
                self.check_cap(sum(min(h, 2 * m + 1) + min(s, 2 * m + 1) for s in row))
            run = "1" * m + "#" + "1" * m
            if h > 2 * m:
                child = self._extract(n - 1, 0, m) + "#" + self._extract(n - 1, h - m, h)
            else:
                child = self._extract(n - 1, 0, h)
            yield (copies, "".join(child + (run if s > 2 * m else "1" * s) for s in row),
                   sum(s - m for s in row if s > 2 * m))
            if h <= 2 * m:
                return
            copies *= len(row)
            n -= 1
        if capped:
            self.check_cap(self._heights[n])
        yield copies, self._extract(n, 0, self._heights[n]), 0

    def _count(self, w1, w2, lag, n, capped=False):
        """Positions i with `w1` at i and `w2` at i + lag, both inside B_n:
        the windows of their span that `_seams` yields, each seam part counted
        alone when the gap between the words may cover a "#"."""
        if lag < len(w1) and w1[lag:lag + len(w2)] != w2[:len(w1) - lag]:
            return 0  # the words disagree where they overlap
        total = 0
        for copies, text, ones in self._seams(max(len(w1), lag + len(w2)), n, capped):
            parts = text.split("#") if w2 else [text]
            hits = sum(count_overlapping(part, w1, w2, lag) for part in parts)
            total += copies * (hits + (ones if "0" not in w1 + w2 else 0))
        return total

    def window_counts(self, k, n):
        """`Counter` of the windows of length k in B_n, from the `_seams` walk
        that `_count` reads: no zero entries, and the counts sum to h_n - k + 1."""
        if not 1 <= k <= self.height(n):
            raise RangeError(f"window length {k} outside 1..h_{n}")
        counts = Counter()
        for copies, text, ones in self._seams(k, n):
            found = Counter(part[i:i + k] for part in text.split("#")
                            for i in range(len(part) - k + 1))
            found["1" * k] += ones
            counts.update({word: copies * c for word, c in found.items()})
        return +counts  # drops a zero all-"1" entry

    def frequency(self, word, n):
        """Exact frequency of `word` among the h_n - |W| + 1 windows of B_n."""
        count = self.count_occurrences(word, n)
        denom = self.height(n) - len(word) + 1
        return CylinderMeasureEstimate(word, n, count, denom, Fraction(count, denom))


# ----------------------------------------------------------------------------
# Cylinder maps and the weak-topology metric
# ----------------------------------------------------------------------------


def cylinder_words(count):
    """Canonical enumeration: words of length L at position 0, by L then lexicographic."""
    words = (format(i, f"0{k}b") for k in range(1, count + 1) for i in range(2 ** k))
    return list(islice(words, count))


def empirical_cylinder_map(dag, stage):
    """Cylinder probabilities read off from block frequencies at one stage."""

    def mu(word):
        return dag.frequency(word, stage).frequency

    return mu


def all_ones_cylinder_map(word):
    """Point mass at the all-spacers fixed point."""
    return Fraction(1) if set(word) == {"1"} else Fraction(0)


def measure_distance(nu1, nu2, truncation):
    """Truncated weak-topology distance sum_i 2^-i |nu1(C_i) - nu2(C_i)|.

    Returns (distance, tail_bound) with tail bound 2^(1-truncation); the maps
    may be callables or dicts over cylinder words."""
    if truncation < 0:
        raise InputError("truncation must be >= 0")

    def value(nu, w):
        return Fraction(nu(w) if callable(nu) else nu.get(w, 0))

    dist = Fraction(0)
    for i, w in enumerate(cylinder_words(truncation)):
        dist += Fraction(1, 2 ** i) * abs(value(nu1, w) - value(nu2, w))
    tail = Fraction(2, 2 ** truncation)
    return dist, tail


def eventual_period(dag, prefix_length, max_period):
    """Smallest period <= max_period of the limit word's prefix, else None.

    Prefix heuristic for odometer detection: a periodic limit word forces the
    return time to every tower base to be constant."""
    dag.check_cap(prefix_length)
    # every block is a prefix of the next: read the shallowest that holds the prefix
    n = next((n for n in range(1, dag.max_stage) if dag.height(n) >= prefix_length),
             dag.max_stage)
    length = min(prefix_length, dag.height(n))
    prefix = dag.extract(n, 1, length)
    for p in range(1, min(max_period, length - 1) + 1):
        if prefix[p:] == prefix[:-p]:
            return p
    return None


# ----------------------------------------------------------------------------
# Spacer orders and the ABC window decomposition
# ----------------------------------------------------------------------------


def spacer_order(dag, n, position):
    """Stage at which the spacer at 1-based `position` of B_n was inserted."""
    dag.check_range(n, position, 1)
    off = position - 1
    for stage in range(n, 1, -1):
        _, _, child = next(dag.segments(stage, off, off + 1))
        if child is None:
            return stage
        off -= child
    # the descent reached B_1 = "0"
    raise InputError(f"symbol at position {position} of B_{n} is 0, not a spacer")


def block_occurrence(dag, word):
    """Leftmost occurrence (stage, 1-based offset) in the smallest block
    containing `word`, scanning materializable stages only; None if not found
    (inconclusive beyond the cap)."""
    _check_word(word)
    for m in range(1, dag.max_stage + 1):
        if dag.height(m) < len(word):
            continue
        if dag.height(m) > dag.cap:
            return None
        pos = dag.materialize(m).find(word)
        if pos != -1:
            return m, pos + 1
    return None


def abc_threshold(params, eps, ell):
    """Constructive window length above which the decomposition is epsilon-good.

    Valid when sup over the available prefix of (t_1+...+t_n)/h_n for n >= ell
    is below eps/4 (checked exactly); returns None otherwise."""
    eps = Fraction(eps)
    if eps <= 0 or ell < 1:
        raise InputError("need eps > 0 and ell >= 1")
    _, ratios, _ = spacer_stats(params, params.depth)
    if max(ratios[ell - 1:], default=Fraction(1)) >= eps / 4:
        return None
    return int(4 * heights(params, ell)[ell - 1] / eps) + 1


@dataclass(frozen=True)
class AbcDecomposition:
    a: str
    b: str
    c: str
    cover: tuple  # ((1-based position in W, stage), ...)
    uncovered: int
    valid: bool
    occurrence: tuple = None  # (stage, 1-based offset) when found
    note: str = ""


def _canonical_cover(dag, m, off0, length, ell):
    """Maximal canonical blocks of stage >= ell fully inside the window, plus
    all canonical spacer segments outside them (clipped), with their orders."""
    wlo, whi = off0, off0 + length
    cover = []
    runs = []
    stack = [(m, 0)]
    while stack:
        stage, bstart = stack.pop()
        bend = bstart + dag.height(stage)
        if bstart >= whi or bend <= wlo:
            continue
        if stage >= ell and bstart >= wlo and bend <= whi:
            cover.append((bstart, stage))
            continue
        if stage == 1:
            continue
        for a, b, child in dag.segments(stage, max(wlo - bstart, 0), min(whi, bend) - bstart):
            if child is None:
                runs.append((bstart + a, bstart + b, stage))
            else:
                stack.append((stage - 1, bstart + child))
    cover.sort()
    runs.sort()
    merged = []
    for a, b, order in runs:
        if merged and merged[-1][1] == a:
            merged[-1][1] = b
            merged[-1][2] = max(merged[-1][2], order)
        else:
            merged.append([a, b, order])
    return cover, merged


def _edge_split(word, h_ell):
    """No-block case: all zeros sit within h_ell-1 of an end, split around the
    middle spacer run."""
    first = word.find("0")
    if first == -1:
        return "", word, ""
    head_limit = min(len(word), h_ell - 1)
    a_end = word.rfind("0", 0, head_limit)
    tail_start = max(0, len(word) - (h_ell - 1))
    c_pos = word.find("0", tail_start)
    if a_end == -1 and c_pos == -1:
        # zeros exist but outside both margins: not a language window
        return None
    c_pos = c_pos if c_pos != -1 else len(word)
    if c_pos <= a_end:
        return word, "", ""
    middle = word[a_end + 1 : c_pos]
    if middle.strip("1"):
        return None
    return word[: a_end + 1], middle, word[c_pos:]


def _greedy_string_cover(dag, region, base_pos, ell):
    """Best-effort cover for windows without a verified block occurrence:
    string-match materialized blocks from the largest stage down."""
    taken = []
    occupied = [False] * len(region)
    # heights grow with the stage: none past the first too long fits
    stages = takewhile(lambda k: dag.height(k) <= min(len(region), dag.cap),
                       range(ell, dag.max_stage + 1))
    for k in reversed(list(stages)):
        block = dag.materialize(k)
        h = len(block)
        pos = region.find(block)
        while pos != -1:
            if not any(occupied[pos : pos + h]):
                taken.append((base_pos + pos, k))
                occupied[pos : pos + h] = [True] * h
            pos = region.find(block, pos + 1)
    return taken


def abc_decompose(dag, word, eps, ell, occurrence=None):
    """Split a subshift window as A + (one spacer run) + C with a block cover.

    A and C are covered by disjoint canonical blocks of stage >= ell; B holds
    the (at most one) spacer run containing spacers of order beyond the
    largest covered stage.  For windows of the language at least
    abc_threshold(params, eps, ell) long, the uncovered letters in A and C
    number at most eps * |word|.  Windows not traced to a block occurrence get
    a best-effort cover with valid=False."""
    _check_word(word)
    eps = Fraction(eps)
    if eps <= 0 or ell < 1:
        raise InputError("need eps > 0 and ell >= 1")
    if occurrence is None:
        occurrence = block_occurrence(dag, word)

    if occurrence is None:
        # not found in any materializable block: best-effort decomposition
        one_runs = [(mt.start(), mt.end()) for mt in re.finditer("1+", word)]
        if one_runs:
            b_lo, b_hi = max(one_runs, key=lambda r: (r[1] - r[0], -r[0]))
        else:
            b_lo = b_hi = len(word)
        a, b, c = word[:b_lo], word[b_lo:b_hi], word[b_hi:]
        cover = _greedy_string_cover(dag, a, 0, ell) + _greedy_string_cover(
            dag, c, b_hi, ell
        )
        covered = sum(dag.height(k) for _, k in cover)
        return AbcDecomposition(
            a,
            b,
            c,
            tuple((p + 1, k) for p, k in sorted(cover)),
            len(a) + len(c) - covered,
            valid=False,
            note="window not traced to a block; greedy string cover",
        )

    m, off = occurrence
    off0 = off - 1
    cover, runs = _canonical_cover(dag, m, off0, len(word), ell)

    if not cover:
        split = _edge_split(word, dag.height(min(ell, dag.max_stage)))
        if split is None:
            split = (word, "", "")
        a, b, c = split
        return AbcDecomposition(
            a, b, c, (), len(a) + len(c), valid=True, occurrence=occurrence
        )

    top = max(stage for _, stage in cover)
    huge = [r for r in runs if r[2] >= top + 2]
    if huge:
        # at most one spacer run can hold spacers of order above top+1; take
        # the longest defensively should a malformed window yield several
        b_lo, b_hi, _ = max(huge, key=lambda r: (r[1] - r[0], -r[0]))
        note = "" if len(huge) == 1 else f"{len(huge)} separate high-order runs"
    else:
        b_lo = b_hi = off0 + len(word)
        note = ""
    a = word[: b_lo - off0]
    b = word[b_lo - off0 : b_hi - off0]
    c = word[b_hi - off0 :]
    if b.strip("1"):
        raise InputError("internal: spacer run window contains a 0")
    covered = sum(dag.height(stage) for _, stage in cover)
    return AbcDecomposition(
        a,
        b,
        c,
        tuple((pos - off0 + 1, stage) for pos, stage in cover),
        len(a) + len(c) - covered,
        valid=True,
        occurrence=occurrence,
        note=note,
    )


def max_spacer_run(word):
    """Length of the longest run of 1s."""
    return max((mt.end() - mt.start() for mt in re.finditer("1+", word)), default=0)
