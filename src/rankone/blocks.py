"""Building blocks of the symbolic model, without materializing them.

B_1 = "0" and B_{n+1} = B_n 1^{s_{n,0}} B_n 1^{s_{n,1}} ... B_n 1^{s_{n,p_n-1}},
so |B_n| equals the tower height h_n.  Blocks beyond the materialization cap
are handled through their recursive layout: random access, range extraction
and exact occurrence counting all descend the layout instead of building the
word.  Word frequencies are exact rationals count / (h_n - |W| + 1).

Spacer symbols carry an order: the stage at which the run containing them was
inserted.  The ABC decomposition below splits a window of the subshift into a
prefix and suffix covered by disjoint canonical blocks of stage >= ell plus at
most one spacer run containing the very-high-order spacers, with the
uncovered letter count controlled once the window is long enough.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .construction import ConstructionParams, heights, spacer_stats
from .errors import InputError, RangeError, Refusal

DEFAULT_CAP = 10_000_000


def _check_word(word):
    if not word or any(ch not in "01" for ch in word):
        raise InputError("words must be non-empty strings over {0,1}")


def count_overlapping(text, word):
    """Occurrences of `word` in `text`, overlaps included."""
    count = 0
    pos = text.find(word)
    while pos != -1:
        count += 1
        pos = text.find(word, pos + 1)
    return count


@dataclass(frozen=True)
class CylinderMeasureEstimate:
    word: str
    stage: int
    count: int
    denominator: int
    frequency: Fraction


class BlockDag:
    """Recursive view of the building blocks of one construction.

    Queries are deterministic but not pure: they fill caches of per-stage
    child offsets, the blocks up to `memo_limit` symbols, one larger block (up
    to `cap`), and per-word occurrence counts and block edges; the last two
    grow without bound with the number of distinct words queried."""

    def __init__(self, params: ConstructionParams, cap=DEFAULT_CAP, memo_limit=1 << 17):
        self.params = params
        self.cap = cap
        self.memo_limit = min(memo_limit, cap)
        self._seq = heights(params, params.depth)
        self._strings = {1: "0"}
        self._starts = {}
        self._counts = {}
        self._edges = {}
        self._big = None  # single-slot cache (stage, word) for large blocks

    @property
    def max_stage(self):
        return self.params.depth + 1

    def height(self, n):
        if not 1 <= n <= self.max_stage:
            raise RangeError(f"stage {n} outside 1..{self.max_stage}")
        return self._seq.h(n)

    def deepest_materializable(self):
        """The deepest stage whose block fits under the cap, or None."""
        return next((n for n in range(self.max_stage, 0, -1) if self.height(n) <= self.cap), None)

    # -- layout ---------------------------------------------------------

    def _child_starts(self, n):
        """Start offsets of the p_{n-1} copies of B_{n-1} inside B_n."""
        starts = self._starts.get(n)
        if starts is None:
            h = self.height(n - 1)
            starts = []
            pos = 0
            for s in self.params.spacer_row(n - 1):
                starts.append(pos)
                pos += h + s
            self._starts[n] = starts
        return starts

    def _segments_in(self, n, lo, hi):
        """Yield ('B', child_start) and ('1', run_start, run_len) segments of
        B_n overlapping [lo, hi), in order."""
        starts = self._child_starts(n)
        h = self.height(n - 1)
        row = self.params.spacer_row(n - 1)
        j = max(0, bisect_right(starts, lo) - 1)
        while j < len(starts):
            bstart = starts[j]
            if bstart >= hi:
                return
            bend = bstart + h
            if bend > lo:
                yield ("B", bstart)
            if row[j] and bend < hi and bend + row[j] > lo:
                yield ("1", bend, row[j])
            j += 1

    # -- materialization and extraction ----------------------------------

    def _small_string(self, n):
        s = self._strings.get(n)
        if s is not None:
            return s
        prev = self._small_string(n - 1)
        parts = []
        for sp in self.params.spacer_row(n - 1):
            parts.append(prev)
            if sp:
                parts.append("1" * sp)
        s = "".join(parts)
        self._strings[n] = s
        return s

    def materialize(self, n):
        """The explicit word B_n; refuses when h_n exceeds the cap."""
        h = self.height(n)
        if h > self.cap:
            raise Refusal(
                f"B_{n} has {h} symbols; raise the materialization cap to at least {h}"
            )
        if h <= self.memo_limit:
            return self._small_string(n)
        if self._big and self._big[0] == n:
            return self._big[1]
        word = self.extract(n, 1, h)
        self._big = (n, word)
        return word

    def extract(self, n, start, length):
        """Substring of B_n of `length` symbols starting at 1-based `start`."""
        h = self.height(n)
        if length < 0 or not 1 <= start <= h or start + length - 1 > h:
            raise RangeError(f"range [{start}, {start + length - 1}] outside B_{n}")
        out = []
        self._extract(n, start - 1, start - 1 + length, out)
        return "".join(out)

    def _extract(self, n, lo, hi, out):
        if lo >= hi:
            return
        if self.height(n) <= self.memo_limit:
            out.append(self._small_string(n)[lo:hi])
            return
        for seg in self._segments_in(n, lo, hi):
            if seg[0] == "B":
                bstart = seg[1]
                a = max(lo, bstart)
                b = min(hi, bstart + self.height(n - 1))
                self._extract(n - 1, a - bstart, b - bstart, out)
            else:
                _, rstart, rlen = seg
                a = max(lo, rstart)
                b = min(hi, rstart + rlen)
                out.append("1" * (b - a))

    def symbol_at(self, n, i):
        """Symbol of B_n at 1-based position i, by O(depth) descent."""
        return int(self.extract(n, i, 1))

    # -- exact occurrence counting ---------------------------------------

    def _edge(self, n, k, side):
        """First (side='P') or last (side='S') min(k, h_n) symbols of B_n."""
        key = (n, k, side)
        cached = self._edges.get(key)
        if cached is None:
            h = self.height(n)
            k = min(k, h)
            if side == "P":
                cached = self.extract(n, 1, k)
            else:
                cached = self.extract(n, h - k + 1, k)
            self._edges[key] = cached
        return cached

    def count_occurrences(self, word, n):
        """Exact number of (overlapping) occurrences of `word` in B_n.

        Counts by recursion over the layout -- occurrences inside children
        plus occurrences crossing junctions, each counted at the part where
        it ends -- so B_n is never materialized."""
        _check_word(word)
        if len(word) > self.height(n):
            raise RangeError(f"word longer than B_{n}")
        return self._count(word, n)

    def _count(self, word, n):
        key = (word, n)
        cached = self._counts.get(key)
        if cached is not None:
            return cached
        L = len(word)
        if self.height(n) <= max(self.memo_limit, 2 * L):
            total = count_overlapping(self.materialize(n), word)
            self._counts[key] = total
            return total

        all_ones = word == "1" * L
        h_child = self.height(n - 1)
        inner = self._count(word, n - 1)
        child_pre = self._edge(n - 1, L - 1, "P") if L > 1 else ""
        child_suf = self._edge(n - 1, L - 1, "S") if L > 1 else ""

        total = 0
        buf = ""
        for s in self.params.spacer_row(n - 1):
            # copy of B_{n-1}: occurrences inside, then those ending in it
            total += inner
            seg = buf + child_pre
            limit = len(buf) + h_child
            for st in range(len(buf)):
                if st + L <= limit and seg.startswith(word, st) and st + L <= len(seg):
                    total += 1
            if h_child >= L - 1:
                buf = child_suf
            else:
                buf = (buf + self._small_string(n - 1))[-(L - 1):] if L > 1 else ""
            # spacer run
            if s:
                if all_ones and s >= L:
                    total += s - L + 1
                seg = buf + "1" * min(s, L - 1)
                limit = len(buf) + s
                for st in range(len(buf)):
                    if st + L <= limit and st + L <= len(seg) and seg.startswith(word, st):
                        total += 1
                buf = (buf + "1" * min(s, L - 1))[-(L - 1):] if L > 1 else ""
        self._counts[key] = total
        return total

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
    words = []
    length = 1
    while len(words) < count:
        for i in range(2 ** length):
            words.append(format(i, f"0{length}b"))
            if len(words) == count:
                return words
        length += 1
    return words


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
    if prefix_length > dag.cap:
        raise Refusal(f"prefix length {prefix_length} exceeds cap {dag.cap}")
    stage = dag.max_stage
    for n in range(1, dag.max_stage + 1):
        if dag.height(n) >= prefix_length:
            stage = n
            break
    length = min(prefix_length, dag.height(stage))
    prefix = dag.extract(stage, 1, length)
    for p in range(1, min(max_period, length - 1) + 1):
        if all(prefix[i] == prefix[i + p] for i in range(length - p)):
            return p
    return None


# ----------------------------------------------------------------------------
# Spacer orders and the ABC window decomposition
# ----------------------------------------------------------------------------


def spacer_order(dag, n, position):
    """Stage at which the spacer at 1-based `position` of B_n was inserted."""
    if dag.symbol_at(n, position) != 1:
        raise InputError(f"symbol at position {position} of B_{n} is 0, not a spacer")
    stage = n
    off = position - 1
    while stage >= 2:
        h = dag.height(stage - 1)
        starts = dag._child_starts(stage)
        j = max(0, bisect_right(starts, off) - 1)
        if off < starts[j] + h:
            off -= starts[j]
            stage -= 1
        else:
            return stage
    raise InputError("reached the base block; position was not a spacer")


def block_occurrence(dag, word, max_stage=None):
    """Leftmost occurrence (stage, 1-based offset) in the smallest block
    containing `word`, scanning materializable stages only; None if not found
    (inconclusive beyond the cap / stage bound)."""
    _check_word(word)
    top = min(max_stage or dag.max_stage, dag.max_stage)
    for m in range(1, top + 1):
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
    h_ell = heights(params, ell).h(ell)
    return int(4 * h_ell / eps) + 1


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
        for seg in dag._segments_in(stage, max(wlo - bstart, 0), min(whi, bend) - bstart):
            if seg[0] == "B":
                stack.append((stage - 1, bstart + seg[1]))
            else:
                _, rstart, rlen = seg
                a = max(wlo, bstart + rstart)
                b = min(whi, bstart + rstart + rlen)
                if a < b:
                    runs.append((a, b, stage))
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
    last = word.rfind("0")
    head_limit = min(len(word), h_ell - 1)
    a_end = word.rfind("0", 0, head_limit)
    tail_start = max(0, len(word) - (h_ell - 1))
    c_pos = word.find("0", tail_start)
    if a_end == -1 and c_pos == -1:
        # zeros exist but outside both margins: not a language window
        return None
    a_end = a_end if a_end != -1 else -1
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
    stages = [
        k
        for k in range(ell, dag.max_stage + 1)
        if dag.height(k) <= min(len(region), dag.cap)
    ]
    for k in reversed(stages):
        block = dag.materialize(k)
        h = len(block)
        pos = region.find(block)
        while pos != -1:
            if not any(occupied[pos : pos + h]):
                taken.append((base_pos + pos, k))
                occupied[pos : pos + h] = [True] * h
            pos = region.find(block, pos + 1)
    return taken


def abc_decompose(dag, word, eps, ell, occurrence=None, search_stage_bound=None):
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
        occurrence = block_occurrence(dag, word, search_stage_bound)

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
