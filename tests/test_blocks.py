import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import blocks
from rankone.blocks import (
    DEFAULT_CAP,
    BlockDag,
    abc_decompose,
    abc_threshold,
    block_occurrence,
    count_overlapping,
    cylinder_words,
    empirical_cylinder_map,
    all_ones_cylinder_map,
    eventual_period,
    max_spacer_run,
    measure_distance,
    spacer_order,
)
from rankone.construction import (
    ConstructionParams,
    chacon,
    generalized_chacon,
    heights,
    katok,
    spacer_stats,
    von_neumann_kakutani,
)
from rankone.errors import InputError, RangeError, Refusal

from conftest import random_bounded_params

CHACON_B3 = "0010001010010"


def test_materialize_examples():
    assert BlockDag(chacon(4)).materialize(3) == CHACON_B3
    assert BlockDag(von_neumann_kakutani(4)).materialize(3) == "0000"
    one_spacer = generalized_chacon(1, cuts=(3,), spacer_index=0)
    assert BlockDag(one_spacer).materialize(2) == "0100"


def test_materialize_cap_refusal():
    dag = BlockDag(chacon(30), cap=1000)
    with pytest.raises(Refusal):
        dag.materialize(9)


def test_lengths_match_heights():
    for params in (chacon(10), von_neumann_kakutani(12), katok(cuts=(4, 8, 16))):
        dag = BlockDag(params)
        hs = heights(params, params.depth)
        for n in range(1, params.depth + 2):
            if hs[n - 1] <= 100_000:
                assert len(dag.materialize(n)) == hs[n - 1]


def test_layout_is_built_to_the_deepest_stage_read():
    # heights and copy starts are built through the deepest stage a call
    # reads: stage 3 of a depth-10^5 chacon holds kilobytes, where the whole
    # layout would hold gigabytes of big-int offsets; the deepest block under
    # the cap is found by reading heights up to the first one above it
    params = chacon(10**5)
    tracemalloc.start()
    try:
        dag = BlockDag(params)
        assert dag.extract(3, 1, 13) == CHACON_B3
        assert dag.count_occurrences("010", 3) == 4
        assert dag.deepest_materializable() == 15
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert dag._heights[1:] == list(heights(chacon(15), 15))
    hs = heights(chacon(4), 4)
    for cap in (0, 1, 12, 13, 40, 41, 10**9):
        expected = max((n for n in range(1, 6) if hs[n - 1] <= cap), default=None)
        assert BlockDag(chacon(4), cap=cap).deepest_materializable() == expected


def test_symbol_at_examples():
    dag = BlockDag(chacon(4))
    assert dag.symbol_at(3, 9) == 1
    assert dag.symbol_at(3, 1) == 0
    assert dag.symbol_at(3, 13) == 0
    with pytest.raises(RangeError):
        dag.symbol_at(3, 14)


def _block(params, n):
    """B_n built from its definition, without the layout table."""
    word = "0"
    for row in params.spacers[: n - 1]:
        word = "".join(word + "1" * s for s in row)
    return word


@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 8)), st.data())
@settings(max_examples=150, deadline=None)
def test_extract_matches_block_slices(seed, limit, data):
    # spacer runs up to 20 symbols long hold ranges of their own, and a tiny
    # PREFIX_LIMIT keeps the prefix string to the deepest block of at most 1,
    # 2 or 8 symbols, so every read ending beyond it descends the layout; a
    # cap as tiny stops no read, since extraction never reads the cap itself
    params = random_bounded_params(random.Random(seed), depth=6, max_spacer=20)
    hs = heights(params, params.depth)
    top = max(k for k in range(2, params.depth + 2) if hs[k - 1] <= 20_000)
    n = data.draw(st.integers(2, top))
    word = _block(params, n)
    h, row = hs[n - 2], params.spacers[n - 2]
    j = data.draw(st.integers(0, len(row) - 1))
    copy = list(accumulate((h + s for s in row[:-1]), initial=0))[j]

    def within(a, b):
        lo = data.draw(st.integers(a, b))
        return lo, data.draw(st.integers(lo, b))

    with patch.object(blocks, "PREFIX_LIMIT", limit):
        dag = BlockDag(params, cap=limit)
    ranges = [
        within(copy, copy + h),  # inside copy j of B_{n-1}
        within(copy + h, copy + h + row[j]),  # inside the spacer run after it
        # from inside copy j to past its end: straddles pieces unless copy j ends B_n
        (data.draw(st.integers(copy, copy + h - 1)),
         data.draw(st.integers(min(copy + h + 1, len(word)), len(word)))),
        within(0, len(word)),
        (len(word), len(word)),  # the empty range at h_n + 1
    ]
    # ranges ending at the last symbol of the prefix string and one past it
    ranges += [(data.draw(st.integers(0, end)), end)
               for end in (len(dag._prefix), len(dag._prefix) + 1) if end <= len(word)]
    for lo, hi in ranges:
        assert dag.extract(n, lo + 1, hi - lo) == word[lo:hi], (lo, hi)
        # `_locate` names the same symbols: a slice of B_m, or a spacer run when m = 0
        m, a, b = dag._locate(n, lo, hi)
        assert b - a == hi - lo and 0 <= m <= n, (lo, hi)
        assert (_block(params, m)[a:b] if m else "1" * (b - a)) == word[lo:hi], (lo, hi, m)


def test_extract_matches_materialize():
    with patch.object(blocks, "PREFIX_LIMIT", 8):  # reads past B_2 descend
        dag = BlockDag(chacon(8), cap=8)
    word = BlockDag(chacon(8)).materialize(6)
    for start, length in [(1, 10), (5, 100), (300, 64), (1, len(word))]:
        assert dag.extract(6, start, length) == word[start - 1 : start - 1 + length]
    # extraction materializes nothing, so a cap below 1 does not stop it
    for cap in (0, -1):
        assert BlockDag(chacon(8), cap=cap).extract(6, 5, 100) == word[4:104]
    # the empty range may start just past the block's end, but no further
    assert dag.extract(6, len(word) + 1, 0) == ""
    with pytest.raises(RangeError):
        dag.extract(6, len(word) + 2, 0)
    with pytest.raises(RangeError):
        dag.extract(6, len(word) + 1, 1)


def test_count_examples():
    dag = BlockDag(chacon(4))
    assert dag.count_occurrences("0010", 3) == 3
    assert dag.count_occurrences("0010", 2) == 1
    assert dag.count_occurrences("00", 3) == 4
    with pytest.raises(RangeError):
        dag.count_occurrences("0" * 14, 3)
    with pytest.raises(InputError):
        dag.count_occurrences("02", 3)


def _words(min_size):
    # all-ones words take the spacer-run branch of the count
    return st.text("01", min_size=min_size, max_size=6) | st.integers(min_size, 6).map("1".__mul__)


def _windows(text, word):
    return sum(text.startswith(word, i) for i in range(len(text)))


# "#" matches no word; lags reach past the end of the text and words may be
# longer than it.  The counts are summed over chunks of SEGMENT starts, so
# each case runs with chunks of 1 and 3 starts as well as the default, and
# starts on both sides of a chunk edge are counted.  The last example is
# longer than the default int/str digit limit of 4,300: no step of a count
# converts between ints and decimal strings, which the test pins by running
# at the lowest limit the interpreter accepts.  A negative lag is refused.
@given(st.text("01#", max_size=40) | st.text("#", max_size=8),
       st.text("01", min_size=1, max_size=6), st.text("01", max_size=6), st.integers(-2, 50))
@example("", "0", "", 0)
@example("###", "1", "1", 1)
@example("0110", "01", "10", 3)
@example("01", "0101", "", 0)
@example("0110", "01", "10", -1)
@example("0010#1101" * 600, "01", "10", 3001)
@settings(max_examples=400, deadline=None)
def test_count_overlapping_equals_brute_force_pair_count(text, w1, w2, lag):
    if lag < 0:
        with pytest.raises(InputError):
            count_overlapping(text, w1, w2, lag)
        return
    lag = lag if w2 else 0  # an empty w2 counts the occurrences of w1
    expected = sum(
        text[i : i + len(w1)] == w1 and text[i + lag : i + lag + len(w2)] == w2
        for i in range(len(text))
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(640)
    try:
        for chunk in (1, 3, blocks.SEGMENT):
            with patch.object(blocks, "SEGMENT", chunk):
                assert count_overlapping(text, w1, w2, lag) == expected
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_count_overlapping_memory_follows_the_chunk_not_the_word():
    # the letters' flags are ANDed as they come, so a count holds a few chunks
    # of SEGMENT flags whatever the word's length; one flag string per letter
    # would hold 2,000 chunks here
    text = BlockDag(chacon(12)).materialize(11)
    word = text[:2000]
    tracemalloc.start()
    try:
        count = count_overlapping(text, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == _windows(text, word)
    assert peak < 16 * blocks.SEGMENT


@given(st.integers(0, 2**32 - 1), _words(1), _words(0), st.sampled_from((1, 2, 8)), st.data())
@settings(max_examples=150, deadline=None)
def test_count_recursion_equals_naive_scan(seed, w1, w2, limit, data):
    # spacer runs up to 20 are both longer and shorter than twice the span
    params = random_bounded_params(random.Random(seed), depth=6, max_spacer=20)
    hs = heights(params, params.depth)
    stage = max(n for n in range(1, params.depth + 2) if hs[n - 1] <= 100_000)
    if hs[stage - 1] < max(len(w1), len(w2)):
        return
    text = BlockDag(params).materialize(stage)
    # an empty w2 counts occurrences of w1; a short lag keeps the span below
    # the long spacer runs, a long one lets the gap reach across the seam cuts
    top = len(text) - len(w2)
    lag = data.draw(st.integers(0, min(top, 8)) | st.integers(0, top)) if w2 else 0
    span = max(len(w1), lag + len(w2))
    expected = sum(
        text[i : i + len(w1)] == w1 and text[i + lag : i + lag + len(w2)] == w2
        for i in range(len(text) - span + 1)
    )
    # counting descends the layout to its span, with child copies both
    # shorter and longer than twice the span; a tiny PREFIX_LIMIT makes its
    # reads of seam edges and of the base block descend too, and an uncapped
    # count never reads a cap as tiny
    with patch.object(blocks, "PREFIX_LIMIT", limit):
        dag = BlockDag(params, cap=limit)
    assert dag._count(w1, w2, lag, stage) == expected
    if not w2:
        assert dag.count_occurrences(w1, stage) == expected


def test_count_of_a_pair_that_cannot_occur_walks_nothing(monkeypatch):
    # words that disagree where they overlap count 0 before any seam string
    # is built; pairs that agree there, or do not overlap, are still counted
    calls = []

    def record(text, w1, w2="", lag=0):
        calls.append(len(text))
        return count_overlapping(text, w1, w2, lag)

    monkeypatch.setattr("rankone.blocks.count_overlapping", record)
    impossible = [("0", "1", 0), ("1", "0", 0), ("01", "1", 0), ("010", "11", 1),
                  ("0110", "01", 2), ("00", "10", 1)]
    possible = [("0", "0", 0), ("01", "1", 1), ("010", "10", 1), ("0110", "1", 2),
                ("0", "1", 1), ("01", "10", 2), ("1", "01", 1)]
    rng = random.Random(5)
    cases = [(chacon(8), 6), (katok(cuts=(100, 300)), 3)] + [
        (params, params.depth + 1)
        for params in (random_bounded_params(rng, depth=5, max_spacer=6) for _ in range(6))]
    for params, stage in cases:
        dag = BlockDag(params)
        text = dag.materialize(stage)
        for w1, w2, lag in impossible + possible:
            span = max(len(w1), lag + len(w2))
            expected = sum(text.startswith(w1, i) and text.startswith(w2, i + lag)
                           for i in range(len(text) - span + 1))
            calls.clear()
            assert dag._count(w1, w2, lag, stage) == expected
            if (w1, w2, lag) in impossible:
                assert expected == 0 and calls == []
    # katok's lag-0 prediction pair: no walk of its 10,000-copy row
    calls.clear()
    assert BlockDag(katok(cuts=(100, 10000)))._count("0", "1", 0, 3) == 0 and calls == []


def test_count_cap_is_longest_string_built(monkeypatch):
    # a single word of the span makes the descent pass each string it builds,
    # unsplit, to count_overlapping; a word pair of the same span builds the
    # same strings, so the capped count admits both at exactly that length
    lengths = []

    def record(text, w1, w2="", lag=0):
        lengths.append(len(text))
        return count_overlapping(text, w1, w2, lag)

    monkeypatch.setattr("rankone.blocks.count_overlapping", record)
    rng = random.Random(11)
    for _ in range(40):
        params = random_bounded_params(rng, depth=6, max_spacer=20)
        stage = params.depth + 1
        h = heights(params, params.depth)[stage - 1]
        for span in {1, 2, 5, 17, max(1, h // 5), max(1, h // 2), h}:
            dag = BlockDag(params, cap=rng.choice((1, 2, 8)))
            queries = [("0" * span, "", 0), ("0", "0", span - 1)]
            lengths.clear()
            counts = [dag._count(*q, stage) for q in queries]
            longest = max(lengths)
            assert longest <= h
            dag.cap = longest
            assert [dag._count(*q, stage, capped=True) for q in queries] == counts
            dag.cap = longest - 1
            for q in queries:
                with pytest.raises(Refusal):
                    dag._count(*q, stage, capped=True)


def test_count_is_independent_of_the_cap_and_the_prefix(monkeypatch):
    # counting walks the layout down to the span of its words, whatever the
    # cap and the prefix string: each (cap, PREFIX_LIMIT) passes the same
    # strings to count_overlapping and returns the same counts
    texts = []

    def record(text, w1, w2="", lag=0):
        texts.append(text)
        return count_overlapping(text, w1, w2, lag)

    monkeypatch.setattr("rankone.blocks.count_overlapping", record)
    rng = random.Random(3)
    cases = [(chacon(30), 31), (katok(cuts=(100, 10000)), 3)] + [
        (params, params.depth + 1)
        for params in (random_bounded_params(rng, depth=10, max_spacer=20) for _ in range(4))]
    queries = [("0", "", 0), ("0010", "", 0), ("1", "", 0), ("0", "0", 40), ("01", "10", 1000),
               ("1", "11", 3)]
    for params, stage in cases:
        runs = set()
        for cap in (1, 8, DEFAULT_CAP):
            for limit in (1, 8, 1 << 17):
                with patch.object(blocks, "PREFIX_LIMIT", limit):
                    dag = BlockDag(params, cap=cap)
                texts.clear()
                counts = tuple(dag._count(*q, stage) for q in queries)
                runs.add((tuple(texts), counts))
        assert len(runs) == 1
        # the prefix string depends on PREFIX_LIMIT alone
        assert len({BlockDag(params, cap=cap)._prefix for cap in (1, 8, DEFAULT_CAP)}) == 1


@pytest.mark.parametrize("params", [
    chacon(8), von_neumann_kakutani(10), katok(cuts=(4, 8, 16)), generalized_chacon(5),
    random_bounded_params(random.Random(5), depth=5, max_spacer=20)])
def test_window_counts_equal_the_slices_of_the_block(params):
    # one seam walk counts every window of length k, whatever the cap: the
    # table is the Counter of the slices of the block, with no zero entries,
    # and the counts of each length sum to h - k + 1
    oracle = BlockDag(params)
    for n in range(1, oracle.max_stage + 1):
        block = oracle.materialize(n)
        for k in (1, 2, 3, 5, 9, 17):
            if k > len(block):
                continue
            brute = Counter(block[i:i + k] for i in range(len(block) - k + 1))
            for cap in (1, 8, 10 ** 7):
                counts = BlockDag(params, cap=cap).window_counts(k, n)
                assert dict(counts) == dict(brute)
                assert sum(counts.values()) == len(block) - k + 1
    for k in (0, oracle.height(2) + 1):
        with pytest.raises(RangeError):
            oracle.window_counts(k, 2)


def test_window_counts_give_chacon_complexity():
    # Chacon's sequence has 2k - 1 distinct windows of each length k >= 2
    # (Ferenczi, Bull. SMF 123, 1995), all of them in B_31 (h about 3.1e14)
    dag = BlockDag(chacon(30))
    h = dag.height(31)
    for k in range(1, 25):
        counts = dag.window_counts(k, 31)
        assert len(counts) == (2 if k == 1 else 2 * k - 1)
        assert sum(counts.values()) == h - k + 1


def test_frequency_closed_form_chacon():
    dag = BlockDag(chacon(12))
    for n in range(1, 13):
        est = dag.frequency("0", n)
        h = dag.height(n)
        assert est.count == 3 ** (n - 1)
        assert est.frequency == Fraction(3 ** (n - 1), h)
    # converges to 2/3 from the exact closed form h_n = (3^n - 1) / 2
    assert abs(dag.frequency("0", 12).frequency - Fraction(2, 3)) < Fraction(1, 3**11)


def test_frequency_trivial_cases():
    zero = BlockDag(von_neumann_kakutani(6))
    assert zero.frequency("1", 5).frequency == 0
    dag = BlockDag(chacon(4))
    assert dag.frequency("00", 3).frequency == Fraction(1, 3)


def test_frequency_cauchy_trend():
    for params in (chacon(14), katok(cuts=(4, 8, 16, 32))):
        dag = BlockDag(params)
        freqs = [
            dag.frequency("01", n).frequency for n in range(2, params.depth + 1)
        ]
        deltas = [abs(a - b) for a, b in zip(freqs, freqs[1:])]
        assert deltas[-1] <= deltas[0]


def test_measure_distance():
    dag = BlockDag(chacon(12))
    mu = empirical_cylinder_map(dag, 12)
    d, tail = measure_distance(mu, mu, 8)
    assert d == 0 and tail == Fraction(1, 128)
    d, tail = measure_distance(all_ones_cylinder_map, {"0": Fraction(2, 3)}, 1)
    assert d == Fraction(2, 3)
    d, tail = measure_distance(mu, mu, 0)
    assert d == 0 and tail == 2


def test_cylinder_enumeration_order():
    assert cylinder_words(7) == ["0", "1", "00", "01", "10", "11", "000"]


def test_eventual_period():
    assert eventual_period(BlockDag(von_neumann_kakutani(8)), 64, 8) == 1
    assert eventual_period(BlockDag(chacon(10)), 10_000, 1000) is None
    alternating = ConstructionParams(cuts=(2,) * 8, spacers=((1, 0),) * 8)
    assert eventual_period(BlockDag(alternating), 100, 4) == 2
    # one spacer after *each* column breaks 2-periodicity at the junctions
    dense = ConstructionParams(cuts=(2,) * 8, spacers=((1, 1),) * 8)
    assert eventual_period(BlockDag(dense), 100, 4) is None
    # the prefix is one string the cap bounds
    capped = BlockDag(chacon(8), cap=100)
    with pytest.raises(Refusal):
        eventual_period(capped, 101, 3)
    assert eventual_period(capped, 100, 3) is None


def test_bounded_readers_build_no_stage_past_their_bound():
    # a prefix of 1000 symbols lies in B_7, which the constructor's prefix
    # block already holds; the best-effort cover of "1100000" looks for blocks
    # of at most 5 symbols, and the search for a block holding the word stops
    # at the first block above the cap
    params = chacon(20_000)
    dag = BlockDag(params)
    built = len(dag._heights)
    assert eventual_period(dag, 1000, 50) is None
    assert len(dag._heights) == built
    dag = BlockDag(params)
    dec = abc_decompose(dag, "1100000", 1, 3)
    assert not dec.valid and dec.cover == ()
    assert len(dag._heights) - 1 == dag.deepest_materializable() + 1


def test_spacer_order_examples():
    dag = BlockDag(chacon(4))
    assert spacer_order(dag, 3, 9) == 3
    assert spacer_order(dag, 3, 3) == 2
    assert spacer_order(dag, 4, 3) == 2  # inside the first embedded copy
    with pytest.raises(InputError):
        spacer_order(dag, 3, 1)


def test_spacer_run_bound(rng):
    # the longest spacer run in a block is at most the summed per-stage maxima
    for _ in range(20):
        params = random_bounded_params(rng, depth=5)
        dag = BlockDag(params)
        ts, _, _ = spacer_stats(params, params.depth)
        for n in range(1, params.depth + 1):
            if dag.height(n + 1) > 50_000:
                break
            assert max_spacer_run(dag.materialize(n + 1)) <= sum(ts[:n])


def _canonical_offsets(dag, m, n):
    offsets = [0]
    for stage in range(m, n, -1):
        starts = [c for _, _, c in dag.segments(stage, 0, dag.height(stage)) if c is not None]
        offsets = [o + s for o in offsets for s in starts]
    return offsets


def test_every_zero_in_embedded_copy(rng):
    # cover reconstruction: each 0 of B_m sits inside a canonical B_n copy
    for _ in range(10):
        params = random_bounded_params(rng, depth=5)
        dag = BlockDag(params)
        m = max(n for n in range(1, params.depth + 2) if dag.height(n) <= 20_000)
        word = dag.materialize(m)
        for n in range(1, m):
            covered = bytearray(len(word))
            h = dag.height(n)
            for off in _canonical_offsets(dag, m, n):
                for i in range(off, off + h):
                    covered[i] = 1
            assert all(covered[i] for i, ch in enumerate(word) if ch == "0")


def test_spacer_order_is_least_covering_stage(rng):
    # a spacer's order is the least k whose canonical B_k copies cover it
    for _ in range(10):
        params = random_bounded_params(rng, depth=5)
        dag = BlockDag(params)
        m = max(n for n in range(1, params.depth + 2) if dag.height(n) <= 5_000)
        word = dag.materialize(m)
        least = [None] * len(word)
        for k in range(m, 0, -1):
            h = dag.height(k)
            for off in _canonical_offsets(dag, m, k):
                least[off : off + h] = [k] * h
        for i, ch in enumerate(word):
            if ch == "1":
                assert spacer_order(dag, m, i + 1) == least[i]


def test_block_occurrence():
    dag = BlockDag(chacon(10))
    assert block_occurrence(dag, CHACON_B3) == (3, 1)
    assert block_occurrence(dag, "0110") is None
    assert block_occurrence(dag, "10010") == (3, 9)


def test_abc_word_is_block():
    dag = BlockDag(chacon(10))
    dec = abc_decompose(dag, CHACON_B3, Fraction(1, 4), 2)
    assert dec.valid and dec.b == "" and dec.c == ""
    assert dec.cover == ((1, 3),)
    assert dec.uncovered == 0


def test_abc_all_spacers():
    dag = BlockDag(chacon(10))
    dec = abc_decompose(dag, "1111", Fraction(1, 4), 2)
    assert dec.a == "" and dec.b == "1111" and dec.c == ""
    assert dec.uncovered == 0
    assert not dec.valid  # runs of four spacers never occur in this language


def test_abc_huge_run_between_blocks():
    # construction whose language contains B_2 . 1^7 . B_2 with the run of
    # order two above the covered blocks
    params = ConstructionParams(
        cuts=(2, 2, 2, 2), spacers=((0, 0), (0, 0), (0, 7), (0, 0))
    )
    dag = BlockDag(params)
    word = "00" + "1" * 7 + "00"
    assert block_occurrence(dag, word) == (5, 7)
    dec = abc_decompose(dag, word, Fraction(1, 4), 2)
    assert dec.valid
    assert (dec.a, dec.b, dec.c) == ("00", "1" * 7, "00")
    assert dec.uncovered == 0
    assert {stage for _, stage in dec.cover} == {2}


def test_abc_low_order_run_stays_uncovered():
    # same window shape, but the run order is just one above the cover, so it
    # is charged to the uncovered budget instead of the middle part
    params = ConstructionParams(cuts=(3, 3), spacers=((0, 7, 0), (0, 7, 0)))
    dag = BlockDag(params)
    word = dag.extract(3, 11, 27)
    assert word == "0011111110" + "1" * 7 + "0011111110"
    dec = abc_decompose(dag, word, Fraction(1, 4), 2)
    assert dec.valid and dec.b == ""
    assert dec.uncovered == 27 - 20


def test_abc_threshold():
    params = chacon(20)
    eps = Fraction(1, 8)
    threshold = abc_threshold(params, eps, 8)
    h8 = heights(params, 8)[7]
    assert threshold == int(4 * h8 / eps) + 1
    # ratios too large at ell = 1
    assert abc_threshold(params, Fraction(1, 8), 1) is None


def _abc_threshold_reference(params, eps, ell):
    """The sup of the spacer_stats ratios from stage ell on against eps/4; a
    prefix shorter than ell takes the sup as 1, and eps/4 above it asks for h_ell."""
    _, ratios, _ = spacer_stats(params, params.depth)
    if max(ratios[ell - 1:], default=Fraction(1)) >= eps / 4:
        return None
    return int(4 * heights(params, ell)[ell - 1] / eps) + 1


def test_abc_threshold_equals_spacer_stats_reference(rng):
    for _ in range(200):
        params = random_bounded_params(rng, max_spacer=rng.choice((0, 1, 3)))
        eps = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        ell = rng.randint(1, params.depth + 2)
        try:
            expected = _abc_threshold_reference(params, eps, ell)
        except RangeError:  # eps/4 above 1 past the prefix
            assert ell > params.depth and eps > 4
            with pytest.raises(RangeError):
                abc_threshold(params, eps, ell)
            continue
        assert abc_threshold(params, eps, ell) == expected


def test_abc_threshold_keeps_no_stage():
    # a depth-20000 chacon's ratios held as Fractions peak at 84 MiB
    tracemalloc.start()
    try:
        threshold = abc_threshold(chacon(20_000), Fraction(1, 8), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threshold == 32 * heights(chacon(8), 8)[7] + 1
    assert peak < 2 * 2**20


def test_abc_postcondition_smoke(rng):
    eps = Fraction(1, 8)
    params = chacon(18)
    dag = BlockDag(params)
    ell = 6
    need = abc_threshold(params, eps, ell)
    stage = 12
    for _ in range(25):
        length = need + rng.randrange(200)
        off = rng.randrange(dag.height(stage) - length) + 1
        word = dag.extract(stage, off, length)
        dec = abc_decompose(dag, word, eps, ell, occurrence=(stage, off))
        assert dec.valid
        assert set(dec.b) <= {"1"}
        # cover blocks are disjoint, verified occurrences inside A and C
        seen = []
        for pos, k in dec.cover:
            lo, hi = pos, pos + dag.height(k)
            assert word[lo - 1 : hi - 1] == dag.materialize(k)
            b_lo = len(dec.a) + 1
            b_hi = b_lo + len(dec.b)
            assert hi <= b_lo or lo >= b_hi
            for a, b in seen:
                assert hi <= a or lo >= b
            seen.append((lo, hi))
        assert dec.uncovered <= eps * length


def test_abc_invalid_symbols():
    dag = BlockDag(chacon(6))
    # non-str words are refused too, not passed through or left to a TypeError
    for word in ("01x", "0a1", "a01", "01a", "", b"01", ["0"], None):
        with pytest.raises(InputError):
            abc_decompose(dag, word, Fraction(1, 4), 2)
        with pytest.raises(InputError):
            dag.count_occurrences(word, 3)
    blocks._check_word("01" * 500_000)


def test_count_with_long_spacer_runs():
    # spacer runs much longer than the word exercise the run-crossing branches
    params = ConstructionParams(
        cuts=(2, 3, 2), spacers=((5, 12), (0, 7, 9), (1, 0))
    )
    with patch.object(blocks, "PREFIX_LIMIT", 4):  # reads past B_1 descend
        dag = BlockDag(params)
    reference = BlockDag(params).materialize(4)
    for word in ("1", "11", "11111", "0110", "1110", "011111", "101"):
        assert dag.count_occurrences(word, 4) == _windows(reference, word), word


def test_count_word_spanning_many_children():
    # h_2 = 2 with single-symbol children: words span several junctions
    params = ConstructionParams(cuts=(2, 2, 2, 2), spacers=((0, 0), (1, 0), (0, 1), (1, 1)))
    with patch.object(blocks, "PREFIX_LIMIT", 2):  # reads past B_2 descend
        dag = BlockDag(params)
    reference = BlockDag(params).materialize(5)
    for word in ("0010", "00100", "010010", "0000", "1001"):
        assert dag.count_occurrences(word, 5) == _windows(reference, word), word
