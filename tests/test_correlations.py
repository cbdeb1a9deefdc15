import random
from fractions import Fraction
from unittest.mock import patch

import pytest

from rankone import blocks
from rankone.blocks import DEFAULT_CAP, PREFIX_LIMIT, BlockDag, _hit_table, _reader
from rankone.construction import (
    ConstructionParams,
    chacon,
    generalized_chacon,
    katok,
    von_neumann_kakutani,
)
from rankone.correlations import (
    _draws,
    correlation,
    verify_half_spacer_mixing,
    verify_rigid_one_spacer,
    verify_weak_limit_prediction,
)
from rankone.errors import InputError, RangeError, Refusal

from conftest import random_bounded_params


def test_exact_examples():
    dag = BlockDag(chacon(6))
    assert correlation(dag, "0", "0", 0, 3).value == Fraction(9, 13)
    assert correlation(dag, "0", "1", 0, 3).value == 0
    assert correlation(dag, "0", "0", 1, 3).value == Fraction(4, 12)


def test_lag_out_of_range():
    dag = BlockDag(chacon(6))
    with pytest.raises(RangeError):
        correlation(dag, "0", "0", 13, 3)


def test_alignment_identity(rng):
    # aligned self-correlation is exactly the word frequency
    for _ in range(10):
        params = random_bounded_params(rng, depth=5)
        dag = BlockDag(params)
        stage = params.depth
        for word in ("0", "01", "00"):
            if len(word) > dag.height(stage):
                continue
            est = correlation(dag, word, word, 0, stage)
            assert est.value == dag.frequency(word, stage).frequency


def test_joint_count_bound(rng):
    # a joint occurrence is an occurrence of either word alone
    for _ in range(10):
        params = random_bounded_params(rng, depth=5)
        dag = BlockDag(params)
        stage = params.depth
        h = dag.height(stage)
        lag = rng.randrange(1, max(2, h // 3))
        est = correlation(dag, "0", "00", lag, stage)
        valid = h - max(1, lag + 2) + 1
        for word in ("0", "00"):
            assert est.value <= Fraction(dag.count_occurrences(word, stage), valid)


def test_sampled_seeded_reproducibility():
    dag = BlockDag(chacon(12))
    a = correlation(dag, "0", "0", 5, 10, method="sampled", sample_budget=5000, seed=7)
    b = correlation(dag, "0", "0", 5, 10, method="sampled", sample_budget=5000, seed=7)
    c = correlation(dag, "0", "0", 5, 10, method="sampled", sample_budget=5000, seed=8)
    assert a.value == b.value and a.ci == b.ci
    assert c.value != a.value or c.seed != a.seed


def test_sampled_matches_exact_within_hoeffding():
    dag = BlockDag(chacon(14))
    exact = correlation(dag, "0", "0", 3, 12).value
    misses = 0
    trials = 100
    for seed in range(trials):
        est = correlation(
            dag, "0", "0", 3, 12, method="sampled", sample_budget=2000, seed=seed
        )
        if abs(est.value - exact) > est.ci:
            misses += 1
    # Hoeffding 95% is conservative; allow generous slack over the nominal 5%
    assert misses <= 15


@pytest.mark.parametrize(
    "params, w1, w2, lag, stage, samples, seed, value",
    [
        (katok(cuts=(100, 10000)), "0", "1", 26, 3, 100_000, 1, Fraction(4429, 50000)),
        (chacon(30), "0", "0", 40, 15, 20_000, 1, Fraction(1973, 4000)),
        (chacon(30), "0", "0", 40, 31, 6_000, 1, Fraction(977, 2000)),
        (chacon(30), "0", "01", 100_000, 31, 6_000, 7, Fraction(91, 400)),
        (chacon(30), "01", "1", 3, 20, 20_000, 3, Fraction(2233, 20000)),
    ],
    ids=["katok-stage3", "chacon-stage15", "chacon-stage31", "chacon-stage31-long-lag",
         "chacon-stage20-two-letter-w1"],
)
def test_sampled_values_pinned(params, w1, w2, lag, stage, samples, seed, value):
    # one randrange(valid) per sample, in order, and a hit only where w1 sits
    # at the drawn position and w2 lag symbols later: a sampler that draws
    # otherwise or reads other windows moves these values
    est = correlation(BlockDag(params), w1, w2, lag, stage, method="sampled",
                      sample_budget=samples, seed=seed)
    assert est.value == value


def test_sampled_needs_budget():
    dag = BlockDag(chacon(8))
    for budget in (None, 0, -3, True, 2.0, "5"):
        with pytest.raises(InputError, match="positive integer sample budget"):
            correlation(dag, "0", "0", 1, 5, method="sampled", sample_budget=budget)
    # Random(-s) draws exactly what Random(s) draws, and Random(None) draws
    # from OS entropy: neither replays
    for seed in (-1, None, True):
        with pytest.raises(InputError, match="seed must be >= 0"):
            correlation(dag, "0", "0", 1, 5, method="sampled", sample_budget=10, seed=seed)


def _sampled_reference(dag, w1, w2, lag, stage, samples, seed):
    """The per-sample sampler: one `randrange(valid)` per sample, then each
    word read by its own descent from the top of B_stage and compared."""
    valid = dag.height(stage) - max(len(w1), lag + len(w2)) + 1
    draw = random.Random(seed).randrange
    hits = 0
    for _ in range(samples):
        i = draw(valid)
        if (dag._extract(stage, i, i + len(w1)) == w1
                and dag._extract(stage, i + lag, i + lag + len(w2)) == w2):
            hits += 1
    return Fraction(hits, samples)


def _branches(dag, w1, w2, lag, stage, samples, seed):
    """Where `_locate` leaves the span of each drawn position: in a spacer
    run, within `_prefix`, or straddling pieces."""
    span = max(len(w1), lag + len(w2))
    return {
        "spacer" if not m else "prefix" if hi <= len(dag._prefix) else "straddle"
        for m, _, hi in (dag._locate(stage, i, i + span)
                         for i in _draws(seed, dag.height(stage) - span + 1, samples))
    }


# spacer runs of 2 and 3 symbols at every stage; a PREFIX_LIMIT of 8 leaves
# them to the descent
LONG_RUNS = ConstructionParams((3,) * 10, ((0, 2, 3),) * 10)
# runs of 40 and more: a cap of 30 builds no seam table across them
LONGER_RUNS = ConstructionParams((3,) * 6, ((0, 0, 40),) * 6)
# runs of 7, 12 and their sums, over a prefix block of 22 symbols
ONES_RUNS = ConstructionParams((3,) * 8, ((0, 7, 12),) * 8)
# runs of 9 after every other copy: over B_1, the spacers fill most of each block
SPACER_FILLED = ConstructionParams((2,) * 6, ((0, 9),) * 6)

# flat levels of at most 1 and 3 copies, and of the default _FLAT; one draw per chunk
SETTINGS = [{"_FLAT": 1}, {"_FLAT": 3}, {"_FLAT": blocks._FLAT}, {"_CHUNK": 1}]


def _sampled_counting_reads(dag, w1, w2, lag, stage, samples, seed):
    """The sampled value and how many draws the per-sample read served."""
    reads = []

    def reader(*args):
        read = _reader(*args)

        def counted(n, i):
            reads.append(i)
            return read(n, i)

        return counted

    with patch.object(blocks, "_reader", reader):
        est = correlation(dag, w1, w2, lag, stage, method="sampled", sample_budget=samples,
                          seed=seed)
    return est.value, len(reads)


@pytest.mark.parametrize(
    "params, dag_kwargs, limit, w1, w2, lag, stage, samples, seed, branch",
    [
        (chacon(30), {}, PREFIX_LIMIT, "0", "0", 40, 15, 3000, 1, "prefix"),
        (LONG_RUNS, {}, 8, "1", "11", 1, 11, 3000, 2, "spacer"),
        (katok(cuts=(100, 10000)), {}, PREFIX_LIMIT, "0", "1", 26, 3, 3000, 1, "straddle"),
        (chacon(30), {}, PREFIX_LIMIT, "0", "01", 100_000, 31, 500, 7, "straddle"),
        (chacon(30), {}, PREFIX_LIMIT, "0", "01", 0, 20, 3000, 3, "prefix"),
        (chacon(30), {"cap": 1000}, 1000, "01", "1", 3, 31, 2000, 5, "straddle"),
        (chacon(30), {}, PREFIX_LIMIT, "0", "0", 40, 11, 2000, 1, "prefix"),
        (LONGER_RUNS, {"cap": 30}, 43, "0", "0", 3, 6, 3000, 4, "spacer"),
        (ONES_RUNS, {}, 22, "111", "1111", 3, 7, 3000, 6, "spacer"),
        (SPACER_FILLED, {}, 1, "1", "1", 0, 7, 2000, 8, "spacer"),
        (chacon(45), {}, PREFIX_LIMIT, "0", "0", 40, 46, 2000, 3, "prefix"),
    ],
    ids=["inside-prefix", "inside-spacer-run", "katok-lag-26", "span-longer-than-prefix",
         "lag-0-longer-w2", "beyond-cap", "block-is-prefix", "gap-too-long",
         "all-ones-in-long-runs", "spacers-fill-the-level", "offsets-past-2**63"],
)
def test_sampler_matches_per_sample_reference(request, params, dag_kwargs, limit, w1, w2, lag,
                                              stage, samples, seed, branch):
    with patch.object(blocks, "PREFIX_LIMIT", limit):
        dag = BlockDag(params, **dag_kwargs)
    span = max(len(w1), lag + len(w2))
    case = request.node.callspec.id
    if case == "span-longer-than-prefix":
        assert span > len(dag._prefix)
    if case == "block-is-prefix":
        assert dag.height(stage) == len(dag._prefix)
    if case == "beyond-cap":
        assert dag.height(stage) > dag.cap
    if case == "gap-too-long":  # every seam table across a spacer run exceeds the cap
        assert min(2 * span - 2 + s for s in params.spacers[0] if s) > dag.cap
    if case == "offsets-past-2**63":
        assert dag.height(stage) > 2**63
    assert branch in _branches(dag, w1, w2, lag, stage, samples, seed)
    expected = _sampled_reference(dag, w1, w2, lag, stage, samples, seed)
    for setting in SETTINGS:
        with patch.multiple(blocks, **setting):
            value, reads = _sampled_counting_reads(dag, w1, w2, lag, stage, samples, seed)
        assert value == expected, setting
        # draws the tables cannot settle, and only those, are read one by one
        if case == "span-longer-than-prefix":  # read from the first level the span outgrows
            assert 0 < reads <= samples
        elif case == "gap-too-long":
            assert 0 < reads < samples
        elif case == "spacers-fill-the-level":  # no bucket index over B_1's copies in B_2
            assert 0 < reads <= samples
        else:
            assert reads == 0


def test_seam_tables_stay_under_the_cap():
    # for a span of 4 the seam tables of B_3's copies of B_2 span 3 + 3 and
    # 3 + 40 + 3 symbols: a cap of 51 leaves the draws across the run of 40
    # to the per-sample read, a cap of 52 builds both, and the seam strings
    # of the one flat level never sum to more than the cap
    texts = []

    def table(text, w1, w2, lag):
        texts.append(len(text))
        return _hit_table(text, w1, w2, lag)

    reads = {}
    for cap in (51, 52):
        with patch.object(blocks, "PREFIX_LIMIT", 43):
            dag = BlockDag(LONGER_RUNS, cap=cap)
        texts.clear()
        with patch.object(blocks, "_hit_table", table):
            value, reads[cap] = _sampled_counting_reads(dag, "0", "0", 3, 3, 3000, 9)
        assert value == _sampled_reference(dag, "0", "0", 3, 3, 3000, 9)
        assert sum(texts[:-1]) <= cap  # the last is the prefix block's table
    assert reads[51] > 0 and reads[52] == 0


def test_sampler_matches_reference_on_random_constructions(rng):
    # random bounded constructions, prefix blocks, caps, words and lags under
    # every flat-level setting: the chunked tables read what one descent per
    # draw reads
    for _ in range(80):
        params = random_bounded_params(rng, depth=rng.randint(3, 7),
                                       max_spacer=rng.choice((3, 12)))
        with patch.object(blocks, "PREFIX_LIMIT", rng.choice((1, 16, 64, 256, PREFIX_LIMIT))):
            dag = BlockDag(params, cap=rng.choice((8, 40, DEFAULT_CAP)))
        stage = rng.randint(2, dag.max_stage)
        w1, w2 = (format(rng.randrange(2 ** k), f"0{k}b") for k in (rng.randint(1, 3),
                                                                   rng.randint(1, 3)))
        lag = rng.randint(0, 6)
        if max(len(w1), lag + len(w2)) > dag.height(stage):
            continue
        seed, samples = rng.randrange(2**32), rng.randint(1, 400)
        expected = _sampled_reference(dag, w1, w2, lag, stage, samples, seed)
        for setting in SETTINGS:
            with patch.multiple(blocks, **setting):
                est = correlation(dag, w1, w2, lag, stage, method="sampled",
                                  sample_budget=samples, seed=seed)
            assert est.value == expected, (params, stage, w1, w2, lag, setting)


@pytest.mark.parametrize(
    "valid",
    [1, 2, 3, 2**20 - 1, 2**20, 2**20 + 1, 2**32 - 1, 2**32 + 1, 2**64 + 1,
     BlockDag(chacon(30)).height(31)],
)
def test_draws_replicate_randrange(valid):
    # the sampler's draws are randrange's, value for value: seeded runs keep their outputs
    for seed in (0, 1, 7, 2**31 - 1, 2**80 + 3):
        rng = random.Random(seed)
        assert list(_draws(seed, valid, 300)) == [rng.randrange(valid) for _ in range(300)]


def test_weak_limit_prediction_zero_spacer():
    # full rigidity: the lag-h correlation equals the lag-0 correlation
    vnk = von_neumann_kakutani(16)
    rows = verify_weak_limit_prediction(BlockDag(vnk), 6, 1, [("0", "0")], depth=8)
    (row,) = rows
    assert row.estimate.value == 1 and row.abs_error < 0.01


def test_weak_limit_prediction_chacon_small():
    rows = verify_weak_limit_prediction(BlockDag(chacon(26)), 9, 1, [("0", "0")], depth=12)
    (row,) = rows
    assert abs(row.predicted - Fraction(1, 2)) < Fraction(1, 50)
    assert row.abs_error <= 0.02


def test_rigid_refusals():
    gc = BlockDag(generalized_chacon(8))
    with pytest.raises(Refusal):
        verify_rigid_one_spacer(gc, Fraction(1, 2), 5, [("0", "0")], powers=(2,))
    with pytest.raises(InputError):
        verify_rigid_one_spacer(gc, Fraction(3, 2), 5, [("0", "0")])
    with pytest.raises(InputError):
        verify_rigid_one_spacer(BlockDag(chacon(8)), Fraction(1, 2), 5, [("0", "0")])
    # the family name exempts no construction from the growing-cuts hypothesis
    flat = BlockDag(generalized_chacon(8, cuts=(12,) * 8))
    with pytest.raises(InputError, match="cuts growing to infinity"):
        verify_rigid_one_spacer(flat, Fraction(1, 2), 5, [("0", "0")])


def test_rigid_lag_structure():
    gc = BlockDag(generalized_chacon(8))
    rows = verify_rigid_one_spacer(gc, Fraction(1, 2), 5, [("0", "0")], powers=(1,))
    (row,) = rows
    # floor(alpha * p_5) * h_5 with p_5 = 12, h_5 = 2491
    assert row.estimate.lag == 6 * 2491
    assert row.abs_error <= 0.05


def test_half_spacer_refusal_names_candidates():
    # h_1 = 1 and p_1 = 100: the five multiples of 2 nearest alpha*p_1/2 = 25,
    # slack round(100^0.75) = 32; 25 is no multiple of 2, and 0 is one within
    # the slack but no mixing lag
    dag = BlockDag(katok(cuts=(100, 30000)))
    for shift in (25, 0):
        with pytest.raises(Refusal) as err:
            verify_half_spacer_mixing(dag, Fraction(1, 2), 1, shift, [("0", "1")],
                                      sample_budget=10)
        assert str(err.value) == (
            f"shift {shift} must be a positive multiple of h_1+1 = 2 within 32 of 25.0; "
            "nearest candidates: [22, 24, 26, 28, 30]"
        )
    # the candidates are the nearest five, not every admissible shift
    (row,) = verify_half_spacer_mixing(dag, Fraction(1, 2), 1, 56, [("0", "1")],
                                       sample_budget=10)
    assert row.estimate.lag == 56


def test_half_spacer_builds_layouts_through_its_scan_stage():
    # the growth diagnostic reads the heights, not the layout: the dag is
    # built through the scan stage and the first stage above the cap, which
    # ends the search for it, not through the depth
    dag = BlockDag(katok(depth=20))
    (row,) = verify_half_spacer_mixing(dag, Fraction(1, 2), 1, 2, [("0", "1")],
                                       sample_budget=1000)
    assert row.estimate.stage == 6
    assert len(dag._layout) - 1 == row.estimate.stage + 1 < 20


def test_half_spacer_small_run():
    dag = BlockDag(katok(cuts=(100, 30000)))
    rows = verify_half_spacer_mixing(
        dag, Fraction(1, 2), 1, 26, [("0", "1")], sample_budget=20_000, seed=3
    )
    (row,) = rows
    assert row.estimate.method == "SAMPLED" and row.estimate.seed == 3
    f0 = dag.frequency("0", 3).frequency
    f1 = dag.frequency("1", 3).frequency
    assert row.predicted == Fraction(1, 2) * f0 * f1  # disjoint pair: no identity part
    assert row.abs_error <= 0.08
