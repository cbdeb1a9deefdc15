"""Empirical weak-limit checks via cylinder correlations in deep blocks.

The correlation of two words at a lag is the exact fraction of positions of a
deep block carrying the first word at i and the second at i + lag.  Exact
values count the pairs by the layout descent of `BlockDag`, and the cap
bounds each string that descent builds, not the block's length.

Sampled estimates draw seeded uniform positions, the values `randrange`
draws in the same order (by its own rejection loop on `getrandbits`), with a
Hoeffding 95% half-width; `BlockDag._sampled_hits` counts their hits.

The verification routines compare measured correlations at the structured
lags against the convex combinations predicted by the limit laws:

- `verify_weak_limit_prediction(dag, stage, j, pairs, depth, scan_stage)`:
  distribution-weighted lags;
- `verify_rigid_one_spacer(dag, alpha, stage, pairs, powers, scan_stage)`:
  the one-spacer family's alpha*shift + (1-alpha)*identity limit;
- `verify_half_spacer_mixing(dag, alpha, stage, shift_count, pairs,
  sample_budget, seed, scan_stage)`: the half-spacered family's
  alpha*product + (1-alpha)*identity limit.

Each reads the construction from `dag.params`, so the blocks scanned and
the laws predicted come from one construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .blocks import _check_word
from .construction import _half_spacered, _one_spacer, heights
from .errors import InputError, RangeError, Refusal
from .odometer import cocycle_distribution

HOEFFDING_95 = math.log(2 / 0.05)


@dataclass(frozen=True)
class CorrelationEstimate:
    w1: str
    w2: str
    lag: int
    stage: int
    value: Fraction
    method: str  # EXACT_SCAN | SAMPLED
    samples: int = None
    ci: float = None  # 95% Hoeffding half-width when sampled
    seed: int = None


def _draws(seed, valid, count):
    """`count` positions in [0, valid) from `random.Random(seed)`: the values
    `randrange(valid)` draws, in the same order, by its own rejection loop on
    `getrandbits`, without its argument handling."""
    getrandbits = random.Random(seed).getrandbits
    k = valid.bit_length()
    for _ in range(count):
        i = getrandbits(k)
        while i >= valid:
            i = getrandbits(k)
        yield i


def correlation(dag, w1, w2, lag, stage, method="exact", sample_budget=None, seed=None):
    """Joint frequency of (w1 at i, w2 at i + lag) over one block."""
    _check_word(w1)
    _check_word(w2)
    span = max(len(w1), lag + len(w2))
    valid = dag.height(stage) - span + 1
    if lag < 0 or valid < 1:
        raise RangeError(f"lag {lag} leaves no valid positions in stage {stage}")
    if method == "exact":
        hits = dag._count(w1, w2, lag, stage, capped=True)
        return CorrelationEstimate(w1, w2, lag, stage, Fraction(hits, valid), "EXACT_SCAN")
    if method == "sampled":
        if type(sample_budget) is not int or sample_budget < 1:  # True is no budget
            raise InputError("sampled correlation needs a positive integer sample budget")
        if type(seed) is not int or seed < 0:
            # Random(None) seeds from OS entropy, so the draws could not be replayed;
            # Random(-s) seeds as Random(s) does: the draws would repeat another seed's
            raise InputError("the sampler's seed must be >= 0 and an integer")
        hits = dag._sampled_hits(w1, w2, lag, stage, _draws(seed, valid, sample_budget))
        ci = math.sqrt(HOEFFDING_95 / (2 * sample_budget))
        return CorrelationEstimate(
            w1, w2, lag, stage, Fraction(hits, sample_budget), "SAMPLED", sample_budget, ci, seed
        )
    raise InputError(f"unknown method {method!r}")


@dataclass(frozen=True)
class LimitCheckRow:
    family: str
    label: str  # j or alpha being tested
    estimate: CorrelationEstimate  # the observed correlation: stage, lag, words, method, seed
    predicted: Fraction
    ci: float  # katok: Hoeffding half-width; verify-pj: declared tail; rigid: 0.0

    @property
    def abs_error(self):
        return float(abs(self.estimate.value - self.predicted))


def _word_margin(pairs, extra):
    """Room a scan window needs beyond the lag: the longest word plus `extra`."""
    return max(max(len(a), len(b)) for a, b in pairs) + extra


def _scan_stage_for(dag, lag, margin, requested=None, deepest=False):
    """`requested` if its block holds lag + margin symbols; otherwise the
    shallowest materializable block holding 4 * lag + margin (skipped when
    `deepest`), else the deepest one if it holds lag + margin."""
    if requested is not None:
        if dag.height(requested) < lag + margin:
            raise RangeError(f"stage {requested} too shallow for lag {lag}")
        return requested
    # prefer blocks several lags deep: a shallow scan window covers only the
    # first columns of the period and biases the column statistics
    if not deepest:
        for n in range(1, dag.max_stage + 1):
            if dag.height(n) > dag.cap:  # heights grow with the stage: none past here fits
                break
            if 4 * lag + margin <= dag.height(n):
                return n
    stage = dag.deepest_materializable()
    if stage is not None and dag.height(stage) >= lag + margin:
        return stage
    raise Refusal(f"no materializable stage fits lag {lag}")


def verify_weak_limit_prediction(dag, stage, j, pairs, depth=12, scan_stage=None):
    """Correlation at lag j*h_{stage+1} in the blocks of `dag` against its
    distribution-weighted prediction.

    The predicted value is sum_v P(v) * corr(w2, w1, v) with P the exact law
    of the j-fold centered cocycle sum at `stage` (the small-lag side runs
    through the inverse, so the words swap roles); the declared tail mass (at
    most j * 2^-depth) is the only unweighted remainder."""
    dist = cocycle_distribution(dag.params, stage, j, depth)
    if not dist.masses:
        raise Refusal(f"the law at depth {depth} enumerates no mass, only its tail "
                      f"{dist.tail}; raise the depth (--depth)")
    lag = j * dag.height(stage + 1)
    scan = _scan_stage_for(dag, lag, _word_margin(pairs, max(dist.support())), scan_stage)
    return [
        LimitCheckRow(
            dag.params.family,
            f"j={j}",
            correlation(dag, w1, w2, lag, scan),
            sum(
                (mass * correlation(dag, w2, w1, v, scan).value for v, mass in dist.masses),
                Fraction(0),
            ),
            float(dist.tail),
        )
        for w1, w2 in pairs
    ]


def verify_rigid_one_spacer(dag, alpha, stage, pairs, powers=(1,), scan_stage=None):
    """One-spacer family in the blocks of `dag`: corr(lag j*floor(alpha*p_n)*h_n)
    vs j*alpha*corr(1) + (1 - j*alpha)*corr(0), for each requested power.

    Any family qualifies whose rows each hold one spacer and whose cuts grow."""
    params = dag.params
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    if not all(map(_one_spacer, params.spacers)):
        raise InputError("needs the one-spacer-per-stage family")
    if not all(a < b for a, b in zip(params.cuts, params.cuts[1:])):
        raise InputError("the rigidity limit needs cuts growing to infinity")
    bad = [j for j in powers if not 0 < j * alpha < 1]
    if bad:
        raise Refusal(f"powers {bad} put j*alpha outside (0, 1)")
    shift = int(alpha * params.cut(stage))  # floor: alpha rational
    base_lag = shift * dag.height(stage)
    scan = _scan_stage_for(dag, max(powers) * base_lag, _word_margin(pairs, 2), scan_stage)
    return [
        LimitCheckRow(
            params.family,
            f"alpha={alpha},j={j}",
            correlation(dag, w1, w2, j * base_lag, scan),
            # the unit-shift side runs through the inverse: words swap roles
            j * alpha * correlation(dag, w2, w1, 1, scan).value
            + (1 - j * alpha) * correlation(dag, w1, w2, 0, scan).value,
            0.0,
        )
        for j in powers
        for w1, w2 in pairs
    ]


def _shift_window(dag, alpha, stage):
    """h_n, the target alpha*p_n/2, the slack round(p_n^{3/4}) and the five
    multiples of h_n + 1 nearest the target."""
    p = dag.params.cut(stage)
    h = dag.height(stage)
    target = alpha * p / 2
    slack = int(round(p ** 0.75))
    modulus = h + 1
    center = int(target / modulus + Fraction(1, 2)) * modulus
    cands = sorted(
        {center + k * modulus for k in (-2, -1, 0, 1, 2) if center + k * modulus > 0}
    )
    return h, target, slack, cands


def verify_half_spacer_mixing(
    dag, alpha, stage, shift_count, pairs, sample_budget=1_000_000, seed=0, scan_stage=None
):
    """Half-spacered family in the blocks of `dag`: sampled corr(lag shift*h_n)
    vs alpha*freq(A)*freq(B) + (1-alpha)*corr(0).

    Any family qualifies whose rows each put spacers on the second half of an
    even cut.  The shift count must be a positive multiple of h_n + 1 and sit
    within the slack window p_n^{3/4} of alpha*p_n/2; otherwise the nearest
    valid candidates are reported in a refusal."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    params = dag.params
    if not all(map(_half_spacered, params.spacers)):
        raise InputError("needs the half-spacered family: spacers 0^(p/2) 1^(p/2) per stage")
    h, target, slack, cands = _shift_window(dag, alpha, stage)
    if shift_count < 1 or shift_count % (h + 1) != 0 or abs(shift_count - target) > slack:
        raise Refusal(
            f"shift {shift_count} must be a positive multiple of h_{stage}+1 = {h + 1} within "
            f"{slack} of {float(target):.1f}; nearest candidates: {cands}"
        )
    # prefix diagnostic of the fast-growth hypothesis
    ratios = [Fraction(p, h) for p, h in zip(params.cuts, heights(params, params.depth))]
    growing = all(a < b for a, b in zip(ratios, ratios[1:]))
    lag = shift_count * h
    scan = _scan_stage_for(dag, lag, _word_margin(pairs, 2), scan_stage, deepest=True)
    label = f"alpha={alpha}" + ("" if growing else " [growth hypothesis unmet on prefix]")
    rows = []
    for w1, w2 in pairs:
        freq1 = dag.frequency(w1, scan).frequency
        freq2 = dag.frequency(w2, scan).frequency
        predicted = alpha * freq1 * freq2 + (1 - alpha) * correlation(dag, w1, w2, 0, scan).value
        observed = correlation(
            dag, w1, w2, lag, scan, method="sampled", sample_budget=sample_budget, seed=seed
        )
        rows.append(LimitCheckRow(params.family, label, observed, predicted, observed.ci))
    return rows
