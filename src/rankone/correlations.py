"""Empirical weak-limit checks via cylinder correlations in deep blocks.

The correlation of two words at a lag is the exact fraction of positions of a
deep block carrying the first word at i and the second at i + lag.  Exact
scans materialize the block (cap permitting); sampled estimates draw seeded
uniform positions and read symbols through the recursive layout, with a
Hoeffding 95% half-width.  The verification routines compare measured
correlations at the structured lags against the convex combinations predicted
by the limit laws (distribution-weighted lags, the one-spacer family's
alpha*shift + (1-alpha)*identity limit, and the half-spacered family's
alpha*product + (1-alpha)*identity limit).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .blocks import BlockDag, _check_word
from .construction import heights
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


def _valid_positions(dag, w1, w2, lag, stage):
    span = max(len(w1), lag + len(w2))
    valid = dag.height(stage) - span + 1
    if lag < 0 or valid < 1:
        raise RangeError(f"lag {lag} leaves no valid positions in stage {stage}")
    return valid


def correlation(dag, w1, w2, lag, stage, method="exact", sample_budget=None, seed=None):
    """Joint frequency of (w1 at i, w2 at i + lag) over one block."""
    _check_word(w1)
    _check_word(w2)
    valid = _valid_positions(dag, w1, w2, lag, stage)
    if method == "exact":
        text = dag.materialize(stage)
        hits = 0
        pos = text.find(w1)
        while 0 <= pos < valid:
            if text.startswith(w2, pos + lag):
                hits += 1
            pos = text.find(w1, pos + 1)
        return CorrelationEstimate(w1, w2, lag, stage, Fraction(hits, valid), "EXACT_SCAN")
    if method == "sampled":
        if not sample_budget or sample_budget < 1:
            raise InputError("sampled correlation needs a positive sample budget")
        rng = random.Random(seed)
        hits = 0
        for _ in range(sample_budget):
            i = rng.randrange(valid)
            if dag.extract(stage, i + 1, len(w1)) == w1 and dag.extract(
                stage, i + 1 + lag, len(w2)
            ) == w2:
                hits += 1
        ci = math.sqrt(HOEFFDING_95 / (2 * sample_budget))
        return CorrelationEstimate(
            w1, w2, lag, stage, Fraction(hits, sample_budget), "SAMPLED", sample_budget, ci, seed
        )
    raise InputError(f"unknown method {method!r}")


@dataclass(frozen=True)
class LimitCheckRow:
    family: str
    stage: int
    label: str  # j or alpha being tested
    lag: int
    w1: str
    w2: str
    observed: Fraction
    predicted: Fraction
    ci: float
    method: str = "EXACT_SCAN"
    seed: int = None

    @property
    def abs_error(self):
        return float(abs(self.observed - self.predicted))


def _exact_lookup(dag, stage):
    """Memoised exact correlation values (w1, w2, lag) -> Fraction on one stage."""

    @lru_cache(maxsize=None)
    def corr(w1, w2, lag):
        return correlation(dag, w1, w2, lag, stage).value

    return corr


def _word_margin(pairs, extra):
    """Room a scan window needs beyond the lag: the longest word plus `extra`."""
    return max(max(len(a), len(b)) for a, b in pairs) + extra


def _scan_stage_for(dag, lag, margin, requested=None):
    # prefer blocks several lags deep: a shallow scan window covers only the
    # first columns of the period and biases the column statistics
    if requested is not None:
        if dag.height(requested) < lag + margin:
            raise RangeError(f"stage {requested} too shallow for lag {lag}")
        return requested
    for n in range(1, dag.max_stage + 1):
        if 4 * lag + margin <= dag.height(n) <= dag.cap:
            return n
    deepest = dag.deepest_materializable()
    if deepest is not None and dag.height(deepest) >= lag + margin:
        return deepest
    raise Refusal(f"no materializable stage fits lag {lag}")


def verify_weak_limit_prediction(
    params, stage, j, pairs, depth=12, scan_stage=None, dag=None
):
    """Correlation at lag j*h_{stage+1} against its distribution-weighted prediction.

    The predicted value is sum_v P(v) * corr(w2, w1, v) with P the exact law
    of the j-fold centered cocycle sum at `stage` (the small-lag side runs
    through the inverse, so the words swap roles); the declared tail mass (at
    most j * 2^-depth) is the only unweighted remainder."""
    dag = dag or BlockDag(params)
    dist = cocycle_distribution(params, stage, j, depth)
    lag = j * dag.height(stage + 1)
    scan = _scan_stage_for(dag, lag, _word_margin(pairs, max(dist.support())), scan_stage)
    corr = _exact_lookup(dag, scan)
    return [
        LimitCheckRow(
            params.family,
            scan,
            f"j={j}",
            lag,
            w1,
            w2,
            corr(w1, w2, lag),
            sum((mass * corr(w2, w1, v) for v, mass in dist.masses), Fraction(0)),
            float(dist.tail),
        )
        for w1, w2 in pairs
    ]


def verify_rigid_one_spacer(params, alpha, stage, pairs, powers=(1,), scan_stage=None, dag=None):
    """One-spacer family: corr(lag j*floor(alpha*p_n)*h_n) vs
    j*alpha*corr(1) + (1 - j*alpha)*corr(0), for each requested power."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    if params.family != "generalized_chacon":
        for row in params.spacers:
            if sorted(row) != [0] * (len(row) - 1) + [1]:
                raise InputError("needs the one-spacer-per-stage family")
        if not all(a < b for a, b in zip(params.cuts, params.cuts[1:])):
            raise InputError("the rigidity limit needs cuts growing to infinity")
    bad = [j for j in powers if j * alpha >= 1]
    if bad:
        raise Refusal(f"powers {bad} put j*alpha outside (0, 1)")
    dag = dag or BlockDag(params)
    shift = int(alpha * params.cut(stage))  # floor: alpha rational
    base_lag = shift * dag.height(stage)
    scan = _scan_stage_for(dag, max(powers) * base_lag, _word_margin(pairs, 2), scan_stage)
    corr = _exact_lookup(dag, scan)
    return [
        LimitCheckRow(
            params.family,
            scan,
            f"alpha={alpha},j={j}",
            j * base_lag,
            w1,
            w2,
            corr(w1, w2, j * base_lag),
            # the unit-shift side runs through the inverse: words swap roles
            j * alpha * corr(w2, w1, 1) + (1 - j * alpha) * corr(w1, w2, 0),
            0.0,
        )
        for j in powers
        for w1, w2 in pairs
    ]


def _shift_window(params, alpha, stage, slack):
    """h_n, the target alpha*p_n/2, the slack and the five multiples of
    h_n + 1 nearest the target."""
    h = heights(params, stage).h(stage)
    p = params.cut(stage)
    target = alpha * p / 2
    slack = slack if slack is not None else int(round(p ** 0.75))
    modulus = h + 1
    center = int(target / modulus + Fraction(1, 2)) * modulus
    cands = sorted(
        {center + k * modulus for k in (-2, -1, 0, 1, 2) if center + k * modulus > 0}
    )
    return h, target, slack, cands


def half_spacer_shift_candidates(params, alpha, stage, slack=None):
    """Admissible shift counts: multiples of h_n + 1 within slack of alpha*p_n/2."""
    _, target, slack, cands = _shift_window(params, Fraction(alpha), stage, slack)
    return [c for c in cands if abs(c - target) <= slack], cands, slack


def verify_half_spacer_mixing(
    params,
    alpha,
    stage,
    shift_count,
    pairs,
    sample_budget=1_000_000,
    seed=0,
    scan_stage=None,
    slack=None,
    dag=None,
):
    """Half-spacered family: sampled corr(lag shift*h_n) vs
    alpha*freq(A)*freq(B) + (1-alpha)*corr(0).

    The shift count must be a multiple of h_n + 1 and sit within the slack
    window (default p_n^{3/4}) of alpha*p_n/2; otherwise the nearest valid
    candidates are reported in a refusal."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    dag = dag or BlockDag(params)
    h, target, slack, cands = _shift_window(params, alpha, stage, slack)
    if shift_count % (h + 1) != 0 or abs(shift_count - target) > slack:
        raise Refusal(
            f"shift {shift_count} must be a multiple of h_{stage}+1 = {h + 1} within "
            f"{slack} of {float(target):.1f}; nearest candidates: {cands}"
        )
    # prefix diagnostic of the fast-growth hypothesis
    ratios = [Fraction(params.cut(k), dag.height(k)) for k in range(1, params.depth + 1)]
    growing = all(a < b for a, b in zip(ratios, ratios[1:]))
    lag = shift_count * h
    # the deepest materializable block, not _scan_stage_for's shallowest fit
    scan = dag.deepest_materializable() if scan_stage is None else scan_stage
    if scan is None or dag.height(scan) < lag + _word_margin(pairs, 2):
        raise Refusal(f"no materializable stage fits lag {lag}")
    corr = _exact_lookup(dag, scan)
    rows = []
    for w1, w2 in pairs:
        freq1 = dag.frequency(w1, scan).frequency
        freq2 = dag.frequency(w2, scan).frequency
        predicted = alpha * freq1 * freq2 + (1 - alpha) * corr(w1, w2, 0)
        observed = correlation(
            dag, w1, w2, lag, scan, method="sampled", sample_budget=sample_budget, seed=seed
        )
        rows.append(
            LimitCheckRow(
                params.family,
                scan,
                f"alpha={alpha}" + ("" if growing else " [growth hypothesis unmet on prefix]"),
                lag,
                w1,
                w2,
                observed.value,
                predicted,
                observed.ci,
                "SAMPLED",
                seed,
            )
        )
    return rows
