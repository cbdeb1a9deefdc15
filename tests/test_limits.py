import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest

from rankone.construction import ConstructionParams, chacon, generalized_chacon, heights, von_neumann_kakutani
from rankone.errors import InputError, RangeError, Refusal
from rankone.limits import (
    LimitProfile,
    certify_powers,
    classify,
    detect_stabilizing,
    disjointness_certificate,
    eigenvalue_search,
    exponential_tail_ok,
    exponential_tail_proof_ok,
    flat_step,
    limit_distribution,
    profile_invariants,
    spacer_value_sets,
)
from rankone.odometer import IntegerDistribution

CHACON_PROFILE = LimitProfile.constant(3, (0, 1, 0), lo=-4, hi=16)
ZERO_PROFILE = LimitProfile.constant(2, (0, 0), lo=-4, hi=16)


def random_profile(rng, lo=1, hi=9, max_pi=4, max_eta=3):
    count = hi - lo + 1
    pis = tuple(rng.randint(2, max_pi) for _ in range(count))
    etas = tuple(
        tuple(rng.randint(0, max_eta) for _ in range(p)) for p in pis
    )
    return LimitProfile(lo, pis, etas)


def test_profile_doc_roundtrip(rng):
    bounded = LimitProfile.constant(3, (0, 2, 0), bounded_by=2)
    for profile in (CHACON_PROFILE, random_profile(rng), bounded):
        assert LimitProfile.from_doc(json.loads(json.dumps(profile.to_doc()))) == profile


def test_value_sets_examples():
    values, diffs = spacer_value_sets(CHACON_PROFILE, 0)
    assert values == {0, 1} and diffs == {-1, 0, 1}
    values, diffs = spacer_value_sets(ZERO_PROFILE, 0)
    assert values == {0} and diffs == {0}
    two = LimitProfile.constant(3, (0, 2, 0), lo=0, hi=3)
    values, diffs = spacer_value_sets(two, 1)
    assert values == {0, 2} and diffs == {-2, 0, 2}


def test_profile_invariants_examples():
    inv = profile_invariants(CHACON_PROFILE)
    assert inv.non_flat and inv.difference_gcd == 1
    inv = profile_invariants(ZERO_PROFILE)
    assert not inv.non_flat and inv.difference_gcd is None
    inv = profile_invariants(LimitProfile.constant(3, (0, 2, 0), lo=0, hi=5))
    assert inv.difference_gcd == 2


def test_limit_distribution_chacon():
    p1 = limit_distribution(CHACON_PROFILE, 1, 12, close_tail=True)
    assert p1.masses == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert p1.tail == 0
    enum = limit_distribution(CHACON_PROFILE, 1, 12)
    for v in (0, 1):
        assert abs(enum.mass(v) - Fraction(1, 2)) <= Fraction(1, 3**12)
    assert limit_distribution(CHACON_PROFILE, 2, 12).support() == (0, 1, 2)


def test_limit_distribution_zero_spacer():
    for j in (1, 3):
        d = limit_distribution(ZERO_PROFILE, j, 10)
        assert d.support() == (0,)


def test_close_tail_refusals():
    with pytest.raises(Refusal):
        limit_distribution(CHACON_PROFILE, 2, 8, close_tail=True)
    bumpy = LimitProfile.constant(2, (0, 1), lo=1, hi=10)  # spacer on full column
    with pytest.raises(Refusal):
        limit_distribution(bumpy, 1, 8, close_tail=True)


def test_limit_distribution_window_requirement():
    short = LimitProfile.constant(3, (0, 1, 0), lo=1, hi=4)
    with pytest.raises(RangeError):
        limit_distribution(short, 1, 8)


def test_detect_stabilizing_constant():
    cands = detect_stabilizing(chacon(24), window=(2, 8), search_range=(3, 12))
    assert len(cands) == 1
    assert cands[0].indices == tuple(range(3, 13))
    assert cands[0].arithmetic == (3, 1)
    assert cands[0].profile.pi(0) == 3 and cands[0].profile.eta(0) == (0, 1, 0)


def test_detect_stabilizing_alternating():
    alt = ConstructionParams(cuts=(2, 3) * 8, spacers=((0, 1), (1, 0, 0)) * 8)
    cands = detect_stabilizing(alt, window=(1, 2), search_range=(2, 13))
    assert len(cands) == 2
    assert [c.arithmetic for c in cands] == [(2, 2), (3, 2)]


def test_detect_stabilizing_growing_cuts_empty():
    assert detect_stabilizing(generalized_chacon(16), window=(1, 2), search_range=(2, 13)) == []


def test_detect_stabilizing_refuses_an_empty_range():
    # a one-index range is searched (one index repeats nothing); a reversed one is refused
    assert detect_stabilizing(chacon(24), window=(2, 8), search_range=(7, 7)) == []
    for search_range in [(9, 4), (8, 7)]:
        with pytest.raises(RangeError, match="empty search range"):
            detect_stabilizing(chacon(24), window=(2, 8), search_range=search_range)
    # no range was given: the default one is empty, and the refusal names the depth it needs
    with pytest.raises(RangeError, match=r"needs a construction of depth >= 16, not 10"):
        detect_stabilizing(chacon(10), window=(2, 13))


def test_certificate_chacon_pairs():
    verdicts = certify_powers(CHACON_PROFILE, list(combinations(range(1, 6), 2)), depth=12)
    assert all(v.verdict == "DISJOINT" for v in verdicts)
    lookup = {v.pair: v for v in verdicts}
    assert "1 = 1*1" in lookup[(1, 2)].witness and "2 does not divide 1" in lookup[(1, 2)].witness


def test_certificate_inconclusive_cases():
    d = limit_distribution(CHACON_PROFILE, 1, 10)
    same = disjointness_certificate(d, d, 2, 2)
    assert same.verdict == "INCONCLUSIVE" and "identical" in same.witness
    flat = limit_distribution(ZERO_PROFILE, 1, 10)
    flat2 = limit_distribution(ZERO_PROFILE, 2, 10)
    v = disjointness_certificate(flat, flat2, 1, 2)
    assert v.verdict == "INCONCLUSIVE"


def test_certificate_exhaustion_route():
    # with a closed (tail-free) distribution, absence from the support is proof
    p1 = limit_distribution(CHACON_PROFILE, 1, 12, close_tail=True)
    skewed = IntegerDistribution.from_map({0: Fraction(1, 2), 5: Fraction(1, 2)})
    v = disjointness_certificate(p1, skewed, 1, 1)
    assert v.verdict == "INCONCLUSIVE"  # identical powers short-circuits
    v = disjointness_certificate(p1, skewed, 2, 1)
    assert v.verdict == "DISJOINT" and "exhaustively" in v.witness


def test_window_shift_equivalence():
    pairs = list(combinations(range(1, 5), 2))
    base = certify_powers(CHACON_PROFILE, pairs, depth=10)
    for k in (-2, 3):
        shifted = replace(CHACON_PROFILE, lo=CHACON_PROFILE.lo + k)
        inv0, inv1 = profile_invariants(CHACON_PROFILE), profile_invariants(shifted)
        assert (inv0.non_flat, inv0.difference_gcd) == (inv1.non_flat, inv1.difference_gcd)
        again = certify_powers(shifted, pairs, depth=10)
        assert [v.verdict for v in again] == [v.verdict for v in base]


# -- support and decay property suites --------------------------------------------


def test_support_pairs_realize_window_differences(rng):
    # positive window differences with enough room above the power reappear
    # as gaps in the enumerated support
    checked = 0
    for _ in range(30):
        prof = random_profile(rng, lo=1, hi=9)
        for j in (1, 2, 3, 4):
            m = 4  # 2^(m-1) = 8 > j
            _, diffs = spacer_value_sets(prof, m)
            dist = limit_distribution(prof, j, 8)
            support = set(dist.support())
            for d in {abs(x) for x in diffs if x}:
                assert any(a + d in support for a in support), (prof, j, d)
                checked += 1
    assert checked > 50


def test_support_differences_multiples_of_gcd(rng):
    for _ in range(30):
        prof = random_profile(rng, lo=1, hi=9)
        inv = profile_invariants(prof)
        if inv.difference_gcd is None:
            continue
        d = inv.difference_gcd
        for j in (1, 2, 3):
            support = limit_distribution(prof, j, 8).support()
            assert all((a - b) % d == 0 for a in support for b in support)


def test_exponential_tail_proof_bound(rng):
    # the provable decay constant holds on every bounded profile
    for _ in range(30):
        prof = random_profile(rng, lo=1, hi=9)
        bound = prof.eta_bound()
        for j in (1, 2, 3):
            dist = limit_distribution(prof, j, 8)
            assert exponential_tail_proof_ok(dist, j, bound)


def test_exponential_tail_pinned_constant_on_named_profiles():
    # the tighter pinned constant does hold for the named families
    for prof in (CHACON_PROFILE, ZERO_PROFILE):
        for j in (1, 2, 3):
            dist = limit_distribution(prof, j, 10)
            assert exponential_tail_ok(dist, j, max(1, prof.eta_bound()))


def test_exponential_tail_pinned_constant_counterexample():
    # profiles with the maximal spacer on most early columns beat the pinned
    # constant: the full column carries 0 and the next coordinate adds 3, so
    # all determined mass (6560/6561 at depth 8) sits at 3, above the
    # allowance 2^(-1)
    prof = LimitProfile.constant(3, (3, 3, 0), lo=1, hi=10)
    dist = limit_distribution(prof, 1, 8)
    assert dist.mass_at_least(3) > Fraction(1, 2)
    assert not exponential_tail_ok(dist, 1, 3)
    assert exponential_tail_proof_ok(dist, 1, 3)


# -- flat steps, classification, eigenvalues -------------------------------------


def test_flat_step_examples():
    assert flat_step(von_neumann_kakutani(6), 3)
    assert not flat_step(chacon(6), 3)
    fp = ConstructionParams(cuts=(2, 2), spacers=((1, 0), (1, 1)))
    assert flat_step(fp, 1)


def test_classify_trio(rng):
    assert classify(von_neumann_kakutani(12)).kind == "ODOMETER"
    assert classify(chacon(20), max_order=12).kind == "WEAKLY_MIXING_CANDIDATE"
    sigma = [rng.choice((0, 2)) for _ in range(14)]
    sigma[0], sigma[1] = 0, 2
    parity = ConstructionParams(cuts=(3,) * 14, spacers=tuple((1, 1, s) for s in sigma))
    result = classify(parity, max_order=12)
    assert result.kind == "FINITE_RATIONAL_EIGENVALUES"
    assert result.eigenvalue_orders == (2,)


def test_classify_folds_heights_without_holding_them():
    # the eigenvalue gcd folds h_n + s over the height recursion as it runs:
    # a depth-20000 chacon's heights and widths held whole take 80 MiB
    tracemalloc.start()
    try:
        kind = classify(chacon(20_000)).kind
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kind == "WEAKLY_MIXING_CANDIDATE"
    assert peak < 4 * 2**20


def test_eigenvalue_search_examples():
    assert eigenvalue_search(chacon(20), 12, (3, 20)) == ()
    zs = ConstructionParams(cuts=(2,) * 12, spacers=((0, 0),) * 12)
    assert eigenvalue_search(zs, 12, (3, 10)) == (2, 4)


def test_eigenvalue_search_equals_the_brute_force_filter():
    # the orders are found as divisor pairs (d, g // d) with d <= sqrt(g): the
    # tuple must equal the filter over every k in 2..max_order.  Rows of one
    # spacer value make g large, with square and prime-power factors
    rng = random.Random(22)
    for _ in range(80):
        cuts = tuple(rng.randint(2, 4) for _ in range(rng.randint(2, 7)))
        spacers = tuple((rng.randint(0, 3),) * p if rng.random() < 0.7
                        else tuple(rng.randint(0, 3) for _ in range(p)) for p in cuts)
        params = ConstructionParams(cuts, spacers)
        n0 = rng.randint(1, params.depth)
        n1 = rng.randint(n0, params.depth)
        hs = heights(params, n1)
        terms = [hs[n - 1] + s for n in range(n0, n1 + 1) for s in params.spacer_row(n)[:-1]]
        g = 0
        for t in terms:
            g = gcd(g, t)
        for max_order in {2, 3, 12, 1000, g - 1, g, g + 1, max(2, isqrt(g)), isqrt(g) + 1}:
            if max_order < 2:
                continue
            brute = tuple(k for k in range(2, max_order + 1) if all(t % k == 0 for t in terms))
            assert eigenvalue_search(params, max_order, (n0, n1)) == brute


def test_unbounded_refusals():
    gc = generalized_chacon(10)
    with pytest.raises(Refusal):
        classify(gc)
    with pytest.raises(Refusal):
        eigenvalue_search(gc, 8, (2, 8))


def test_profile_validation():
    with pytest.raises(InputError):
        LimitProfile(0, (1,), ((0,),))
    with pytest.raises(InputError):
        LimitProfile(0, (2,), ((0, 5),), bounded_by=3)
    prof = LimitProfile(0, (2,), ((0, 1),))
    assert prof.eta_bound() == 1
