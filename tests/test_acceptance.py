"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`.  Criterion 5 is split: the
support/decay realizations assert the provable tail constant; the pinned tail
constant is evaluated verbatim in its own test, which reports the profiles that
exceed it and asserts that none exceeds it by a factor 2 or more (see README:
the constant overclaims the provable exponent by one binary order, with
explicit counterexamples).
"""

import csv
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from rankone.blocks import BlockDag, abc_decompose, abc_threshold, max_spacer_run
from rankone.cli import replay_manifest, run_argv
from rankone.construction import (
    ConstructionParams,
    chacon,
    generalized_chacon,
    heights,
    katok,
    spacer_stats,
    von_neumann_kakutani,
)
from rankone.correlations import (
    verify_half_spacer_mixing,
    verify_rigid_one_spacer,
    verify_weak_limit_prediction,
)
from rankone.limits import (
    LimitProfile,
    certify_powers,
    classify,
    exponential_tail_ok,
    exponential_tail_proof_ok,
    limit_distribution,
    profile_invariants,
    spacer_value_sets,
)
from rankone.odometer import (
    OdometerPoint,
    cocycle_distribution,
    cocycle_sum,
    g_function,
    spacer_cocycle,
)
from rankone.sarnak import eigen_suspension_averages, mertens, mobius_sieve

CHACON_PROFILE = LimitProfile.constant(3, (0, 1, 0), lo=-4, hi=16)
ZERO_PROFILE = LimitProfile.constant(2, (0, 0), lo=-4, hi=16)

# frozen baseline for criterion 12 (recorded from the first run of this exact
# manifest; reruns must reproduce it byte for byte)
SARNAK_BASELINE_ARGS = [
    "sarnak", "--config", "chacon:depth=30", "--observable", "cyl:0",
    "--center-value", "2/3", "--N", "1000000", "--stage", "15", "--offset", "1",
]
SARNAK_BASELINE_DIGEST = (
    "sha256:252e3c87a81fc16d124888952624dbebc174a4284dc3dc101d0787003a5d7d87"
)
SARNAK_BASELINE_FINAL = Fraction(353, 3000000)


def report(tag, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {tag}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -- criterion 1 --------------------------------------------------------------


def test_criterion_01_block_identity():
    ok = BlockDag(chacon(4)).materialize(3) == "0010001010010"
    families = {
        "chacon": chacon(20),
        "vnk": von_neumann_kakutani(20),
        "generalized_chacon": generalized_chacon(20),
        "katok": katok(depth=20),
    }
    for name, params in families.items():
        dag = BlockDag(params)
        hs = heights(params, 20)
        for n in range(1, 21):
            h = hs[n - 1]
            if h <= 1_000_000:
                ok = ok and len(dag.materialize(n)) == h
            if n >= 2:
                # the child layout must tile the block exactly
                starts = [c for _, _, c in dag.segments(n, 0, h) if c is not None]
                last_end = starts[-1] + hs[n - 2] + params.spacer_row(n - 1)[-1]
                ok = ok and last_end == h and starts[0] == 0
    report("criterion 1: block identity and lengths", ok)


# -- criterion 2 --------------------------------------------------------------


def _orbit_values(cuts, evaluate, steps):
    coords = [0] * len(cuts)
    out = []
    for _ in range(steps):
        out.append(evaluate(coords))
        i = 0
        while i < len(cuts):
            coords[i] += 1
            if coords[i] < cuts[i]:
                break
            coords[i] = 0
            i += 1
    return out


def _prefix(values):
    sums = [0]
    nones = [0]
    for v in values:
        sums.append(sums[-1] + (v or 0))
        nones.append(nones[-1] + (v is None))
    return sums, nones


def test_criterion_02_cocycle_identities_exact():
    rng = random.Random(20260810)
    sets = 0
    while sets < 50:
        cuts, q = [], 1
        while True:
            p = rng.randint(2, 5)
            if q * p > 100_000 or (len(cuts) >= 3 and rng.random() < 0.2):
                break
            q *= p
            cuts.append(p)
        n = len(cuts)
        if n < 3:
            continue
        spacers = tuple(tuple(rng.randint(0, 3) for _ in range(p)) for p in cuts)
        params = ConstructionParams(tuple(cuts), spacers)
        hs = heights(params, n)
        q_n = math.prod(params.cuts[:n])
        rows = params.spacers
        full = [p - 1 for p in cuts]

        def stage_spacer(coords, stage=n):
            for k in range(stage - 1):
                if coords[k] != full[k]:
                    return 0
            return rows[stage - 1][coords[stage - 1]]

        def roof_to(coords, stage=n):
            total = 1
            for m in range(stage):
                total += rows[m][coords[m]]
                if coords[m] != full[m]:
                    break
            return total

        # constant full-width sums, their multiples, and the height identity,
        # checked at every one of the q_n base points via prefix sums
        vals = _orbit_values(cuts[:n], stage_spacer, 6 * q_n)
        pref, _ = _prefix(vals)
        total = sum(rows[n - 1])
        assert all(pref[k + q_n] - pref[k] == total for k in range(q_n))
        for j in (2, 3, 5):
            assert all(pref[k + j * q_n] - pref[k] == j * total for k in range(q_n))
        vals = _orbit_values(cuts[:n], roof_to, 2 * q_n)
        pref, _ = _prefix(vals)
        assert all(pref[k + q_n] - pref[k] == hs[n] for k in range(q_n))

        # spread-function identity at a shallower stage over a full depth-r
        # enumeration: every base point where both sides are determined
        r = max(k for k in range(1, n + 1) if math.prod(params.cuts[:k]) <= 8000)
        np_candidates = [k for k in range(1, r - 1) if math.prod(params.cuts[:k]) <= 100]
        if not np_candidates:
            continue
        n_small = max(np_candidates)
        q_small = math.prod(params.cuts[:n_small])
        q_r = math.prod(params.cuts[:r])

        def ftail(coords):
            t0 = None
            for k in range(r):
                if coords[k] != full[k]:
                    t0 = k + 1
                    break
            if t0 is None:
                return None
            return sum(rows[m - 1][coords[m - 1]] for m in range(n_small + 1, t0 + 1))

        def gval(coords):
            acc = 0
            for m in range(n_small + 1, r + 1):
                acc += rows[m - 1][coords[m - 1]]
                if coords[m - 1] != full[m - 1]:
                    return acc
            return None

        def roof_full(coords):
            t0 = None
            for k in range(r):
                if coords[k] != full[k]:
                    t0 = k + 1
                    break
            if t0 is None:
                return None
            return 1 + sum(rows[m - 1][coords[m - 1]] for m in range(1, t0 + 1))

        fvals = _orbit_values(cuts[:r], ftail, q_r)
        gvals = _orbit_values(cuts[:r], gval, q_r)
        rvals = _orbit_values(cuts[:r], roof_full, q_r)
        fpref, fnone = _prefix(fvals)
        rpref, rnone = _prefix(rvals)
        checked = 0
        for j in (1, 2):
            span = j * q_small
            for k in range(q_r - span):
                rhs_parts = [gvals[k + l * q_small] for l in range(j)]
                if any(v is None for v in rhs_parts):
                    continue
                rhs = sum(rhs_parts)
                if fnone[k + span] - fnone[k] == 0:
                    assert fpref[k + span] - fpref[k] == rhs
                    checked += 1
                if rnone[k + span] - rnone[k] == 0:
                    lhs = rpref[k + span] - rpref[k]
                    assert lhs - j * hs[n_small] == rhs
        assert checked > 0

        # the public point API agrees with the inline enumeration
        for _ in range(3):
            coords = tuple(rng.randrange(p) for p in cuts[: r - 1]) + (0,)
            y = OdometerPoint(coords, tuple(cuts[:r]))
            assert g_function(params, y, n_small) == gval(list(coords))
            s_fn = lambda pt: spacer_cocycle(params, pt, n_small)
            api = cocycle_sum(s_fn, y, q_small)
            assert api == sum(rows[n_small - 1])
        sets += 1
    report("criterion 2: cocycle identities exact on 50 randomized sets", True)


# -- criterion 3 --------------------------------------------------------------


def test_criterion_03_distribution_oracle_equivalence():
    rng = random.Random(3)
    cases = [(chacon(30), 5, 1, 12), (chacon(30), 5, 2, 10), (chacon(30), 5, 3, 8)]
    for _ in range(12):
        params = ConstructionParams(
            *zip(*[
                (p, tuple(rng.randint(0, 2) for _ in range(p)))
                for p in (rng.randint(2, 3) for _ in range(14))
            ])
        )
        cases.append((params, rng.randint(0, 2), rng.randint(1, 3), rng.randint(6, 12)))
    for params, n, j, depth in cases:
        a = cocycle_distribution(params, n, j, depth, method="enumerate")
        b = cocycle_distribution(params, n, j, depth, method="convolution")
        assert a == b
        assert a.tail <= Fraction(j, 2**depth)
    report("criterion 3: enumeration equals convolution, tails bounded", True)


# -- criterion 4 --------------------------------------------------------------


def test_criterion_04_chacon_limit_law():
    closed = limit_distribution(CHACON_PROFILE, 1, 12, close_tail=True)
    ok = closed.masses == ((0, Fraction(1, 2)), (1, Fraction(1, 2))) and closed.tail == 0
    enum = limit_distribution(CHACON_PROFILE, 1, 12)
    for v in (0, 1):
        ok = ok and abs(enum.mass(v) - Fraction(1, 2)) <= Fraction(1, 3**12)
    ok = ok and limit_distribution(CHACON_PROFILE, 2, 12).support() == (0, 1, 2)
    report("criterion 4: Chacon limit law halves and pair support", ok)


# -- criterion 5 --------------------------------------------------------------


def _random_profile(rng):
    pis = tuple(rng.randint(2, 4) for _ in range(9))
    etas = tuple(tuple(rng.randint(0, 3) for _ in range(p)) for p in pis)
    return LimitProfile(1, pis, etas)


def _decay_suite_profiles():
    rng = random.Random(55)
    return [_random_profile(rng) for _ in range(50)]


def test_criterion_05_support_and_decay_realizations():
    pair_checks = 0
    for prof in _decay_suite_profiles():
        inv = profile_invariants(prof)
        for j in (1, 2, 3, 4):
            dist = limit_distribution(prof, j, 8)
            support = set(dist.support())
            # differences visible in the window reappear as support gaps
            m = 4  # 2^(m-1) = 8 > j
            _, diffs = spacer_value_sets(prof, m)
            for d in {abs(x) for x in diffs if x}:
                assert any(a + d in support for a in support)
                pair_checks += 1
            # all support gaps are multiples of the window difference gcd
            if inv.difference_gcd:
                d = inv.difference_gcd
                assert all((a - b) % d == 0 for a in support for b in support)
            # provable exponential decay of the enumerated tail
            assert exponential_tail_proof_ok(dist, j, prof.eta_bound())
    report(
        "criterion 5(a,b,c): support realizations and provable decay "
        "j*2^(1-ceil(v/(jR))) on 50 random profiles",
        pair_checks > 100,
        f"{pair_checks} difference checks",
    )


def _tail_excess(dist, j, bound, factor=1):
    """Least v > 0 whose mass at values >= v exceeds factor * j * 2^(-v/(jR)),
    or None; exact, in the form exponential_tail_ok uses."""
    if bound < 1:
        return None
    d = j * bound
    for v, _ in dist.masses:
        if v > 0 and (dist.mass_at_least(v) / (factor * j)) ** d * 2**v > 1:
            return v
    return None


def test_criterion_05c_tail_constant_as_stated():
    """The pinned constant j*2^(-v/(jR)), evaluated verbatim.

    It is not a theorem for every bounded profile: the provable constant is
    j*2^(1-ceil(v/(jR))), one binary order weaker, and profiles carrying the
    maximal spacer on most early columns exceed the pinned form (eta = (3,3,0)
    puts mass 6560/6561 at values >= 3 at depth 8 against an allowance of
    1/2).  So the violating (profile, j) pairs are reported with a witnessing
    v, and what is asserted is what holds: every pair stays within twice the
    pinned constant (1 - ceil(v/d) <= 1 - v/d turns the provable bound into
    2j*2^(-v/(jR))), and the pinned check holds on the Chacon and flat
    profiles while it fails on the counterexample."""
    violations = []
    agrees = within_double = True
    for idx, prof in enumerate(_decay_suite_profiles()):
        bound = prof.eta_bound()
        for j in (1, 2, 3):
            dist = limit_distribution(prof, j, 8)
            witness = _tail_excess(dist, j, bound)
            agrees = agrees and (witness is None) == exponential_tail_ok(
                dist, j, bound
            )
            if witness is not None:
                violations.append(f"#{idx} j={j} v={witness}")
            within_double = (
                within_double and _tail_excess(dist, j, bound, factor=2) is None
            )
    named_hold = all(
        exponential_tail_ok(
            limit_distribution(prof, j, 10), j, max(1, prof.eta_bound())
        )
        for prof in (CHACON_PROFILE, ZERO_PROFILE)
        for j in (1, 2, 3)
    )
    counter = limit_distribution(
        LimitProfile.constant(3, (3, 3, 0), lo=1, hi=10), 1, 8
    )
    report(
        "criterion 5(c): pinned tail constant j*2^(-v/(jR)) exceeded by less "
        "than a factor 2; holds on Chacon and flat, fails on eta=(3,3,0)",
        agrees and within_double and named_hold
        and not exponential_tail_ok(counter, 1, 3),
        f"{len(violations)} (profile, j) pairs exceed the pinned form: "
        + ", ".join(violations),
    )


# -- criterion 6 --------------------------------------------------------------


def test_criterion_06_certificates():
    pairs = list(combinations(range(1, 6), 2))
    chacon_verdicts = certify_powers(CHACON_PROFILE, pairs, depth=12)
    ok = all(v.verdict == "DISJOINT" for v in chacon_verdicts)
    zero_verdicts = certify_powers(ZERO_PROFILE, pairs, depth=12)
    ok = ok and all(v.verdict == "INCONCLUSIVE" for v in zero_verdicts)
    report("criterion 6: Chacon pairs DISJOINT, flat profile INCONCLUSIVE", ok)


# -- criterion 7 --------------------------------------------------------------


def test_criterion_07_classification():
    ok = classify(von_neumann_kakutani(16)).kind == "ODOMETER"
    ok = ok and classify(chacon(20), max_order=12).kind == "WEAKLY_MIXING_CANDIDATE"
    rng = random.Random(7)
    sigma = [rng.choice((0, 2)) for _ in range(16)]
    sigma[0], sigma[1] = 0, 2
    parity = ConstructionParams(
        cuts=(3,) * 16, spacers=tuple((1, 1, s) for s in sigma)
    )
    result = classify(parity, max_order=12)
    ok = ok and result.kind == "FINITE_RATIONAL_EIGENVALUES"
    ok = ok and result.eigenvalue_orders == (2,)
    report("criterion 7: vnk/chacon/parity classification", ok)


# -- criterion 8 --------------------------------------------------------------


def test_criterion_08_weak_limit_correlations():
    pairs = [("0", "0"), ("0", "1"), ("00", "00"), ("010", "010"), ("001", "100")]
    rows = verify_weak_limit_prediction(BlockDag(chacon(30)), 13, 1, pairs, depth=12)
    worst = max(row.abs_error for row in rows)
    ok = worst <= 0.02
    zero_row = next(r for r in rows if (r.estimate.w1, r.estimate.w2) == ("0", "0"))
    ok = ok and abs(zero_row.predicted - Fraction(1, 2)) <= Fraction(1, 100)
    report(
        "criterion 8: Chacon lag-h weak limit within 0.02",
        ok,
        f"worst |err| {worst:.2e}, (0,0) prediction {float(zero_row.predicted):.4f}",
    )


# -- criterion 9 --------------------------------------------------------------


def test_criterion_09_rigid_one_spacer_family():
    pairs = [("0", "0"), ("0", "1"), ("00", "00"), ("01", "01"), ("10", "10")]
    rows = verify_rigid_one_spacer(
        BlockDag(generalized_chacon(8)), Fraction(1, 2), 6, pairs, powers=(1,)
    )
    worst = max(row.abs_error for row in rows)
    report(
        "criterion 9: rigidity limit (p_n = 2n+2, alpha = 1/2) within 0.03",
        worst <= 0.03,
        f"worst |err| {worst:.2e} at lag {rows[0].estimate.lag}",
    )


# -- criterion 10 -------------------------------------------------------------


def test_criterion_10_half_spacer_mixing():
    rows = verify_half_spacer_mixing(
        BlockDag(katok(cuts=(100, 30000))),
        Fraction(1, 2),
        1,
        26,
        [("0", "1")],
        sample_budget=1_000_000,
        seed=20260810,
    )
    (row,) = rows
    ok = row.abs_error <= 0.05 and row.estimate.method == "SAMPLED"
    report(
        "criterion 10: mixing limit (p = (100, 30000), shift 26) within 0.05",
        ok,
        f"|err| {row.abs_error:.4f}, ci {row.ci:.4f}",
    )


# -- criterion 11 -------------------------------------------------------------


def _mu_by_factorization(n):
    value, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            value = -value
        p += 1
    return -value if m > 1 else value


def test_criterion_11_mobius_suite():
    mu = mobius_sieve(1_000_000)
    ok = all(mu[n] == _mu_by_factorization(n) for n in range(1, 100_001))
    total = mertens(mu)
    ok = ok and total == 212
    final = eigen_suspension_averages(3, 1, 10**6)[-1][1]
    ok = ok and abs(final) <= 0.01
    report(
        "criterion 11: sieve to 1e5, Mertens(1e6) = 212, periodic average",
        ok,
        f"Mertens {total}, |periodic avg| {abs(final):.2e}",
    )


# -- criterion 12 -------------------------------------------------------------


def test_criterion_12_sarnak_regression(tmp_path):
    code, manifest = run_argv(SARNAK_BASELINE_ARGS, outdir=str(tmp_path / "a"))
    ok = code == 0
    ok = ok and manifest["outputs"]["sarnak.csv"] == SARNAK_BASELINE_DIGEST
    replay_ok, _ = replay_manifest(tmp_path / "a" / "manifest.json", str(tmp_path / "b"))
    ok = ok and replay_ok
    with open(tmp_path / "a" / "sarnak.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    averages = {int(n): Fraction(v) for n, v in rows}
    horizon = max(averages)
    ok = ok and averages[horizon] == SARNAK_BASELINE_FINAL
    # trend diagnostic only: the conjecture itself is asymptotic and is NOT
    # testable at desk scale; we assert decay relative to the early grid
    early = max(abs(averages[n]) for n in averages if 500 <= n <= 2000)
    ok = ok and abs(averages[horizon]) < early
    report(
        "criterion 12: Sarnak regression reproducible, trend diagnostic",
        ok,
        f"|avg(1e6)| {float(abs(averages[horizon])):.2e} < early {float(early):.2e}",
    )


# -- criterion 13 -------------------------------------------------------------


def test_criterion_13_abc_postcondition_at_scale():
    rng = random.Random(1311)
    eps = Fraction(1, 8)
    words = 0
    worst = Fraction(0)
    while words < 1000:
        depth = 18
        cuts = tuple(rng.choice((2, 2, 2, 3)) for _ in range(depth))
        spacers = tuple(
            tuple(rng.choice((0, 0, 0, 1)) for _ in range(p)) for p in cuts
        )
        params = ConstructionParams(cuts, spacers)
        choice = None
        for ell in range(4, 13):
            need = abc_threshold(params, eps, ell)
            if need is not None and need <= 60_000:
                choice = (ell, need)
                break
        if choice is None:
            continue
        ell, need = choice
        dag = BlockDag(params)
        stage = dag.max_stage
        while dag.height(stage) > 4_000_000:
            stage -= 1
        if dag.height(stage) < 2 * need:
            continue
        # run-length bound, exact, on the materialized blocks of this set
        ts, _, _ = spacer_stats(params, depth)
        for n in range(2, depth + 2):
            if dag.height(n) > 60_000:
                break
            assert max_spacer_run(dag.materialize(n)) <= sum(ts[: n - 1])
        for _ in range(40):
            length = need + rng.randrange(need // 3)
            off = rng.randrange(dag.height(stage) - length) + 1
            word = dag.extract(stage, off, length)
            dec = abc_decompose(dag, word, eps, ell, occurrence=(stage, off))
            assert dec.valid and set(dec.b) <= {"1"}
            assert dec.uncovered <= eps * length
            worst = max(worst, Fraction(dec.uncovered, length))
            words += 1
    report(
        "criterion 13: ABC cover bound on 1000 deep windows",
        words >= 1000,
        f"worst uncovered ratio {float(worst):.4f} vs eps {float(eps)}",
    )
