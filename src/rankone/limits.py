"""Limit profiles, their distributions, and the power-disjointness certificate.

A stabilizing subsequence of stages carries a window of limit parameters
(pi_m, eta_m).  From the window we compute, exactly:

  * the one-step spacer value sets and their difference sets, per window index;
  * the laws of the j-fold centered cocycle sums (truncated, with declared
    tail mass <= j * 2^-depth);
  * a one-sided spectral-disjointness certificate for a pair of powers: the
    verdict is DISJOINT only when an element of one scaled support provably
    cannot belong to the other scaled support, using provably-positive masses
    and arithmetic exclusion; everything else is INCONCLUSIVE, never
    "not disjoint".

Classification of a construction prefix (odometer / finitely many rational
eigenvalues / weakly mixing candidate) is prefix-heuristic and labelled so.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd, isqrt

from .construction import _rising_heights, json_ints
from .errors import InputError, RangeError, Refusal
from .odometer import IntegerDistribution, _window_distribution

__all__ = [
    "LimitProfile",
    "StabilizingCandidate",
    "DisjointnessVerdict",
    "detect_stabilizing",
    "spacer_value_sets",
    "profile_invariants",
    "limit_distribution",
    "disjointness_certificate",
    "certify_powers",
    "flat_step",
    "classify",
    "eigenvalue_search",
]


@dataclass(frozen=True)
class LimitProfile:
    """Window [lo, lo+len-1] of limit parameters: pi_m >= 2, eta_m spacer rows."""

    lo: int
    pis: tuple
    etas: tuple
    bounded_by: int = None

    def __post_init__(self):
        if len(self.pis) != len(self.etas) or not self.pis:
            raise InputError("profile needs matching pi and eta rows")
        for p, row in zip(self.pis, self.etas):
            if p < 2 or len(row) != p or any(e < 0 for e in row):
                raise InputError("profile rows need pi >= 2 and pi non-negative etas")
        if self.bounded_by is not None:
            if any(e > self.bounded_by for row in self.etas for e in row):
                raise InputError("declared bound below an eta value")

    @property
    def hi(self):
        return self.lo + len(self.pis) - 1

    def pi(self, m):
        self._check(m)
        return self.pis[m - self.lo]

    def eta(self, m):
        self._check(m)
        return self.etas[m - self.lo]

    def _check(self, m):
        if not self.lo <= m <= self.hi:
            raise RangeError(f"window index {m} outside [{self.lo}, {self.hi}]")

    def eta_bound(self):
        return self.bounded_by if self.bounded_by is not None else max(
            max(row) for row in self.etas
        )

    @classmethod
    def constant(cls, pi, eta, lo=-4, hi=16, bounded_by=None):
        count = hi - lo + 1
        return cls(lo, (pi,) * count, (tuple(eta),) * count, bounded_by)

    def window_rows(self, a, b):
        return tuple((self.pi(m), self.eta(m)) for m in range(a, b + 1))

    @classmethod
    def from_doc(cls, doc):
        """The profile of a `to_doc` document; a malformed one is an InputError."""
        p = doc.get("profile")
        if not isinstance(p, dict) or not {"lo", "pis", "etas"} <= p.keys():
            raise InputError("a profile needs an object with lo, pis and etas")
        bound = p.get("bounded_by")
        return cls(
            json_ints(p["lo"], "profile lo", 0),
            json_ints(p["pis"], "profile pis"),
            json_ints(p["etas"], "profile etas", 2),
            None if bound is None else json_ints(bound, "profile bounded_by", 0),
        )

    def to_doc(self):
        return {
            "profile": {
                "lo": self.lo,
                "pis": list(self.pis),
                "etas": [list(r) for r in self.etas],
                "bounded_by": self.bounded_by,
            }
        }


@dataclass(frozen=True)
class StabilizingCandidate:
    indices: tuple
    arithmetic: tuple  # (start, step) when the indices form a progression
    profile: LimitProfile


def detect_stabilizing(params, window=(2, 8), search_range=None):
    """Stage indices whose surrounding parameter windows repeat exactly.

    For eventually-repeating parameter patterns this realizes stabilizing
    subsequences by exact pattern matching; an empty list means no window
    pattern repeats in the search range (e.g. cuts growing to infinity)."""
    left, right = window
    if left < 0 or right < 1:
        raise InputError("window must extend left >= 0 and right >= 1 stages")
    if search_range is None:
        if params.depth < left + right + 1:
            raise RangeError(f"a window of {left} stages left and {right} right needs a "
                             f"construction of depth >= {left + right + 1}, not {params.depth}")
        search_range = (left + 1, params.depth - right)
    n0, n1 = search_range
    if n0 - left < 1 or n1 + right > params.depth:
        raise RangeError("search range plus window leaves the prefix")
    if n0 > n1:
        raise RangeError(f"empty search range [{n0}, {n1}]")
    groups = {}
    for n in range(n0, n1 + 1):
        key = tuple(
            (params.cut(n + m), params.spacer_row(n + m)) for m in range(-left, right + 1)
        )
        groups.setdefault(key, []).append(n)
    candidates = []
    for key, indices in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if len(indices) < 2:
            continue
        steps = {b - a for a, b in zip(indices, indices[1:])}
        arithmetic = (indices[0], steps.pop()) if len(steps) == 1 else None
        profile = LimitProfile(
            -left,
            tuple(p for p, _ in key),
            tuple(row for _, row in key),
        )
        candidates.append(StabilizingCandidate(tuple(indices), arithmetic, profile))
    return candidates


# ----------------------------------------------------------------------------
# Value sets, invariants, distributions
# ----------------------------------------------------------------------------


def spacer_value_sets(profile, m):
    """One-step spacer values around window index m, and their differences.

    Values: eta_m over the non-full columns, plus eta_m at the full column
    combined with eta_{m+1} over the non-full columns.  The difference set
    drives both the eigenvalue constraint and the support structure of the
    limit laws."""
    pi_m, eta_m = profile.pi(m), profile.eta(m)
    pi_next, eta_next = profile.pi(m + 1), profile.eta(m + 1)
    values = set(eta_m[:pi_m - 1])
    values |= {eta_m[pi_m - 1] + e for e in eta_next[:pi_next - 1]}
    diffs = {a - b for a in values for b in values}
    return frozenset(values), frozenset(diffs)


@dataclass(frozen=True)
class ProfileInvariants:
    non_flat: bool
    eta_bound: int
    difference_gcd: int  # None when every difference set is {0}
    window: tuple


def profile_invariants(profile):
    """Window-restricted non-flatness, boundedness, and the difference gcd."""
    nonzero = set()
    for m in range(profile.lo, profile.hi):
        _, diffs = spacer_value_sets(profile, m)
        nonzero |= {abs(d) for d in diffs if d}
    return ProfileInvariants(
        non_flat=bool(nonzero),
        eta_bound=profile.eta_bound(),
        difference_gcd=gcd(*nonzero) if nonzero else None,
        window=(profile.lo, profile.hi),
    )


def limit_distribution(profile, j, depth, close_tail=False):
    """Law of the j-fold centered cocycle sum for the limit parameters.

    Enumerates window indices 1..depth exactly; tail mass <= j * 2^-depth.
    With close_tail=True (j = 1, constant window whose full-column spacer sum
    vanishes) the geometric tail is summed analytically and the tail is 0."""
    if depth < 1:
        raise InputError("need depth >= 1")
    if profile.lo > 1 or profile.hi < depth:
        raise RangeError(f"window must cover [1, {depth}]")
    rows = profile.window_rows(1, depth)
    dist = _window_distribution(rows, j, "convolution")
    if not close_tail:
        return dist
    if j != 1:
        raise Refusal("analytic tail summation implemented for j = 1 only")
    if any(r != rows[0] for r in rows):
        raise Refusal("analytic tail summation needs a constant window")
    pi, eta = rows[0]
    if eta[pi - 1] != 0:
        raise Refusal(
            "analytic tail summation needs zero spacers on the full column"
        )
    # the tail event reproduces the same law, so the enumerated part rescales
    scale = 1 / (1 - dist.tail)
    return IntegerDistribution(
        tuple((v, m * scale) for v, m in dist.masses), Fraction(0)
    )


def exponential_tail_ok(dist, j, bound):
    """Exact check that mass at values >= v stays within j * 2^(-v/(j*bound)).

    This is the pinned constant; it is NOT a theorem for every bounded
    profile (profiles with maximal spacer values on most early columns beat
    it), see exponential_tail_proof_ok for the provable version."""
    if bound < 1:
        return True
    d = j * bound
    for v, _ in dist.masses:
        if v <= 0:
            continue
        lhs = dist.mass_at_least(v)
        # lhs <= j * 2^(-v/d)  <=>  (lhs/j)^d * 2^v <= 1, all exact
        if (Fraction(lhs, j) ** d) * (2 ** v) > 1:
            return False
    return True


def exponential_tail_proof_ok(dist, j, bound):
    """Provable exponential decay: a j-fold sum reaching v forces one summand
    to scan at least ceil(v/(j*bound)) coordinates, the first all-full ones
    carrying probability at most 1/2 each; so mass at values >= v is at most
    j * 2^(1 - ceil(v/(j*bound)))."""
    if bound < 1:
        return True
    d = j * bound
    for v, _ in dist.masses:
        if v <= 0:
            continue
        exponent = -(-v // d) - 1
        if dist.mass_at_least(v) > Fraction(j, 2 ** exponent):
            return False
    return True


# ----------------------------------------------------------------------------
# Disjointness certificates
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointnessVerdict:
    pair: tuple
    verdict: str  # DISJOINT | INCONCLUSIVE
    witness: str
    depth: int
    tail_bounds: tuple

    @property
    def disjoint(self):
        return self.verdict == "DISJOINT"


def _excluded(w, j, dist, coset):
    """Can w provably not lie in j * support(dist)?

    True via plain divisibility (w not a multiple of j), via the coset
    constraint support(dist) subset alpha + dZ, or via exhaustion when the
    distribution carries no tail mass."""
    if w % j != 0:
        return f"{j} does not divide {w}"
    target = w // j
    if coset:
        d, alpha, window = coset
        if d and (target - alpha) % d != 0:
            return (
                f"{target} is not congruent to {alpha} mod {d} "
                f"(difference gcd over window {window})"
            )
    if dist.tail == 0 and target not in dist.support():
        return f"{target} outside the exhaustively known support"
    return None


def disjointness_certificate(dist1, dist2, j1, j2, coset1=None, coset2=None, depth=None):
    """One-sided certificate comparing j1 * support(dist2) with j2 * support(dist1).

    Supports contain only provably-positive enumerated masses.  cosetK, when
    given, is (d, alpha, window_note) asserting support(distK) subset
    alpha + dZ; verdicts relying on it quote the window in the witness."""
    depth = depth if depth is not None else 0
    tails = (dist1.tail, dist2.tail)
    if j1 == j2:
        return DisjointnessVerdict(
            (j1, j2), "INCONCLUSIVE", "identical powers", depth, tails
        )
    # a * support(P_b) against b * support(P_a), in both orientations
    sides = ((j1, j2, dist1, dist2, coset1), (j2, j1, dist2, dist1, coset2))
    for a, b, dist_a, dist_b, coset_a in sides:
        for s in dist_b.support():
            w = a * s
            reason = _excluded(w, b, dist_a, coset_a)
            if reason:
                witness = (
                    f"{w} = {a}*{s} lies in {a}*support(P_{b}) but not in "
                    f"{b}*support(P_{a}): {reason}"
                )
                return DisjointnessVerdict((j1, j2), "DISJOINT", witness, depth, tails)
    return DisjointnessVerdict(
        (j1, j2),
        "INCONCLUSIVE",
        "no enumerated support element is arithmetically excluded from the "
        "other scaled support at this truncation",
        depth,
        tails,
    )


def certify_powers(profile, pairs, depth=12):
    """Run the certificate for each (j1, j2) pair against one profile.

    Uses the window difference gcd as a coset constraint (witnesses quote the
    window) and notes the eta bound that justifies exponential tail decay."""
    inv = profile_invariants(profile)
    dists = {}

    def dist(j):
        if j not in dists:
            dists[j] = limit_distribution(profile, j, depth)
        return dists[j]

    def coset(d):
        # a law with no enumerated mass has no element to anchor its coset at
        if inv.difference_gcd and inv.difference_gcd > 1 and d.masses:
            return (inv.difference_gcd, d.support()[0], inv.window)
        return None

    verdicts = []
    for j1, j2 in pairs:
        if j1 < 1 or j2 < 1:
            raise InputError("powers must be >= 1")
        d1, d2 = dist(j1), dist(j2)
        v = disjointness_certificate(d1, d2, j1, j2, coset(d1), coset(d2), depth)
        if v.disjoint:
            v = replace(
                v, witness=v.witness + f"; eta bound {inv.eta_bound} gives exponential tails"
            )
        verdicts.append(v)
    return verdicts


# ----------------------------------------------------------------------------
# Flat steps, eigenvalues, classification (prefix heuristics)
# ----------------------------------------------------------------------------


def flat_step(params, n):
    """Is the return time to the stage-n tower base constant?

    True iff the first p_n - 1 spacer gaps agree and each equals the last
    spacer count combined with every stage-(n+1) spacer count."""
    if n + 1 > params.depth:
        raise RangeError(f"flat step at {n} needs stage {n + 1} data")
    row = params.spacer_row(n)
    gap = row[0]
    if any(s != gap for s in row[: len(row) - 1]):
        return False
    last = row[-1]
    return all(last + s == gap for s in params.spacer_row(n + 1))


def eigenvalue_search(params, max_order, stage_range):
    """Orders k >= 2 whose k-th roots of unity pass the return-time congruence.

    k is reported iff k divides every h_n + s_{n,j} for n in the range and
    j <= p_n - 2.  Sound only for bounded constructions: with unbounded cuts
    an eigenvector need not be level-constant, so the criterion is disabled."""
    if params.unbounded:
        raise Refusal(
            "eigenvalue search by level constancy is unsound for unbounded "
            "cut schedules; supply a bounded construction"
        )
    if max_order < 2:  # orders start at 2: below, none is searched
        raise InputError(f"max order {max_order} is below 2, the least eigenvalue order")
    n0, n1 = stage_range
    if not 1 <= n0 <= n1 <= params.depth:
        raise RangeError("stage range outside the prefix")
    rows = islice(params.spacers, n0 - 1, n1)
    rising = islice(_rising_heights(params.spacers), n0 - 1, None)  # h_{n0}, h_{n0+1}, ...
    g = reduce(gcd, (h + s for row, h in zip(rows, rising) for s in row[:-1]), 0)
    # the orders are divisors of g, found in pairs (d, g // d) with d <= sqrt(g)
    pairs = ((d, g // d) for d in range(1, min(isqrt(g), max_order) + 1) if g % d == 0)
    return tuple(sorted({k for pair in pairs for k in pair if 2 <= k <= max_order}))


@dataclass(frozen=True)
class Classification:
    kind: str  # ODOMETER | FINITE_RATIONAL_EIGENVALUES | WEAKLY_MIXING_CANDIDATE
    eigenvalue_orders: tuple
    flat_tail_start: int
    note: str


def classify(params, stage_range=None, max_order=12):
    """Prefix-heuristic trichotomy for a bounded construction.

    ODOMETER when every step from some index through the end of the range is
    flat; otherwise the eigenvalue congruence decides between finitely many
    rational eigenvalues and a weak-mixing candidate.  All outputs describe
    the prefix only."""
    if params.unbounded:
        raise Refusal("classification needs bounded parameters")
    if max_order < 2:  # orders start at 2: below, none is searched
        raise InputError(f"max order {max_order} is below 2, the least eigenvalue order")
    if stage_range is None:
        stage_range = (1, params.depth - 1)
    n0, n1 = stage_range
    if not 1 <= n0 <= n1 <= params.depth - 1:
        raise RangeError("stage range must leave one lookahead stage")
    flats = {n: flat_step(params, n) for n in range(n0, n1 + 1)}
    tail_start = None
    for n in range(n1, n0 - 1, -1):
        if flats[n]:
            tail_start = n
        else:
            break
    min_tail = 3
    if tail_start is not None and n1 - tail_start + 1 >= min(min_tail, n1 - n0 + 1):
        return Classification(
            "ODOMETER",
            (),
            tail_start,
            f"steps {tail_start}..{n1} all flat (prefix heuristic)",
        )
    orders = eigenvalue_search(params, max_order, (n0, n1))
    if orders:
        return Classification(
            "FINITE_RATIONAL_EIGENVALUES",
            orders,
            None,
            f"return-time congruences hold mod {orders} on stages {n0}..{n1}",
        )
    return Classification(
        "WEAKLY_MIXING_CANDIDATE",
        (),
        None,
        f"no flat tail and no eigenvalue order <= {max_order} on stages {n0}..{n1} "
        "(prefix heuristic; weak mixing is not decidable from a prefix)",
    )
