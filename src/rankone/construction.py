"""Cutting-and-stacking construction parameters and their integer sequences.

A rank-one construction is described by cutting numbers p_n >= 2 and spacer
counts s_{n,0..p_n-1} >= 0, one row per stage.  Tower heights follow the exact
recursion h_1 = 1, h_{n+1} = p_n*h_n + sum_j s_{n,j}; the products
q_n = p_1*...*p_n give the widths of the underlying adding-machine towers.
Everything here is arbitrary-precision integer or reduced-rational arithmetic:
heights grow exponentially and floats would silently corrupt downstream
certificates.

Parameters are supplied as a finite prefix plus a generator rule (periodic
repetition or a named family schedule).  Convergence-style outputs are
prefix-based heuristics and are labelled as such.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, cycle, islice

from .errors import InputError, RangeError

FAMILIES = ("chacon", "vnk", "generalized_chacon", "katok", "custom")
ROW_ENTRIES = 10**7  # spacer entries a family schedule may spell out, over all its rows


@dataclass(frozen=True)
class ConstructionParams:
    """Finite prefix of a rank-one construction: one (cut, spacer row) per stage."""

    cuts: tuple
    spacers: tuple
    family: str = "custom"
    # True when generated by a schedule whose cuts grow without bound; such
    # constructions admit no stabilizing subsequence and the level-based
    # eigenvalue criterion is unsound for them.
    unbounded: bool = False

    def __post_init__(self):
        if len(self.cuts) != len(self.spacers):
            raise InputError("cuts and spacers must have one row per stage")
        if not self.cuts:
            raise InputError("need at least one stage")
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        for n, (p, row) in enumerate(zip(self.cuts, self.spacers), start=1):
            if not isinstance(p, int) or p < 2:
                raise InputError(f"cut p_{n} = {p!r} must be an integer >= 2")
            if len(row) != p:
                raise InputError(f"spacer row {n} must have p_{n} = {p} entries")
            if any((not isinstance(s, int)) or s < 0 for s in row):
                raise InputError(f"spacer row {n} must be non-negative integers")
        if self.family == "katok":
            for n, (p, row) in enumerate(zip(self.cuts, self.spacers), start=1):
                half = p // 2
                if p % 2 or row != (0,) * half + (1,) * half:
                    raise InputError(
                        f"katok stage {n} needs an even cut and spacers 0^(p/2) 1^(p/2)"
                    )
        if self.family == "generalized_chacon":
            for n, row in enumerate(self.spacers, start=1):
                if sorted(row) != [0] * (len(row) - 1) + [1]:
                    raise InputError(
                        f"generalized_chacon stage {n} needs exactly one spacer value 1"
                    )

    @property
    def depth(self):
        return len(self.cuts)

    def cut(self, n):
        """p_n for 1 <= n <= depth."""
        self._check_stage(n)
        return self.cuts[n - 1]

    def spacer_row(self, n):
        self._check_stage(n)
        return self.spacers[n - 1]

    def spacer(self, n, j):
        row = self.spacer_row(n)
        if not 0 <= j < len(row):
            raise RangeError(f"spacer index {j} outside 0..{len(row) - 1}")
        return row[j]

    def _check_stage(self, n):
        if not 1 <= n <= self.depth:
            raise RangeError(f"stage {n} outside available prefix 1..{self.depth}")

    def to_doc(self):
        """JSON-ready document describing the explicit prefix."""
        return {
            "family": self.family,
            "depth": self.depth,
            "cuts": list(self.cuts),
            "spacers": list(self.spacers),  # rows stay shared tuples; JSON writes them as lists
            "unbounded": self.unbounded,
        }


@dataclass(frozen=True)
class HeightSequence:
    """Exact prefix h_1..h_{n+1} of tower heights with tower widths q_1..q_n."""

    heights: tuple
    products: tuple

    def h(self, k):
        if not 1 <= k <= len(self.heights):
            raise RangeError(f"height index {k} outside 1..{len(self.heights)}")
        return self.heights[k - 1]

    def q(self, k):
        if not 1 <= k <= len(self.products):
            raise RangeError(f"width index {k} outside 1..{len(self.products)}")
        return self.products[k - 1]


def heights(params: ConstructionParams, n: int) -> HeightSequence:
    """h_1..h_{n+1} and q_1..q_n by the exact recursion h_{n+1} = p_n h_n + sum s_{n,j}."""
    if not 1 <= n <= params.depth:
        raise RangeError(f"stage {n} outside 1..{params.depth}")
    hs = [1]
    qs = []
    q = 1
    for k in range(1, n + 1):
        p = params.cut(k)
        hs.append(p * hs[-1] + sum(params.spacer_row(k)))
        q *= p
        qs.append(q)
    return HeightSequence(tuple(hs), tuple(qs))


def finite_measure_partial_sums(params, n):
    """Partial sums of sum_k (1/h_{k+1}) * sum_i s_{k,i}, exact rationals.

    The returned flag is a prefix heuristic only (last increment below
    1/1000); convergence of the series is not decidable from a prefix.
    """
    seq = heights(params, n)
    incs = [Fraction(sum(params.spacer_row(k)), seq.h(k + 1)) for k in range(1, n + 1)]
    return list(accumulate(incs)), incs[-1] < Fraction(1, 1000)


def spacer_stats(params, n):
    """Per-stage spacer maxima t_k and the ratios (t_1+...+t_k)/h_k.

    The flag is a heuristic monotone-decrease check of the ratios over the
    prefix (constructions are "reasonable" when t_n = o(h_n))."""
    seq = heights(params, n)
    ts = [max(params.spacer_row(k)) for k in range(1, n + 1)]
    ratios = []
    run = 0
    for k, t in enumerate(ts, start=1):
        run += t
        ratios.append(Fraction(run, seq.h(k)))
    reasonable = all(ratios[i + 1] <= ratios[i] for i in range(len(ratios) - 1))
    reasonable = reasonable and (not ratios or ratios[-1] < 1)
    return ts, ratios, reasonable


# ----------------------------------------------------------------------------
# Named families and JSON loading
# ----------------------------------------------------------------------------


def chacon(depth):
    """Classical Chacon: p = 3, one spacer after the middle column, every stage."""
    return ConstructionParams(
        cuts=(3,) * depth, spacers=((0, 1, 0),) * depth, family="chacon"
    )


def von_neumann_kakutani(depth):
    """Dyadic doubling with no spacers (an odometer)."""
    return ConstructionParams(cuts=(2,) * depth, spacers=((0, 0),) * depth, family="vnk")


def generalized_chacon(depth, cuts=None, spacer_index=0):
    """One spacer per stage at a chosen column, cuts growing to infinity.

    Default schedule p_n = 2n + 2; `spacer_index` is an int, the string
    "last", or a sequence with one index per stage."""
    if cuts is None:
        cuts = _checked_cuts(2 * n + 2 for n in range(1, depth + 1))
        generated = True
    else:
        cuts = _checked_cuts(cuts)
        if len(cuts) != depth:
            raise InputError("need one cut per stage")
        generated = all(a < b for a, b in zip(cuts, cuts[1:]))
    if not isinstance(spacer_index, (int, str)) and len(spacer_index) != depth:
        raise InputError("need one spacer index per stage")
    rows = []
    for n, p in enumerate(cuts, start=1):
        if isinstance(spacer_index, str):
            if spacer_index != "last":
                raise InputError("spacer_index must be an int, 'last', or a sequence")
            r = p - 1
        elif isinstance(spacer_index, int):
            r = spacer_index
        else:
            r = spacer_index[n - 1]
        if not 0 <= r < p:
            raise InputError(f"spacer index {r} outside 0..{p - 1} at stage {n}")
        rows.append(tuple(1 if j == r else 0 for j in range(p)))
    return ConstructionParams(
        cuts=cuts, spacers=tuple(rows), family="generalized_chacon", unbounded=generated
    )


def katok(cuts=None, depth=None):
    """Even cuts with spacers on the second half of the columns.

    Growth schedules are user-supplied; the default doubling p_n = 2^{n+1} is
    for prefix diagnostics only and does not satisfy the fast-growth regime
    needed by the mixing-limit experiments."""
    if cuts is None:
        if depth is None:
            raise InputError("katok needs cuts or a depth")
        cuts = (2 ** (n + 1) for n in range(1, depth + 1))
    cuts = _checked_cuts(cuts)
    rows = tuple((0,) * (p // 2) + (1,) * (p // 2) for p in cuts)
    unbounded = all(a < b for a, b in zip(cuts, cuts[1:]))
    return ConstructionParams(cuts=cuts, spacers=rows, family="katok", unbounded=unbounded)


def _checked_cuts(cuts):
    """`cuts` as a tuple, read stage by stage and refused before any row is
    built once the spacer rows so far, p_n entries each, pass ROW_ENTRIES."""
    out, total = [], 0
    for p in cuts:
        out.append(p)
        total += max(p, 1)  # a cut below 2, refused later, still makes a stage
        if total > ROW_ENTRIES:
            raise InputError(f"{total} spacer entries in stages 1..{len(out)} exceed {ROW_ENTRIES}")
    return tuple(out)


def json_ints(value, what, nesting=1):
    """`value` as JSON integers: one integer at nesting 0, else a list (of
    lists, at nesting 2) of them, as tuples.  2.5, true or "3" is refused,
    not coerced."""
    if nesting == 0:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"{what}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what}: expected a list, got {value!r}")
    return tuple(json_ints(v, what, nesting - 1) for v in value)


def _expand_custom(doc, gen):
    cuts = json_ints(doc.get("cuts", []), "cuts")
    spacers = json_ints(doc.get("spacers", []), "spacers", 2)
    if len(cuts) != len(spacers):
        raise InputError("cuts and spacers must have the same number of stages")
    depth = json_ints(doc.get("depth", len(cuts)), "depth", 0)
    rule = gen.get("rule", "periodic" if depth > len(cuts) else "none")
    if depth > len(cuts):
        if rule != "periodic":
            raise InputError(f"cannot extend prefix to depth {depth} with rule {rule!r}")
        if not cuts:
            raise InputError("periodic generator needs a non-empty prefix")
        cuts = _checked_cuts(islice(cycle(cuts), depth))
        spacers = tuple(islice(cycle(spacers), depth))
    return ConstructionParams(
        cuts=tuple(cuts[:depth]), spacers=tuple(spacers[:depth]), family="custom"
    )


def expand_family(doc) -> ConstructionParams:
    """Deterministically expand a construction document to an explicit prefix."""
    family = doc.get("family", "custom")
    gen = doc.get("generator", {})
    if not isinstance(gen, dict):
        raise InputError(f"generator: expected an object, got {gen!r}")
    if family == "custom":
        return _expand_custom(doc, gen)
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    cuts = doc.get("cuts") or gen.get("cuts")
    if family == "katok" and cuts:
        return katok(cuts=json_ints(cuts, "cuts"))
    depth = json_ints(doc.get("depth"), f"{family} depth", 0)
    if family == "chacon":
        return chacon(depth)
    if family == "vnk":
        return von_neumann_kakutani(depth)
    if family == "katok":
        return katok(depth=depth)
    idx = gen.get("spacer_index", 0)
    if idx != "last":
        idx = json_ints(idx, "spacer_index", 1 if isinstance(idx, list) else 0)
    cuts = None if cuts is None else json_ints(cuts, "cuts")
    return generalized_chacon(depth, cuts=cuts, spacer_index=idx)


def load_construction(source) -> ConstructionParams:
    """Load from a dict, a JSON file path, or a built-in family name.

    Built-in names take the form "chacon" or "chacon:depth=20"."""
    if isinstance(source, ConstructionParams):
        return source
    if isinstance(source, dict):
        return expand_family(source)
    text = str(source)
    name, _, rest = text.partition(":")
    if name in ("chacon", "vnk", "generalized_chacon", "katok"):
        doc = {"family": name}
        for item in filter(None, rest.split(",")):
            key, _, value = item.partition("=")
            if key != "depth" or key in doc:
                raise InputError(f"{name}: takes one key, depth=<integer>; got {item!r}")
            try:
                doc[key] = int(value)
            except ValueError as exc:
                raise InputError(f"{name}: {key} must be an integer, not {value!r}") from exc
        doc.setdefault("depth", 20)
        return expand_family(doc)
    return expand_family(read_config(text))


def read_config(path):
    """The JSON object stored at `path`; anything else is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InputError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"config {path!r} must hold a JSON object")
    return doc
