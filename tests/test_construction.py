import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.construction import (
    ConstructionParams,
    chacon,
    expand_family,
    finite_measure_partial_sums,
    generalized_chacon,
    heights,
    katok,
    load_construction,
    spacer_stats,
    von_neumann_kakutani,
)
from rankone.errors import InputError, RangeError

from conftest import random_bounded_params


def test_heights_chacon():
    params = chacon(5)
    assert heights(params, 3) == (1, 4, 13, 40)
    assert tuple(math.prod(params.cuts[:n]) for n in range(1, 4)) == (3, 9, 27)


def test_heights_vnk():
    assert heights(von_neumann_kakutani(3), 3) == (1, 2, 4, 8)


def test_heights_katok_prefix():
    assert heights(katok(cuts=(4, 8)), 2) == (1, 6, 52)


def test_heights_range_error():
    with pytest.raises(RangeError):
        heights(chacon(3), 4)


def test_heights_pure():
    p = chacon(6)
    assert heights(p, 6) == heights(p, 6)


params_strategy = st.integers(0, 2**32 - 1).map(
    lambda s: random_bounded_params(__import__("random").Random(s))
)


@given(params_strategy)
@settings(max_examples=60, deadline=None)
def test_heights_recursion_invariant(params):
    hs = heights(params, params.depth)
    for n in range(1, params.depth + 1):
        expected = params.cut(n) * hs[n - 1] + sum(params.spacer_row(n))
        assert hs[n] == expected
        assert hs[n] >= 2 * hs[n - 1]
    q = 1
    for n in range(1, params.depth + 1):
        q *= params.cut(n)
        assert math.prod(params.cuts[:n]) == q


def test_partial_sums_chacon():
    sums, _ = finite_measure_partial_sums(chacon(4), 3)
    a = Fraction(1, 4)
    assert sums == [a, a + Fraction(1, 13), a + Fraction(1, 13) + Fraction(1, 40)]


def test_partial_sums_zero_spacer():
    sums, _ = finite_measure_partial_sums(von_neumann_kakutani(5), 5)
    assert sums == [Fraction(0)] * 5


def test_partial_sums_katok():
    sums, _ = finite_measure_partial_sums(katok(cuts=(4, 8)), 2)
    assert sums == [Fraction(2, 6), Fraction(2, 6) + Fraction(4, 52)]


def test_spacer_stats_chacon():
    ts, ratios, reasonable = spacer_stats(chacon(4), 4)
    assert ts == [1, 1, 1, 1]
    assert ratios == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(3, 13),
        Fraction(1, 10),
    ]
    assert reasonable


def test_spacer_stats_zero():
    ts, ratios, reasonable = spacer_stats(von_neumann_kakutani(4), 4)
    assert ts == [0] * 4 and ratios == [Fraction(0)] * 4 and reasonable


def test_spacer_stats_unreasonable():
    # a stage-2 spacer equal to h_2 keeps the ratio from decaying
    params = ConstructionParams(cuts=(2, 2, 2), spacers=((0, 0), (2, 2), (8, 8)))
    _, ratios, reasonable = spacer_stats(params, 3)
    assert not reasonable


def test_validation_errors():
    with pytest.raises(InputError):
        ConstructionParams(cuts=(1,), spacers=((0,),))
    with pytest.raises(InputError):
        ConstructionParams(cuts=(2,), spacers=((0, -1),))
    with pytest.raises(InputError):
        ConstructionParams(cuts=(2,), spacers=((0, 0, 0),))
    with pytest.raises(InputError):
        ConstructionParams(cuts=(3,), spacers=((0, 1, 0),), family="katok")
    with pytest.raises(InputError):
        ConstructionParams(cuts=(3,), spacers=((1, 1, 0),), family="generalized_chacon")


def test_family_generators():
    gc = generalized_chacon(3)
    assert gc.cuts == (4, 6, 8) and gc.unbounded
    assert all(sum(row) == 1 for row in gc.spacers)
    gc_last = generalized_chacon(2, spacer_index="last")
    assert gc_last.spacers == ((0, 0, 0, 1), (0, 0, 0, 0, 0, 1))
    kt = katok(depth=2)
    assert kt.cuts == (4, 8)
    assert kt.spacers[0] == (0, 0, 1, 1)


def test_json_loading(tmp_path):
    doc = {"family": "chacon", "depth": 4}
    params = expand_family(doc)
    assert params.cuts == (3, 3, 3, 3)

    periodic = {
        "family": "custom",
        "depth": 5,
        "cuts": [2, 3],
        "spacers": [[0, 1], [1, 0, 0]],
        "generator": {"rule": "periodic"},
    }
    params = expand_family(periodic)
    assert params.cuts == (2, 3, 2, 3, 2)
    assert params.spacers[2] == (0, 1)

    path = tmp_path / "c.json"
    path.write_text(json.dumps(periodic))
    assert load_construction(str(path)) == params

    assert load_construction("vnk:depth=6").cuts == (2,) * 6
    with pytest.raises(InputError):
        expand_family({"family": "nope", "depth": 2})
