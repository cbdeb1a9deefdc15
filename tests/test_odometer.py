import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.construction import ConstructionParams, chacon, heights, von_neumann_kakutani
from rankone import odometer
from rankone.errors import InputError, RangeError, Refusal
from rankone.odometer import (
    IntegerDistribution,
    OdometerPoint,
    add_at,
    add_one,
    cocycle_distribution,
    cocycle_sum,
    g_function,
    roof_value,
    spacer_cocycle,
    tail_spacers,
    tower_index,
)

from conftest import random_bounded_params, random_params_with_width_cap


def test_add_one_examples():
    y = OdometerPoint((0, 0), (3, 3))
    assert add_one(y) == (OdometerPoint((1, 0), (3, 3)), False)
    assert add_one(OdometerPoint((2, 2), (3, 3))) == (OdometerPoint((0, 0), (3, 3)), True)
    assert add_one(OdometerPoint((2, 1), (3, 3))) == (OdometerPoint((0, 2), (3, 3)), False)


def test_add_at_cascade():
    y = OdometerPoint((1, 2, 0), (2, 3, 2))
    assert add_at(y, 2) == (OdometerPoint((1, 0, 1), (2, 3, 2)), False)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_add_one_cycles_through_all_points(seed):
    rng = random.Random(seed)
    cuts = tuple(rng.randint(2, 4) for _ in range(3))
    total = cuts[0] * cuts[1] * cuts[2]
    y = OdometerPoint((0,) * 3, cuts)
    seen = set()
    for k in range(total):
        assert tower_index(y, 3) == k
        seen.add(y.coords)
        y, overflow = add_one(y)
        assert overflow == (k == total - 1)
    assert len(seen) == total


def test_tower_index_examples():
    assert tower_index(OdometerPoint((0, 0), (3, 3)), 2) == 0
    assert tower_index(OdometerPoint((2, 1), (3, 3)), 2) == 5
    assert tower_index(OdometerPoint((1, 1, 1), (2, 2, 2)), 3) == 7


def test_spacer_cocycle_examples():
    ch = chacon(4)
    assert spacer_cocycle(ch, OdometerPoint((2, 1), (3, 3)), 2) == 1
    assert spacer_cocycle(ch, OdometerPoint((0, 0, 0), (3, 3, 3)), 2) == 0
    assert spacer_cocycle(ch, OdometerPoint((2, 2, 0), (3, 3, 3)), 3) == 0


def test_g_function_examples():
    ch = chacon(5)
    assert g_function(ch, OdometerPoint((0, 0, 0, 0), (3,) * 4), 1) == 0
    assert g_function(ch, OdometerPoint((0, 2, 1, 0), (3,) * 4), 1) == 1
    assert g_function(ch, OdometerPoint((1, 0, 2, 2), (3,) * 4), 1) == 0  # forced t=1
    # all coordinates full: undetermined at this truncation
    assert g_function(ch, OdometerPoint((0, 2, 2, 2), (3,) * 4), 1) is None


def test_g_function_matches_definition(rng):
    # g spreads the above-stage spacer sum along columns: its value at y is the
    # tail value at the unique orbit point on the top slab of the stage tower
    for _ in range(20):
        params = random_bounded_params(rng, depth=5)
        n = rng.randint(1, 3)
        depth = 5
        q_n = heights(params, n).q(n)
        coords = tuple(rng.randrange(p) for p in params.cuts[:depth])
        y = OdometerPoint(coords, params.cuts[:depth])
        steps = q_n - 1 - tower_index(y, n)
        z = y
        for _ in range(steps):
            z, _ = add_one(z)
        assert tower_index(z, n) == q_n - 1
        expected = tail_spacers(params, z, n)
        assert g_function(params, y, n) == expected


def test_cocycle_sum_examples():
    ch = chacon(4)
    y0 = OdometerPoint((0, 0, 0, 0), (3,) * 4)
    s2 = lambda pt: spacer_cocycle(ch, pt, 2)
    # full-width sum of a stage cocycle is the stage spacer total, any base
    for coords in itertools.product(range(3), repeat=2):
        y = OdometerPoint(coords + (0, 0), (3,) * 4)
        assert cocycle_sum(s2, y, 9) == 1
    assert cocycle_sum(s2, y0, 1) == s2(y0)
    roof2 = lambda pt: 1 + spacer_cocycle(ch, pt, 1) + spacer_cocycle(ch, pt, 2)
    for coords in itertools.product(range(3), repeat=2):
        y = OdometerPoint(coords + (0, 0), (3,) * 4)
        assert cocycle_sum(roof2, y, 9) == 13  # h_3


def test_cocycle_sum_multiples(rng):
    # j-fold full-width sums scale linearly for stage cocycles
    for _ in range(10):
        params, n = random_params_with_width_cap(rng, 30, depth_extra=3)
        q_n = heights(params, n).q(n)
        depth = params.depth
        # zero the trailing coordinates so long orbits stay inside the truncation
        coords = tuple(rng.randrange(p) for p in params.cuts[: depth - 3]) + (0, 0, 0)
        y = OdometerPoint(coords, params.cuts[:depth])
        s_n = lambda pt: spacer_cocycle(params, pt, n)
        once = cocycle_sum(s_n, y, q_n)
        assert once == sum(params.spacer_row(n))
        for j in (2, 3, 5):
            assert cocycle_sum(s_n, y, j * q_n) == j * once


def test_cocycle_sum_errors():
    ch = chacon(4)
    y = OdometerPoint((2, 2), (3, 3))
    with pytest.raises(RangeError):
        cocycle_sum(lambda pt: spacer_cocycle(ch, pt, 1), y, 10)
    with pytest.raises(RangeError):
        cocycle_sum(lambda pt: g_function(ch, pt, 1), y, 1)


def test_roof_decomposition_identity(rng):
    # f^{(j q_n)} - j h_{n+1} equals the j-fold shifted-machine sum of g
    for _ in range(10):
        params, n = random_params_with_width_cap(rng, 20, depth_extra=3)
        depth = params.depth
        seq = heights(params, depth)
        q_n = seq.q(n)
        for _ in range(5):
            coords = tuple(rng.randrange(p) for p in params.cuts[:depth])
            y = OdometerPoint(coords, params.cuts[:depth])
            for j in (1, 2):
                try:
                    lhs = cocycle_sum(lambda pt: roof_value(params, pt), y, j * q_n)
                except RangeError:
                    continue
                rhs = 0
                cur = y
                ok = True
                for _ in range(j):
                    g = g_function(params, cur, n)
                    if g is None:
                        ok = False
                        break
                    rhs += g
                    cur, overflow = add_at(cur, n + 1)
                    if overflow:
                        ok = False
                        break
                if ok:
                    assert lhs - j * seq.h(n + 1) == rhs


def test_distribution_validation():
    with pytest.raises(InputError):
        IntegerDistribution(((0, Fraction(1, 2)),), Fraction(1, 4))
    with pytest.raises(InputError):
        IntegerDistribution(((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    d = IntegerDistribution.from_map({0: Fraction(1, 2), 2: Fraction(1, 4)}, Fraction(1, 4))
    assert d.support() == (0, 2)
    assert d.mass(2) == Fraction(1, 4) and d.mass(5) == 0
    assert d.mass_at_least(1) == Fraction(1, 4)
    assert d.shift(3).support() == (3, 5)
    assert d.csv_rows()[-1] == ("TAIL", 1, 4)


def test_distribution_enum_equals_convolution(rng):
    for _ in range(12):
        params = random_bounded_params(rng, depth=6, max_cut=3, max_spacer=2)
        n = rng.randint(0, 2)
        depth = rng.randint(2, params.depth - n)
        for j in (1, 2, 3):
            a = cocycle_distribution(params, n, j, depth, method="enumerate")
            b = cocycle_distribution(params, n, j, depth, method="convolution")
            assert a == b
            assert a.tail <= Fraction(j, 2**depth)


def test_distribution_zero_spacer():
    vnk = von_neumann_kakutani(14)
    for j in (1, 2, 4):
        d = cocycle_distribution(vnk, 2, j, 10)
        assert d.support() == (0,)
        assert d.mass(0) == 1 - d.tail


def test_distribution_chacon_masses():
    ch = chacon(30)
    d = cocycle_distribution(ch, 10, 1, 12)
    assert d.support() == (0, 1)
    for v in (0, 1):
        assert abs(d.mass(v) - Fraction(1, 2)) <= Fraction(1, 3**12)
    assert cocycle_distribution(ch, 10, 2, 12).support() == (0, 1, 2)


def test_distribution_insufficient_depth():
    with pytest.raises(RangeError):
        cocycle_distribution(chacon(5), 3, 1, 4)


def test_tail_bound_violation_raises(monkeypatch):
    # an evaluation order that leaves more tail than j * 2^-depth must be
    # refused by an explicit check (an assert would vanish under python -O)
    def too_much_tail(window, j):
        return IntegerDistribution(((0, Fraction(1, 2)),), Fraction(1, 2))

    monkeypatch.setattr(odometer, "_window_distribution_conv", too_much_tail)
    with pytest.raises(Refusal, match="exceeds the guaranteed bound"):
        cocycle_distribution(chacon(10), 2, 1, 3)
