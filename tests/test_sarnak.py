import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from rankone.blocks import BlockDag, abc_decompose
from rankone.construction import chacon, von_neumann_kakutani
from rankone.errors import InputError, RangeError
from rankone.sarnak import (
    EigenObservable,
    FloorCylinderObservable,
    OrbitSpec,
    cylinder_sarnak_averages,
    floor_means,
    geometric_grid,
    mertens,
    mobius_sieve,
    orbit_word,
    partial_averages,
    prime_power_averages,
    suspension_values,
)

MU_FIRST_TEN = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def _mu_by_factorization(n):
    value, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            value = -value
        p += 1
    if m > 1:
        value = -value
    return value


def test_sieve_values():
    mu = mobius_sieve(30)
    assert mu[1:11] == MU_FIRST_TEN
    assert mu[30] == -1


def test_sieve_against_factorization():
    mu = mobius_sieve(3000)
    for n in range(1, 3001):
        assert mu[n] == _mu_by_factorization(n)


def test_sieve_multiplicative_property(rng):
    mu = mobius_sieve(100_000)
    for _ in range(300):
        a = rng.randint(1, 316)
        b = rng.randint(1, 316)
        if gcd(a, b) == 1:
            assert mu[a * b] == mu[a] * mu[b]
        p = rng.choice((2, 3, 5, 7, 11, 13))
        k = rng.randint(1, 100_000 // (p * p))
        assert mu[p * p * k] == 0


def test_mertens_small():
    mu = mobius_sieve(100)
    assert mertens(mu, 10) == -1
    assert mertens(mu, 100) == 1


def test_geometric_grid():
    assert geometric_grid(10) == [1, 2, 3, 5, 10]
    assert geometric_grid(1) == [1]


def test_partial_averages_constant_observable():
    mu = mobius_sieve(10)
    rows = partial_averages(lambda n: 1, mu, 10)
    assert rows[-1] == (10, Fraction(-1, 10))
    rows = partial_averages(lambda n: 0, mu, 10)
    assert all(v == 0 for _, v in rows)


def test_cylinder_averages_linear_in_observable():
    dag = BlockDag(chacon(20))
    mu = mobius_sieve(2000)
    word = orbit_word(dag, OrbitSpec(stage=9), 2002)
    a = cylinder_sarnak_averages(word, "0", Fraction(0), mu, 2000)
    b = cylinder_sarnak_averages(word, "0", Fraction(2, 3), mu, 2000)
    # centering shifts every partial average by center * Mertens / N
    for (n1, v1), (n2, v2) in zip(a, b):
        assert n1 == n2
        assert v1 - v2 == Fraction(2, 3) * Fraction(mertens(mu, n1), n1)


@pytest.mark.parametrize("K", [1, 3])
def test_cylinder_counts_match_per_step_reference(K):
    dag = BlockDag(chacon(14))
    horizon = 700
    mu = mobius_sieve(horizon)
    centers = [Fraction(2, 3), Fraction(1, 5), Fraction(0)][:K]
    for start_floor in range(K):
        spec = OrbitSpec(stage=10, offset=3, floors=K, start_floor=start_floor)
        reference = partial_averages(
            suspension_values(dag, spec, FloorCylinderObservable("01", centers), horizon),
            mu,
            horizon,
        )
        word = orbit_word(dag, spec, (start_floor + horizon) // K + 3)
        rows = cylinder_sarnak_averages(
            word, "01", centers if K > 1 else centers[0], mu, horizon, start_floor=start_floor
        )
        assert rows == reference
        grid = [1, 2, 50, 699, 700]
        assert cylinder_sarnak_averages(
            word, "01", centers, mu, horizon, grid=grid, start_floor=start_floor
        ) == partial_averages(
            suspension_values(dag, spec, FloorCylinderObservable("01", centers), horizon),
            mu,
            horizon,
            grid=grid,
        )


def test_prime_power_counts_match_per_step_fractions():
    dag = BlockDag(chacon(20))
    word = orbit_word(dag, OrbitSpec(stage=12, offset=11), 3 * 900 + 3)
    center = Fraction(3, 7)
    acc = Fraction(0)
    expected = {}
    for n in range(1, 901):
        fp = int(word.startswith("10", 2 * n)) - center
        fq = int(word.startswith("10", 3 * n)) - center
        acc += fp * fq
        expected[n] = acc / n
    rows = prime_power_averages(word, "10", center, 2, 3, 900)
    assert [n for n, _ in rows] == geometric_grid(900)
    assert all(v == expected[n] for n, v in rows)
    rows = prime_power_averages(word, "10", center, 3, 2, 900, grid=[7, 900, 7, 450])
    assert rows == [(n, expected[n]) for n in (7, 450, 900)]


@pytest.mark.parametrize("grid", [[5, 101], [0, 5], [-1]])
def test_grid_points_outside_horizon_raise(grid):
    dag = BlockDag(chacon(20))
    word = orbit_word(dag, OrbitSpec(stage=10), 400)
    mu = mobius_sieve(100)
    with pytest.raises(InputError):
        partial_averages(lambda n: 1, mu, 100, grid=grid)
    with pytest.raises(InputError):
        cylinder_sarnak_averages(word, "0", Fraction(0), mu, 100, grid=grid)
    with pytest.raises(InputError):
        prime_power_averages(word, "0", Fraction(0), 2, 3, 100, grid=grid)


def test_geometric_grid_needs_positive_horizon():
    for horizon in (0, -5):
        with pytest.raises(InputError):
            geometric_grid(horizon)


def test_prime_power_input_checks():
    dag = BlockDag(chacon(20))
    word = orbit_word(dag, OrbitSpec(stage=10), 500)
    with pytest.raises(InputError):
        prime_power_averages(word, "0", Fraction(0), 3, 3, 50)
    with pytest.raises(RangeError):
        prime_power_averages(word, "0", Fraction(0), 2, 3, 400)


def test_prime_power_trivial_cases():
    # constant observable without centering gives the square at every grid point
    vnk = BlockDag(von_neumann_kakutani(14))
    word = orbit_word(vnk, OrbitSpec(stage=12), 700)
    rows = prime_power_averages(word, "0", Fraction(0), 2, 3, 200)
    assert all(v == 1 for _, v in rows)
    rows = prime_power_averages(word, "0", Fraction(1), 2, 3, 200)
    assert all(v == 0 for _, v in rows)


def test_orbit_word_plain_and_spliced():
    dag = BlockDag(chacon(10))
    spec = OrbitSpec(stage=6, offset=5)
    assert orbit_word(dag, spec, 40) == dag.extract(6, 5, 40)
    spliced = OrbitSpec(stage=5, offset=1, splice_suffix=10, splice_ones=6)
    assert spliced.spliced
    word = orbit_word(dag, spliced, 30)
    h5 = dag.height(5)
    assert word[:10] == dag.extract(5, h5 - 9, 10)
    assert word[10:16] == "1" * 6
    assert word[16:] == dag.extract(5, 1, 14)


def test_orbit_word_range_errors():
    dag = BlockDag(chacon(10))
    with pytest.raises(RangeError):
        orbit_word(dag, OrbitSpec(stage=3, offset=10), 10)


def test_spliced_window_abc_consistency():
    # the window around the splice decomposes with the spacer run as its middle
    dag = BlockDag(chacon(12))
    spliced = OrbitSpec(stage=8, offset=1, splice_suffix=40, splice_ones=9)
    word = orbit_word(dag, spliced, 100)
    dec = abc_decompose(dag, word, Fraction(1, 4), 2)
    assert not dec.valid  # nine straight spacers never occur in this language
    assert dec.b == "1" * 9
    assert word[len(dec.a) : len(dec.a) + 9] == "1" * 9


def test_suspension_floor_arithmetic():
    dag = BlockDag(chacon(12))
    spec = OrbitSpec(stage=8, offset=1, floors=3, start_floor=1)
    obs = EigenObservable(3, 1)
    values = suspension_values(dag, spec, obs, 9)
    expected = [cmath.exp(2j * cmath.pi * ((1 + n) % 3) / 3) for n in range(1, 10)]
    assert values[1:] == expected


def test_suspension_eigen_power_and_k1():
    dag = BlockDag(chacon(12))
    obs = EigenObservable(4, 2)
    spec = OrbitSpec(stage=8, offset=1, floors=4)
    values = suspension_values(dag, spec, obs, 8)
    assert values[2] == pytest.approx(cmath.exp(2j * cmath.pi * 2 * 2 / 4))
    plain = OrbitSpec(stage=8, offset=1, floors=1)
    cyl = FloorCylinderObservable("0", [Fraction(0)])
    vals = suspension_values(dag, plain, cyl, 20)
    word = orbit_word(dag, plain, 22)
    assert all(vals[n] == int(word[n] == "0") for n in range(1, 21))


def test_floor_centering_integrates_to_zero():
    dag = BlockDag(chacon(12))
    K = 3
    centers = floor_means(dag, 10, "0", K)
    obs = FloorCylinderObservable("0", centers)
    mean = sum(
        (dag.frequency("0", 10).frequency - c) * Fraction(1, K) for c in obs.floor_centers
    )
    assert mean == 0
