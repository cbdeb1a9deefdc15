import cmath
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, isqrt
from operator import add, mul

import pytest

import rankone.sarnak as sarnak
from rankone.blocks import BlockDag, abc_decompose
from rankone.construction import chacon, von_neumann_kakutani
from rankone.errors import InputError, RangeError
from rankone.cli import run_argv
from rankone.sarnak import (
    OrbitSpec,
    OrbitWord,
    cylinder_sarnak_averages,
    eigen_suspension_averages,
    geometric_grid,
    mertens,
    mobius_sieve,
    orbit_word,
    prime_power_averages,
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
    assert mu[1:11].tolist() == MU_FIRST_TEN
    assert mu[30] == -1


@pytest.mark.parametrize("limit", [1, 2, 4, 9, 3000])
def test_sieve_index_zero(limit):
    mu = mobius_sieve(limit)
    assert len(mu) == limit + 1
    assert mu[0] == 0


FACTORED = [0] + [_mu_by_factorization(n) for n in range(1, 20_001)]


def test_sieve_against_factorization():
    assert mobius_sieve(3000).tolist() == FACTORED[:3001]
    # the exact stretch below the byte-sum threshold moves with the limit
    for limit in range(1, 5001):
        assert mobius_sieve(limit).tolist() == FACTORED[: limit + 1], limit


# the whole-range reference for the segmented sieve: each n starts at -1 if
# prime, else +1; a prime p <= limit // _SPLIT negates its stride 2p, 3p, ...;
# for each m < _SPLIT, one XOR with 0xfe flips m * p for all larger primes p
_PRIME_TO_MU = bytes.maketrans(b"\x00\x01", b"\x01\xff")
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")
_PRIME_TO_FLIP = bytes.maketrans(b"\x01", b"\xfe")  # 0x01 ^ 0xfe == 0xff
_SPLIT = 16  # primes above limit // _SPLIT have fewer than _SPLIT multiples in range


def _whole_sieve(limit):
    """mu(0..limit) as bytes (-1 is 0xff), sieved whole."""
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    mu = prime.translate(_PRIME_TO_MU)
    mu[0] = 0
    split = limit // _SPLIT
    for p in compress(range(split + 1), prime):
        mu[2 * p :: p] = mu[2 * p :: p].translate(_NEGATE)
    for m in range(2, _SPLIT):
        top = limit // m
        stride = slice(m * (split + 1), m * top + 1, m)  # m * p for split < p <= top
        flips = prime[split + 1 : top + 1].translate(_PRIME_TO_FLIP)
        xor = int.from_bytes(mu[stride], "little") ^ int.from_bytes(flips, "little")
        mu[stride] = xor.to_bytes(len(flips), "little")
    for p in compress(range(isqrt(limit) + 1), prime):
        mu[p * p :: p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    return bytes(mu)


@pytest.mark.parametrize("limit", [65_535, 65_536, 65_537, 10**6, 10**7 + 7])
def test_segmented_sieve_equals_whole_sieve(limit):
    # segments of 2^16 numbers: limits end inside, at and past the first one
    assert mobius_sieve(limit).tobytes() == _whole_sieve(limit)


@pytest.mark.parametrize("segment", [1, 7, 64, 4096])
def test_sieve_with_small_segments(monkeypatch, segment):
    monkeypatch.setattr(sarnak, "SEGMENT", segment)
    for limit in [*range(1, 300), 999, 1000, 5000]:
        assert mobius_sieve(limit).tolist() == FACTORED[: limit + 1], limit


def test_segment_failing_the_threshold_check_is_sieved_exactly(monkeypatch):
    exact = []

    def spy(lo, hi, base, sums):
        exact.append((lo, hi))
        return cofactor_signs(lo, hi, base, sums)

    cofactor_signs = sarnak._cofactor_signs
    monkeypatch.setattr(sarnak, "_cofactor_signs", spy)
    monkeypatch.setattr(sarnak, "SEGMENT", 4096)
    # [1, 1001), s = 31, omega_max = 4: 1001^4 <= 32^4 * 2^c from c = 20 on,
    # and floor(4 log2 n) >= c + 2 omega_max = 28 from n = 128 on
    assert mobius_sieve(1000).tolist() == FACTORED[:1001]
    assert exact == [(1, 128)]
    # [1, 4097), s = 141, omega_max = 5: c = 20, and floor(4 log2 n) >= 30 from
    # n = 182 on; [4097, 8193) has c = 24 and x = 363 < 4097, so byte sums
    # decide it whole
    exact.clear()
    assert mobius_sieve(20_000).tolist() == FACTORED
    assert exact == [(1, 182)]


@pytest.mark.parametrize("limit, omega_max",
                         [(1, 0), (2, 1), (5, 1), (6, 2), (8, 2), (29, 2), (30, 3),
                          (209, 3), (210, 4), (2309, 4), (2310, 5)])
def test_omega_max_counts_primes_above_the_root(monkeypatch, limit, omega_max):
    # at limit 6 the only base prime is 2, yet 6 = 2 * 3 has two prime factors
    seen = set()

    def spy(lo, hi, base, root, omega):
        seen.add(omega)
        return sieve_segment(lo, hi, base, root, omega)

    sieve_segment = sarnak._sieve_segment
    monkeypatch.setattr(sarnak, "_sieve_segment", spy)
    assert mobius_sieve(limit).tolist() == FACTORED[: limit + 1]
    assert seen == {omega_max}


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
    assert mertens(mu) == mertens(mu, None) == 1
    assert mertens(mobius_sieve(10), 0) == 0
    assert mertens(mu, 1) == 1
    mu = mobius_sieve(10**6)
    assert mertens(mu, 10**4) == -23
    assert mertens(mu, 10**5) == -48
    assert mertens(mu) == 212
    # OEIS A084237: M(10^6) = 212, M(10^7) = 1037
    assert mertens(mobius_sieve(10**7)) == 1037


@pytest.mark.parametrize("limit", [-1, 11, 1000])
def test_mertens_limit_outside_sieve(limit):
    with pytest.raises(InputError):
        mertens(mobius_sieve(10), limit)


def test_geometric_grid():
    assert geometric_grid(10) == [1, 2, 3, 5, 10]
    assert geometric_grid(1) == [1]


def partial_averages(values, weights, horizon):
    """Exact partial averages (1/N') * sum_{n<=N'} values[n] * weights[n].

    `values` is indexed from 1 (callable or sequence with [n]); accumulation
    is exact for int/Fraction values and complex otherwise.  Steps with a zero
    weight are skipped and the others add `acc = acc + values[n] * weights[n]`
    in step order, so float sums round the same way on every path.  This is
    the per-step reference that the integer-count accumulators and the
    eigenfunction averages must match."""
    if len(weights) <= horizon:
        raise InputError(f"need weights at steps 1..{horizon}")
    get = values if callable(values) else values.__getitem__
    out, acc, prev = [], 0, 0
    for point in geometric_grid(horizon):
        steps = range(prev + 1, point + 1)
        w = weights[steps.start : steps.stop]
        acc = reduce(add, map(mul, map(get, compress(steps, w)), compress(w, w)), acc)
        out.append((point, Fraction(acc, point) if isinstance(acc, (int, Fraction))
                    else acc / point))
        prev = point
    return out


def _per_step(value, weights, horizon):
    """Partial averages by the plain loop acc = acc + value(n) * weights[n]."""
    out, acc, n = [], 0, 0
    for point in geometric_grid(horizon):
        while n < point:
            n += 1
            if weights[n]:
                acc = acc + value(n) * weights[n]
        out.append((point, Fraction(acc, point) if isinstance(acc, int) else acc / point))
    return out


def test_partial_averages_match_per_step_loop(rng):
    table = [cmath.exp(2j * cmath.pi * f / 7) for f in range(7)]
    # the reference takes any weights, not only Mobius values
    weights = [0] + [rng.randint(-3, 3) for _ in range(500)]
    for mu in (mobius_sieve(500), weights):
        for horizon in (1, 2, 3, 37, 500):
            def ints(n):
                return n % 5 - 2

            def floats(n):
                return table[n * n % 7]

            for value in (ints, floats):
                rows = partial_averages(value, mu, horizon)
                expected = _per_step(value, mu, horizon)
                assert repr(rows) == repr(expected)
                listed = [value(n) for n in range(horizon + 1)]
                assert repr(partial_averages(listed, mu, horizon)) == repr(expected)


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
    a = cylinder_sarnak_averages(word, "0", Fraction(0), 2000)
    b = cylinder_sarnak_averages(word, "0", Fraction(2, 3), 2000)
    # centering shifts every partial average by center * Mertens / N
    for (n1, v1), (n2, v2) in zip(a, b):
        assert n1 == n2
        assert v1 - v2 == Fraction(2, 3) * Fraction(mertens(mu, n1), n1)


@pytest.mark.parametrize("K", [1, 3])
def test_cylinder_counts_match_per_step_reference(K):
    dag = BlockDag(chacon(14))
    horizon = 700
    mu = mobius_sieve(horizon)
    center = Fraction(2, 3)
    for start_floor in range(K):
        # the word ends on the last symbol the last step's window reads
        word = orbit_word(dag, OrbitSpec(stage=10, offset=3), (start_floor + horizon) // K + 2)

        def centered_hit(n):
            # step n: floor (start_floor + n) % K, base position (start_floor + n) // K
            base = (start_floor + n) // K
            return int(word.startswith("01", base)) - center

        rows = cylinder_sarnak_averages(word, "01", center, horizon, K, start_floor)
        assert rows == partial_averages(centered_hit, mu, horizon)
        with pytest.raises(RangeError):
            cylinder_sarnak_averages(word[:-1], "01", center, horizon, K, start_floor)


@pytest.mark.parametrize("segment", [1, 7, 4096])
def test_accumulators_match_reference_in_segments(monkeypatch, segment):
    # segments of 1 and 7 steps split the pieces between grid points, the
    # floor cycles and the p/q strides; the counts carry across every cut
    monkeypatch.setattr(sarnak, "SEGMENT", segment)
    dag = BlockDag(chacon(14))
    horizon = 700
    mu = mobius_sieve(horizon)
    center = Fraction(2, 3)
    for K in (1, 3, 8):
        for start_floor in sorted({0, K // 2, K - 1}):
            spec = OrbitSpec(stage=10, offset=3)
            length = (start_floor + horizon) // K + 2
            word = orbit_word(dag, spec, length)

            def centered_hit(n):
                return int(word.startswith("01", (start_floor + n) // K)) - center

            expected = partial_averages(centered_hit, mu, horizon)
            for source in (word, OrbitWord(dag, spec, length)):
                rows = cylinder_sarnak_averages(source, "01", center, horizon, K, start_floor)
                assert rows == expected
            with pytest.raises(RangeError):
                cylinder_sarnak_averages(OrbitWord(dag, spec, length - 1), "01", center,
                                         horizon, K, start_floor)
    for p, q in ((2, 3), (5, 2), (1, 11)):
        spec = OrbitSpec(stage=12, offset=7)
        word = orbit_word(dag, spec, max(p, q) * horizon + 3)

        def product(n):
            return ((int(word.startswith("010", p * n)) - center)
                    * (int(word.startswith("010", q * n)) - center))

        expected = partial_averages(product, [1] * (horizon + 1), horizon)
        assert prime_power_averages(word, "010", center, p, q, horizon) == expected
        lazy = OrbitWord(dag, spec, max(p, q) * horizon + 3)
        assert prime_power_averages(lazy, "010", center, p, q, horizon) == expected
    for K in (1, 3, 5, 130):
        table = [cmath.exp(2j * cmath.pi * 2 * f / K) for f in range(K)]
        for start_floor in range(K):
            expected = partial_averages(lambda n: table[(start_floor + n) % K], mu, horizon)
            rows = eigen_suspension_averages(K, 2, horizon, start_floor)
            assert repr(rows) == repr(expected)


@pytest.mark.parametrize("N", [200_000, 2_000_000])
def test_cli_orbit_averages_memory_is_flat(tmp_path, N):
    # the README sarnak and suspend eigen lines hold segments, never a
    # horizon-long buffer: the traced peak stays under a bound fixed in N
    lines = (
        ["sarnak", "--config", "chacon:depth=30", "--observable", "cyl:0",
         "--center-value", "2/3", "--N", str(N), "--stage", "15"],
        ["suspend", "--config", "chacon:depth=30", "--K", "3", "--observable", "eigen:1",
         "--N", str(N)],
        ["suspend", "--config", "chacon:depth=30", "--K", "200", "--observable", "eigen:1",
         "--N", str(N)],
    )
    for k, argv in enumerate(lines):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code, _ = run_argv(argv, outdir=str(tmp_path / str(k)))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20, (argv[0], peak)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_cylinder_counts_match_reference_grid_of_shapes(K, rng):
    dag = BlockDag(chacon(14))
    mu = mobius_sieve(1000)
    for cylinder in ("0", "1", "00", "01", "10", "11", "010", "101"):
        center = Fraction(rng.randint(0, 6), 7)
        for horizon in (1, 2, 3, 7, 100, 1000):
            for start_floor in range(K):
                spec = OrbitSpec(stage=12, offset=rng.randint(1, 5000))
                word = orbit_word(dag, spec, (start_floor + horizon) // K + len(cylinder))

                def centered_hit(n):
                    base = (start_floor + n) // K
                    return int(word.startswith(cylinder, base)) - center

                rows = cylinder_sarnak_averages(word, cylinder, center, horizon, K, start_floor)
                assert rows == partial_averages(centered_hit, mu, horizon)


def test_prime_power_counts_match_per_step_loop(rng):
    dag = BlockDag(chacon(14))
    for _ in range(30):
        p, q = rng.sample((1, 2, 3, 5, 7, 11), 2)
        horizon = rng.choice((1, 2, 3, 50, 301))
        cylinder = rng.choice(("0", "1", "11", "010"))
        center = Fraction(rng.randint(0, 5), 5)
        word = orbit_word(dag, OrbitSpec(stage=12, offset=rng.randint(1, 1000)),
                          max(p, q) * horizon + len(cylinder))
        acc, expected = Fraction(0), {}
        for n in range(1, horizon + 1):
            fp = int(word.startswith(cylinder, p * n)) - center
            fq = int(word.startswith(cylinder, q * n)) - center
            acc += fp * fq
            expected[n] = acc / n
        rows = prime_power_averages(word, cylinder, center, p, q, horizon)
        assert rows == [(n, expected[n]) for n in geometric_grid(horizon)]


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
    # the observable is symmetric in the two steps
    assert prime_power_averages(word, "10", center, 3, 2, 900) == rows


@pytest.mark.parametrize("floors, start_floor", [(0, 0), (3, 3), (3, -1)])
def test_start_floor_outside_floors_raises(floors, start_floor):
    # refused before any division by the floor count
    word = "01" * 100
    with pytest.raises(InputError):
        cylinder_sarnak_averages(word, "0", Fraction(0), 100, floors, start_floor)
    with pytest.raises(InputError):
        eigen_suspension_averages(floors, 1, 100, start_floor)


def test_accumulators_refuse_short_weights_and_bad_horizons():
    word = "01" * 100
    mu = mobius_sieve(10)
    # the reference refuses weights that stop short of the horizon
    with pytest.raises(InputError):
        partial_averages(lambda n: 1, mu, 11)
    for horizon in (0, -5):
        with pytest.raises(InputError):
            cylinder_sarnak_averages(word, "0", Fraction(0), horizon)
        with pytest.raises(InputError):
            eigen_suspension_averages(3, 1, horizon)
        with pytest.raises(InputError):
            prime_power_averages(word, "0", Fraction(0), 2, 3, horizon)
    # the reference reads any weights: a 2, a 300, and a bytes 0xff as 255
    for weights in ([0] + [2] * 20, [0] + [300] * 20, b"\x00" + b"\xff" * 20):
        assert partial_averages(lambda n: 1, weights, 8)[-1][1] == weights[1]


def test_geometric_grid_needs_positive_horizon():
    for horizon in (0, -5):
        with pytest.raises(InputError):
            geometric_grid(horizon)


def test_prime_power_input_checks():
    dag = BlockDag(chacon(20))
    word = orbit_word(dag, OrbitSpec(stage=10), 500)
    with pytest.raises(InputError):
        prime_power_averages(word, "0", Fraction(0), 3, 3, 50)
    # a step below 1 would read from the word's end (negative start) or stand still
    for p, q in ((-1, 3), (0, 3), (2, 0)):
        with pytest.raises(InputError):
            prime_power_averages(word, "0", Fraction(0), p, q, 50)
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
    # a splice with no suffix starts on the spacer run
    no_suffix = OrbitSpec(stage=8, offset=1, splice_ones=5)
    assert orbit_word(dag, no_suffix, 30) == "1" * 5 + dag.extract(8, 1, 25)
    # the lazy word reads every slice as the str does
    for spec, length in ((spec, 40), (spliced, 30), (no_suffix, 30)):
        word = orbit_word(dag, spec, length)
        lazy = OrbitWord(dag, spec, length)
        assert len(lazy) == length
        for lo in range(length + 1):
            for hi in range(lo, length + 1):
                assert lazy[lo:hi] == word[lo:hi]
    for key in (slice(None, None, 2), slice(None, None, -1), 3, -1, (0, 1)):
        with pytest.raises(InputError):
            lazy[key]


def test_orbit_word_range_errors():
    dag = BlockDag(chacon(10))
    with pytest.raises(RangeError):
        orbit_word(dag, OrbitSpec(stage=3, offset=10), 10)


@pytest.mark.parametrize("suffix, ones", [(3, 2), (0, 5), (4, 0)])
def test_spliced_spec_refuses_offset(suffix, ones):
    # a spliced orbit starts at the splice, so an offset would go unread
    with pytest.raises(InputError, match="takes no offset"):
        OrbitSpec(stage=6, offset=50, splice_suffix=suffix, splice_ones=ones)
    assert OrbitSpec(stage=6, offset=1, splice_suffix=suffix, splice_ones=ones).spliced


def test_spliced_window_abc_consistency():
    # the window around the splice decomposes with the spacer run as its middle
    dag = BlockDag(chacon(12))
    spliced = OrbitSpec(stage=8, offset=1, splice_suffix=40, splice_ones=9)
    word = orbit_word(dag, spliced, 100)
    dec = abc_decompose(dag, word, Fraction(1, 4), 2)
    assert not dec.valid  # nine straight spacers never occur in this language
    assert dec.b == "1" * 9
    assert word[len(dec.a) : len(dec.a) + 9] == "1" * 9


def _eigen_value_at(K, power, n, start_floor=0):
    """Value at step n, where mu(n) != 0: the sums to n and to n - 1 differ
    by it times mu(n)."""
    mu = mobius_sieve(n)[n]
    assert mu, n

    def total(m):
        return eigen_suspension_averages(K, power, m, start_floor)[-1][1] * m if m else 0

    return (total(n) - total(n - 1)) / mu


def test_suspension_floor_arithmetic():
    # step n sits on floor (start_floor + n) % K; read at the steps 1..9 with mu(n) != 0
    for n in (1, 2, 3, 5, 6, 7):
        expected = cmath.exp(2j * cmath.pi * ((1 + n) % 3) / 3)
        assert _eigen_value_at(3, 1, n, start_floor=1) == pytest.approx(expected)
    mu = mobius_sieve(9)
    rows = eigen_suspension_averages(3, 1, 9, start_floor=1)
    assert [n for n, _ in rows] == geometric_grid(9)
    for point, average in rows:
        total = sum(mu[n] * cmath.exp(2j * cmath.pi * ((1 + n) % 3) / 3)
                    for n in range(1, point + 1))
        assert average == pytest.approx(total / point)


# K = 127 is the last K whose grid pieces are single runs; from 128 on runs
# of 127 steps cut each piece, so K = 128, 254, 300 and 1000 wrap a run past
# floor K - 1 at start floors up to K - 1, and the 375-step pieces of the
# horizon 3000 end between run cuts
@pytest.mark.parametrize("K", [1, 2, 3, 5, 127, 128, 254, 300, 1000])
def test_eigen_matches_partial_averages_bit_for_bit(K):
    mu = mobius_sieve(3000)
    for power in (0, 1, 2, -2):
        table = [cmath.exp(2j * cmath.pi * power * f / K) for f in range(K)]
        for start_floor in sorted({*range(min(K, 4)), K // 2, K - 1}):
            for horizon in (1, 2, 3000):
                rows = eigen_suspension_averages(K, power, horizon, start_floor)
                reference = partial_averages(lambda n: table[(start_floor + n) % K], mu, horizon)
                assert repr(rows) == repr(reference)


def test_suspension_eigen_power_and_k1():
    assert _eigen_value_at(4, 2, 2) == pytest.approx(cmath.exp(2j * cmath.pi * 2 * 2 / 4))
    assert _eigen_value_at(4, 2, 3) == pytest.approx(-1)
    # one floor: the eigenfunction is the constant 1, so the averages are Mertens / N'
    mu = mobius_sieve(200)
    for point, average in eigen_suspension_averages(1, 5, 200):
        assert average == pytest.approx(mertens(mu, point) / point)


def test_floor_centering_integrates_to_zero(tmp_path):
    # suspend cyl: centers every floor by the block frequency, so the centered
    # observable has mean zero under the product of the block measure and the
    # uniform floor measure; the CSV is the accumulator with that one center
    K, stage, horizon = 3, 10, 600
    code, _ = run_argv(
        ["suspend", "--config", "chacon:depth=12", "--K", str(K), "--observable", "cyl:0",
         "--N", str(horizon), "--stage", str(stage), "--i0", "2", "--out", str(tmp_path)]
    )
    assert code == 0
    dag = BlockDag(chacon(12))
    freq = dag.frequency("0", stage).frequency
    # every floor carries the block measure, so the one center makes each
    # floor's observable, and their uniform mixture, integrate to zero
    assert dag.materialize(stage).count("0") - freq * dag.height(stage) == 0
    word = orbit_word(dag, OrbitSpec(stage=stage), (2 + horizon) // K + 1)
    rows = cylinder_sarnak_averages(word, "0", freq, horizon, K, 2)
    lines = (tmp_path / "suspend.csv").read_text().splitlines()
    assert lines[1:] == [f"{n},{v.numerator}/{v.denominator}" for n, v in rows]
