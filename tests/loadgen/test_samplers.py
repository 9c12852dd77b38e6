"""Property tests for the workload engine's samplers.

The distributions carry contracts the benchmarks lean on: every key id
stays inside the key space, every value size inside the sizer's
declared bounds, and the Zipfian rank-frequency curve is monotone —
rank 0 really is the hottest key. Hypothesis sweeps the parameter
space; fixed-seed empirical checks pin the shapes.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.keys import (
    HotKeyChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    fnv1a_64,
    zeta,
)
from repro.loadgen.values import (
    FixedSizer,
    LognormalSizer,
    UniformSizer,
    payload,
)

spaces = st.integers(min_value=2, max_value=5000)
thetas = st.floats(min_value=0.05, max_value=0.99,
                   allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rank_probability(chooser, rank):
    """Exact Zipfian ``P(rank)``: the analytic curve draws are held to."""
    return 1.0 / (rank + 1) ** chooser.theta / zeta(chooser.space, chooser.theta)


# ----------------------------------------------------------------------
# zeta / fnv primitives
# ----------------------------------------------------------------------


@given(n=st.integers(min_value=1, max_value=400), theta=thetas)
def test_zeta_matches_direct_sum(n, theta):
    direct = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    assert zeta(n, theta) == pytest.approx(direct)
    # memoized second call returns the identical value
    assert zeta(n, theta) == zeta(n, theta)


@given(value=st.integers(min_value=0, max_value=2**64 - 1))
def test_fnv1a_is_a_stable_64bit_hash(value):
    digest = fnv1a_64(value)
    assert 0 <= digest < 2**64
    assert fnv1a_64(value) == digest


def test_fnv1a_known_vector():
    # FNV-1a of eight zero bytes — pins the byte order and constants
    # (reference: offset basis folded through the prime eight times)
    assert fnv1a_64(0) == 0xA8C7F832281A39C5


# ----------------------------------------------------------------------
# key choosers: range + determinism properties
# ----------------------------------------------------------------------


@given(space=spaces, theta=thetas, seed=seeds)
@settings(max_examples=40)
def test_zipfian_stays_in_range_and_replays(space, theta, seed):
    chooser = ZipfianChooser(space, theta)
    draws = [chooser.choose(random.Random(seed)) for _ in range(3)]
    assert all(0 <= d < space for d in draws)
    # same rng state -> same draw: the chooser itself holds no state
    assert draws[0] == draws[1] == draws[2]


@given(space=spaces, theta=thetas)
@settings(max_examples=40)
def test_zipfian_rank_probability_is_monotone(space, theta):
    chooser = ZipfianChooser(space, theta)
    probs = [rank_probability(chooser, r) for r in range(min(space, 64))]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    total = sum(rank_probability(chooser, r) for r in range(space))
    assert total == pytest.approx(1.0)


def test_zipfian_empirical_rank_frequency_monotone():
    """Drawn frequencies follow the analytic curve: hot ranks dominate."""
    chooser = ZipfianChooser(1000, 0.99)
    rng = random.Random(7)
    counts = Counter(chooser.choose(rng) for _ in range(40_000))
    # the head must be strictly ordered and carry its analytic share
    assert counts[0] > counts[1] > counts[2]
    head_share = sum(counts[r] for r in range(10)) / 40_000
    analytic = sum(rank_probability(chooser, r) for r in range(10))
    assert head_share == pytest.approx(analytic, rel=0.15)


@given(space=spaces, theta=thetas, seed=seeds)
@settings(max_examples=40)
def test_scrambled_zipfian_stays_in_range(space, theta, seed):
    chooser = ScrambledZipfianChooser(space, theta)
    rng = random.Random(seed)
    assert all(0 <= chooser.choose(rng) < space for _ in range(16))


def test_scrambled_zipfian_spreads_the_head():
    """Scrambling moves the hottest keys away from the low ids."""
    plain = ZipfianChooser(4096, 0.99)
    scrambled = ScrambledZipfianChooser(4096, 0.99)
    rng = random.Random(3)
    plain_head = sum(plain.choose(rng) < 64 for _ in range(4000)) / 4000
    rng = random.Random(3)
    scram_head = sum(
        scrambled.choose(rng) < 64 for _ in range(4000)
    ) / 4000
    assert plain_head > 0.5           # unscrambled head clumps low
    assert scram_head < 0.25          # scrambled head is dispersed


@given(
    space=spaces,
    hot_fraction=st.floats(min_value=0.01, max_value=1.0),
    hot_weight=st.floats(min_value=0.0, max_value=1.0),
    seed=seeds,
)
@settings(max_examples=40)
def test_hotkey_stays_in_range(space, hot_fraction, hot_weight, seed):
    chooser = HotKeyChooser(space, hot_fraction, hot_weight)
    rng = random.Random(seed)
    assert all(0 <= chooser.choose(rng) < space for _ in range(16))


def test_hotkey_weight_lands_on_the_hot_set():
    chooser = HotKeyChooser(1000, hot_fraction=0.1, hot_weight=0.9)
    rng = random.Random(11)
    n = 20_000
    hot = sum(chooser.choose(rng) < 100 for _ in range(n))
    assert hot / n == pytest.approx(0.9, abs=0.02)


@given(space=spaces, seed=seeds)
@settings(max_examples=40)
def test_latest_tracks_the_insert_horizon(space, seed):
    chooser = LatestChooser(space)
    rng = random.Random(seed)
    assert all(0 <= chooser.choose(rng) < space for _ in range(8))
    # the horizon saturates at the key space and never regresses
    chooser.note_insert(space + 100)
    assert chooser.horizon == space
    chooser.note_insert(0)
    assert chooser.horizon == space


def test_latest_prefers_recent_inserts():
    chooser = LatestChooser(1000, theta=0.99)
    rng = random.Random(5)
    draws = [chooser.choose(rng) for _ in range(10_000)]
    recent = sum(d >= 900 for d in draws) / len(draws)
    assert recent > 0.5  # the newest 10% of keys take most traffic


@given(space=spaces, seed=seeds)
def test_uniform_stays_in_range(space, seed):
    chooser = UniformChooser(space)
    rng = random.Random(seed)
    assert all(0 <= chooser.choose(rng) < space for _ in range(16))


# ----------------------------------------------------------------------
# value sizers: declared bounds hold for every sample
# ----------------------------------------------------------------------


@given(size=st.integers(min_value=1, max_value=10_000), seed=seeds)
def test_fixed_sizer_bounds(size, seed):
    sizer = FixedSizer(size)
    assert sizer.lo == sizer.hi == size
    assert sizer.size(random.Random(seed)) == size


@given(
    lo=st.integers(min_value=1, max_value=4096),
    span=st.integers(min_value=0, max_value=4096),
    seed=seeds,
)
@settings(max_examples=40)
def test_uniform_sizer_bounds(lo, span, seed):
    sizer = UniformSizer(lo, lo + span)
    rng = random.Random(seed)
    for _ in range(16):
        assert sizer.lo <= sizer.size(rng) <= sizer.hi


@given(
    median=st.integers(min_value=1, max_value=4096),
    sigma=st.floats(min_value=0.1, max_value=3.0),
    seed=seeds,
)
@settings(max_examples=40)
def test_lognormal_sizer_clamps_to_declared_bounds(median, sigma, seed):
    sizer = LognormalSizer(median, sigma)
    rng = random.Random(seed)
    for _ in range(16):
        assert sizer.lo <= sizer.size(rng) <= sizer.hi


def test_lognormal_median_is_roughly_the_median():
    sizer = LognormalSizer(256, sigma=1.0, lo=1, hi=1 << 20)
    rng = random.Random(9)
    samples = sorted(sizer.size(rng) for _ in range(20_001))
    assert samples[10_000] == pytest.approx(256, rel=0.15)


@given(size=st.integers(min_value=0, max_value=8192), seed=seeds)
def test_payload_length_and_determinism(size, seed):
    data = payload(size, random.Random(seed))
    assert len(data) == size
    assert payload(size, random.Random(seed)) == data
    if size:
        assert len(set(data)) == 1  # one byte repeated


@given(size=st.integers(min_value=0, max_value=8192), seed=seeds)
def test_payload_default_compressibility_byte_identical(size, seed):
    """The 1.0 knob setting is the historical generator, bit for bit
    (stream digests and same-seed replays depend on it)."""
    legacy = bytes([random.Random(seed).randrange(256)]) * size
    assert payload(size, random.Random(seed)) == legacy
    assert payload(size, random.Random(seed), 1.0) == legacy


@given(
    size=st.integers(min_value=0, max_value=8192),
    seed=seeds,
    compressibility=st.floats(
        min_value=0.0, max_value=1.0,
        allow_nan=False, allow_infinity=False,
    ),
)
def test_payload_compressibility_length_and_determinism(
    size, seed, compressibility
):
    data = payload(size, random.Random(seed), compressibility)
    assert len(data) == size
    assert payload(size, random.Random(seed), compressibility) == data


@given(seed=seeds)
def test_payload_compressibility_orders_deflate_ratio(seed):
    """More fill byte -> zlib does at least as well (the sweep axis the
    tier benchmark relies on is monotone in expectation; assert the
    coarse ends, which hold for every seed at this size)."""
    import zlib

    size = 4096
    sizes = {
        c: len(zlib.compress(payload(size, random.Random(seed), c), 1))
        for c in (0.0, 0.5, 1.0)
    }
    assert sizes[1.0] < size * 0.05          # repeated byte: tiny
    assert sizes[0.0] > size * 0.9           # pure RNG: incompressible
    assert sizes[1.0] < sizes[0.5] < sizes[0.0]


@given(size=st.integers(min_value=1, max_value=8192), seed=seeds)
def test_payload_random_prefix_fraction(size, seed):
    data = payload(size, random.Random(seed), 0.75)
    n_random = min(size, round(size * 0.25))
    tail = data[n_random:]
    if tail:
        assert len(set(tail)) == 1  # the compressible fill


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_payload_compressibility_validation(bad):
    with pytest.raises(ValueError):
        payload(16, random.Random(0), bad)


# ----------------------------------------------------------------------
# constructor validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -1])
def test_choosers_reject_empty_space(bad):
    with pytest.raises(ValueError):
        UniformChooser(bad)


@pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -0.1])
def test_zipfian_rejects_bad_theta(theta):
    with pytest.raises(ValueError):
        ZipfianChooser(100, theta)


def test_sizers_reject_bad_bounds():
    with pytest.raises(ValueError):
        FixedSizer(0)
    with pytest.raises(ValueError):
        UniformSizer(10, 5)
    with pytest.raises(ValueError):
        LognormalSizer(0)
    with pytest.raises(ValueError):
        LognormalSizer(100, sigma=0.0)
    with pytest.raises(ValueError):
        LognormalSizer(100, lo=50, hi=10)
