"""A sweep or demo point derives the PCG64 states of its trials' streams
without building their SeedSequences (synth._pcg64_states) and sets them
into three reused Generators (analysis._trials).  NumPy's SeedSequence and
PCG64 are the reference: every state, every draw from a set Generator and
every draw of a walk must equal theirs.

It needs only NumPy, pytest, the package and tests/reference.py, so CI
also runs it against the oldest NumPy that pyproject.toml allows."""
import math

import numpy as np
import pytest

import sparse_isac as si
from reference import bits, per_call_walk
from sparse_isac import synth
from sparse_isac.analysis import _trials
from sparse_isac.synth import _pcg64_states, _set_state, _SlotStreams

ENTROPIES = {
    "zero": 0,
    "one-word": 5,
    "word-max": 2**32 - 1,
    "two-words": 2**32,
    "int63": 2**63 - 7,
    "three-words": 2**64 + 11,
    "four-words": 2**128 - 1,
    "five-words": 2**128 + 2**96 + 9,
    "list": [9, 3],
    "long-list": [1, 2, 3, 4, 5, 6],
    "drawn": np.random.SeedSequence().entropy,  # 128 bits, new each run
}
PREFIXES = [(), (3,), (0, 2**32 - 1)]


def numpy_state(ss, key):
    state = np.random.PCG64(
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + tuple(int(w) for w in key))
    ).state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("prefix", PREFIXES, ids=["no-prefix", "prefix-1", "prefix-2"])
@pytest.mark.parametrize("entropy", ENTROPIES.values(), ids=ENTROPIES.keys())
def test_states_equal_numpys(entropy, prefix, depth):
    # a key of depth d after a short entropy is mixed in after the zero pad
    # to the pool of 4; a long entropy fills the pool and its words past 4
    # come before the key's
    ss = np.random.SeedSequence(entropy, spawn_key=prefix)
    words = np.random.default_rng(depth).integers(0, 2**32, size=(6, depth))
    keys = np.vstack([words, np.zeros(depth, dtype=np.int64), np.full(depth, 2**32 - 1)])
    got = _pcg64_states(ss, keys)
    assert len(got) == len(keys)
    for key, state in zip(keys, got):
        assert state == numpy_state(ss, key), (entropy, prefix, key)


def test_no_keys_derive_no_states():
    assert _pcg64_states(np.random.SeedSequence(1), np.zeros((0, 3), dtype=np.int64)) == []


@pytest.mark.parametrize("word", [2**32, 2**40, -1])
def test_a_key_word_outside_32_bits_raises(word):
    # SeedSequence splits a word of 2**32 or more into two: not derived
    with pytest.raises(ValueError, match="spawn key words"):
        _pcg64_states(np.random.SeedSequence(5), [(1, 2), (3, word)])


def test_a_pool_other_than_4_raises():
    with pytest.raises(ValueError, match="pool size 8"):
        _pcg64_states(np.random.SeedSequence(5, pool_size=8), [(1, 2)])


def test_a_string_entropy_word_raises():
    # SeedSequence takes one, parsed as a number: not derived
    with pytest.raises(TypeError, match="integer entropy words"):
        _pcg64_states(np.random.SeedSequence(["12"]), [(1, 2)])


def test_a_reused_generator_draws_as_a_fresh_one():
    # the draws of a sweep or demo trial, from a Generator set to each key's
    # state in turn, after draws of other streams, among them one that leaves
    # a buffered 32-bit half (has_uint32)
    ss = np.random.SeedSequence(77, spawn_key=(2,))
    keys = [(i, slot, j) for i in (0, 1, 40) for slot in (1, 4) for j in (0, 1, 2)]
    reused = np.random.default_rng(0)
    for key, state in zip(keys, _pcg64_states(ss, keys)):
        reused.integers(0, 7, size=3, dtype=np.uint32)
        _set_state(reused, state)
        fresh = np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + key))
        got, want = [], []
        for rng, out in ((reused, got), (fresh, want)):
            z = np.empty(37)
            rng.standard_normal(out=z)
            out += [
                rng.uniform(0.0, 2.0 * math.pi), z, rng.standard_gamma(np.arange(5, 0, -1)),
                rng.choice(np.arange(1, 255), size=62, replace=False), rng.standard_normal(11),
            ]
        for a, b in zip(got, want):
            assert np.array_equal(a, b), key


DESK = si.OfdmParams(n_subcarriers=256, n_symbols=32, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)
GRAM = si.OfdmParams(n_subcarriers=256, n_symbols=80, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)
MOVING = si.Target(distance_m=200.0, velocity_mps=15.0, amplitude=1.0)


def drawn_in(monkeypatch):
    """Every draw of the sweep's or demo's table, in order: (allocation, drawn)."""
    draws = []
    for name in ("grid", "statistics"):
        def spy(table, alloc, seed, real=getattr(synth._SignalTable, name), **lags):
            assert isinstance(seed, _SlotStreams)
            drawn = real(table, alloc, seed, **lags)
            draws.append((alloc, drawn))
            return drawn
        monkeypatch.setattr(synth._SignalTable, name, spy)
    return draws


@pytest.mark.parametrize(
    "params, snr_db",
    [
        pytest.param(DESK, 0.0, id="desk-grids"),
        pytest.param(GRAM, 0.0, id="gram-factors"),  # M > K + 1 + T: a Bartlett factor per virtual slot
        pytest.param(GRAM, math.inf, id="gram-noiseless"),  # no factor stream
    ],
)
@pytest.mark.parametrize("spawned", [0, 3])
def test_a_walk_keeps_the_spawn_walk_bits(monkeypatch, params, snr_db, spawned):
    # a point's SeedSequence that has already spawned children: the walk's
    # trial i reads child spawned + i, as spawn(1) per trial did, and spawns none
    cfg = si.SweepConfig(
        params=params, n_active=64, snr_db_axis=(snr_db,), methods=si.SWEEP_METHODS,
        targets=(MOVING,), n_trials=3,
    )
    scene, fixed = cfg.scenes[0], cfg._allocations
    ss, ref_ss = (np.random.SeedSequence(11, spawn_key=(1,)) for _ in range(2))
    ss.spawn(spawned)
    ref_ss.spawn(spawned)
    draws = drawn_in(monkeypatch)
    for _ in _trials(cfg, scene, cfg.methods, fixed, cfg.n_trials, ss):
        pass
    assert ss.n_children_spawned == spawned
    want = per_call_walk(cfg, scene, cfg.methods, fixed, cfg.n_trials, ref_ss)
    assert len(draws) == len(want) == 4 * cfg.n_trials
    for (alloc, got), (_, ref_alloc, ref) in zip(draws, want):
        assert type(got) is type(ref)
        assert getattr(got, "seed_ss", None) is None  # no SeedSequence built for it
        assert np.array_equal(alloc.indices, ref_alloc.indices)
        for read in ("symbol_sum", "cpi_lags", "block"):
            assert np.array_equal(bits(getattr(got, read)), bits(getattr(ref, read))), read
