"""A sweep or demo point opens its streams once (analysis._trials): the
random allocations' Generator on key (0,) and, per slot s, a _SlotStreams
whose Generator j is on key (s, j) under the point's SeedSequence
(synth._child_rng, synth._streams).  Each must be NumPy's Generator on
that keyed child, whatever the entropy, the spawn key of the point and the
children it has spawned, and a point opens only the streams its draws
read."""
import math

import numpy as np
import pytest

import sparse_isac as si
from sparse_isac import analysis
from sparse_isac.synth import _child_rng, _streams, _SlotStreams

ENTROPIES = {
    "zero": 0,
    "one-word": 5,
    "word-max": 2**32 - 1,
    "two-words": 2**32,
    "int63": 2**63 - 7,
    "three-words": 2**64 + 11,
    "int128": 0x8D3F_21C4_5E07_B9A6_1F42_77D0_C3E8_5A19,
    "four-words": 2**128 - 1,
    "five-words": 2**128 + 2**96 + 9,
    "list": [9, 3],
    "long-list": [1, 2, 3, 4, 5, 6],
}
# a demo's point (the master SeedSequence), a sweep's point (spawned from
# it), and a deeper key with a word at the top of 32 bits
PREFIXES = {"demo-point": (), "sweep-point": (3,), "deep": (0, 2**32 - 1)}


def keyed(ss, key):
    """NumPy's Generator on the child of `ss` by spawn key + `key`."""
    return np.random.default_rng(np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + key))


def same_stream(got, want):
    assert type(got.bit_generator) is type(want.bit_generator)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
    assert np.array_equal(got.integers(0, 2**63, size=3), want.integers(0, 2**63, size=3))


@pytest.mark.parametrize("spawned", [0, 3])
@pytest.mark.parametrize("prefix", PREFIXES.values(), ids=PREFIXES.keys())
@pytest.mark.parametrize("entropy", ENTROPIES.values(), ids=ENTROPIES.keys())
def test_a_child_generator_is_numpys_on_its_key(entropy, prefix, spawned):
    # by key, not by spawn(): the children a point has spawned do not move it
    ss = np.random.SeedSequence(entropy, spawn_key=prefix)
    ss.spawn(spawned)
    for key in [(0,), (1, 0), (4, 2), (2**32 - 1, 1)]:
        same_stream(_child_rng(ss, key), keyed(np.random.SeedSequence(entropy, spawn_key=prefix), key))
    assert ss.n_children_spawned == spawned


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("prefix", PREFIXES.values(), ids=PREFIXES.keys())
@pytest.mark.parametrize("entropy", ENTROPIES.values(), ids=ENTROPIES.keys())
def test_slot_streams_are_numpys_on_their_keys(entropy, prefix, count):
    # Generator j of slot s on key (s, j) for j < count, None past it; a
    # synthesize call's streams are on keys (j,)
    ss = np.random.SeedSequence(entropy, spawn_key=prefix)
    for slot in [(), (1,), (2,), (3,), (4,)]:
        streams = _streams(ss, count, slot)
        assert isinstance(streams, _SlotStreams)
        for j, rng in enumerate(streams):
            if j < count:
                same_stream(rng, keyed(ss, slot + (j,)))
            else:
                assert rng is None, (slot, j)


DESK = si.OfdmParams(n_subcarriers=256, n_symbols=32, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)
GRAM = si.OfdmParams(n_subcarriers=256, n_symbols=80, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)
MOVING = si.Target(distance_m=200.0, velocity_mps=15.0, amplitude=1.0)
METHOD_SETS = {m: (m,) for m in si.SWEEP_METHODS} | {
    "pair": ("direct_sparse", "autocorrelation"),
    "all": si.SWEEP_METHODS,
}
SLOT_OF = {"full_bandwidth": 2, "equivalent_bandwidth": 3, "direct_sparse": 1, "autocorrelation": 1, "nested": 4}


@pytest.mark.parametrize("snr_db", [0.0, math.inf], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("grid", [DESK, GRAM], ids=["desk", "gram"])
@pytest.mark.parametrize("methods", METHOD_SETS.values(), ids=METHOD_SETS.keys())
def test_a_point_opens_only_the_streams_it_reads(monkeypatch, methods, grid, snr_db):
    # slot s opens its phases, its noise where the scene has noise, and a
    # Bartlett factor where a requested virtual method (autocorrelation on
    # slot 1, nested on slot 4) reads the slot of a noisy scene; the
    # allocation stream only where a method reads the random allocation
    # (slot 1).  Each one it opens is read: the walk leaves none where it
    # was opened.
    cfg = si.SweepConfig(
        params=grid, n_active=64, snr_db_axis=(snr_db,), methods=methods, targets=(MOVING,), n_trials=2,
    )
    opened = {}  # key: (count of its Generators, None for the allocations' one; what was opened)

    def open_streams(ss, count, key):
        opened[key] = (count, _streams(ss, count, key))
        return opened[key][1]

    def open_child(ss, key):
        opened[key] = (None, _child_rng(ss, key))
        return opened[key][1]

    monkeypatch.setattr(analysis, "_streams", open_streams)
    monkeypatch.setattr(analysis, "_child_rng", open_child)
    ss = np.random.SeedSequence(11, spawn_key=(0,))
    for _ in analysis._trials(cfg, cfg.scenes[0], methods, cfg._allocations, cfg.n_trials, ss):
        pass

    slots = {SLOT_OF[m] for m in methods}
    factors = {SLOT_OF[m] for m in methods if m in ("autocorrelation", "nested")}
    want = {(slot,): 1 if snr_db == math.inf else 3 if slot in factors else 2 for slot in slots}
    if 1 in slots:
        want[(0,)] = None
    assert {key: count for key, (count, _) in opened.items()} == want
    for key, (count, streams) in opened.items():
        if count is None:
            pairs = [(streams, keyed(ss, key))]
        else:
            assert all(rng is None for rng in streams[count:])
            pairs = [(rng, keyed(ss, key + (j,))) for j, rng in enumerate(streams[:count])]
        for rng, start in pairs:
            assert rng.bit_generator.state != start.bit_generator.state, key
