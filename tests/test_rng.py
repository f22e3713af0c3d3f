"""Pinned-generator behavior: goldens, distributions, stream independence."""

import math
from pathlib import Path

import numpy as np
import pytest

from yona.rng import (_TAPE_COUNTERS, RngStream, SeedSpec, _mix64_block,
                      derive_image_streams, derive_stream, image_stream_label)

FIXTURES = Path(__file__).parent / "fixtures"


def test_reference_word_sequence():
    # reference outputs of the pinned generator from state (1, 2, 3, 4)
    s = RngStream(1, 2, 3, 4)
    assert s.next_words(3) == [11520, 0, 1509978240]


def test_derive_is_deterministic():
    a = derive_stream(SeedSpec(0, 0))
    b = derive_stream(SeedSpec(0, 0))
    assert a.next_words(100) == b.next_words(100)


def test_distinct_labels_diverge():
    a = derive_stream(SeedSpec(0, 0))
    b = derive_stream(SeedSpec(0, 1))
    assert a.next_u64() != b.next_u64()


def test_label_collision_sweep():
    # distinct labels under one global seed: first 64 outputs differ
    seen = {}
    for label in range(200):
        words = tuple(derive_stream(SeedSpec(42, label)).next_words(64))
        assert words not in seen, f"label {label} collides with {seen[words]}"
        seen[words] = label


def test_golden_fixture():
    expected = [int(line) for line in
                (FIXTURES / "rng_golden_words.txt").read_text().split()]
    assert derive_stream(SeedSpec(7, 3)).next_words(5) == expected


def test_unit_uniform_range_and_word_rate():
    s = derive_stream(SeedSpec(3, 1))
    twin = derive_stream(SeedSpec(3, 1))
    u = s.next_unit_uniform()
    assert 0.0 <= u < 1.0
    assert u == (twin.next_u64() >> 11) * 2.0 ** -53


def test_unit_uniform_mean_and_median_split():
    s = derive_stream(SeedSpec(1, 0))
    draws = np.array([s.next_unit_uniform() for _ in range(100_000)])
    assert 0.495 <= draws.mean() <= 0.505
    assert 0.494 <= (draws < 0.5).mean() <= 0.506


def test_coin_pair_matches_uniforms():
    for seed in range(20):
        a = derive_stream(SeedSpec(seed, 7))
        b = derive_stream(SeedSpec(seed, 7))
        coins = a.next_coin_pair()
        uniforms = (b.next_unit_uniform() <= 0.5,
                    b.next_unit_uniform() <= 0.5)
        assert coins == uniforms
        assert a.state == b.state


def test_byte_uniform_chi_square():
    s = derive_stream(SeedSpec(9, 0))
    draws = np.array([s.next_byte_uniform() for _ in range(1_000_000)])
    counts = np.bincount(draws, minlength=256)
    expect = 1_000_000 / 256
    sigma = math.sqrt(1_000_000 * (1 / 256) * (255 / 256))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_next_index_singleton_and_bounds():
    s = derive_stream(SeedSpec(0, 5))
    assert all(s.next_index(1) == 0 for _ in range(10))
    draws = [s.next_index(7) for _ in range(5000)]
    assert min(draws) == 0 and max(draws) == 6
    counts = np.bincount(draws, minlength=7)
    assert counts.min() > 5000 / 7 * 0.8


def test_next_index_rejects_zero():
    with pytest.raises(ValueError):
        derive_stream(SeedSpec(0, 0)).next_index(0)


def test_gaussian_moments():
    s = derive_stream(SeedSpec(4, 2))
    draws = np.array([s.next_gaussian() for _ in range(100_000)])
    assert 0.99 <= draws.std() <= 1.01
    assert abs(draws.mean()) < 0.02


def test_gaussian_rejects_bad_stddev():
    with pytest.raises(ValueError):
        derive_stream(SeedSpec(0, 0)).next_gaussian(0.0, 0.0)


def test_fill_bytes_replay_and_chunking_independence():
    a = derive_stream(SeedSpec(5, 5))
    b = derive_stream(SeedSpec(5, 5))
    one = np.asarray(a.fill_bytes(5000)).copy()
    parts = [np.asarray(b.fill_bytes(n)).copy() for n in (100, 1536, 3364)]
    assert np.array_equal(one, np.concatenate(parts))


def test_fill_bytes_rejects_negative_count_without_moving():
    s = derive_stream(SeedSpec(5, 6))
    twin = derive_stream(SeedSpec(5, 6))
    s.fill_bytes(100)
    twin.fill_bytes(100)
    with pytest.raises(ValueError):
        s.fill_bytes(-5)
    assert np.array_equal(s.fill_bytes(300), twin.fill_bytes(300))
    assert s.state == twin.state


class _EagerTapeStream(RngStream):
    """Reference tape: each 64 KiB block is made whole on its first read."""

    def __init__(self, *state):
        super().__init__(*state)
        self.block = np.empty(0, dtype=np.uint8)
        self.block_pos = 0

    def fill_bytes(self, n):
        parts = [np.empty(0, dtype=np.uint8)]
        while n > 0:
            if self.block_pos == self.block.shape[0]:
                words = _TAPE_COUNTERS + np.uint64(self.next_u64())
                self.block = _mix64_block(words).astype("<u8").view(np.uint8)
                self.block_pos = 0
            take = min(n, self.block.shape[0] - self.block_pos)
            parts.append(self.block[self.block_pos:self.block_pos + take])
            self.block_pos += take
            n -= take
        return np.concatenate(parts)


def _tape_op(rng):
    """One random stream call, weighted towards tape window edges."""
    kind = rng.integers(6)
    if kind == 0:
        return ("bytes", 0)
    if kind == 1:
        return ("bytes", int(rng.integers(1, 4000)))  # around the prefix
    if kind == 2:
        return ("bytes", int(rng.integers(20_000, 70_000)))  # block edges
    if kind == 3:
        return ("u64", 0)
    if kind == 4:
        return ("gauss", int(rng.integers(1, 1000)))
    return ("clone", 0)


def _run_tape_op(stream, op):
    kind, n = op
    if kind == "bytes":
        return np.asarray(stream.fill_bytes(n)).copy()
    if kind == "u64":
        return stream.next_u64()
    return stream.fill_gaussian(n, 3.0, 2.0)


def test_lazy_tape_matches_eager_blocks():
    rng = np.random.default_rng(2024)
    for trial in range(150):
        lazy = derive_stream(SeedSpec(trial, 9))
        eager = _EagerTapeStream(*lazy.state)
        streams = [lazy]
        for _ in range(12):
            op = _tape_op(rng)
            if op[0] == "clone":
                streams.append(streams[-1].clone())
                continue
            expected = _run_tape_op(eager, op)
            for stream in streams:
                got = _run_tape_op(stream, op)
                assert np.array_equal(got, expected), (trial, op)
                assert stream.state == eager.state


def test_fill_bytes_mean():
    s = derive_stream(SeedSpec(6, 6))
    b = s.fill_bytes(1_000_000)
    assert 126.0 <= float(b.astype(np.float64).mean()) <= 129.0


def test_fill_bytes_byte_frequencies():
    s = derive_stream(SeedSpec(8, 1))
    counts = np.bincount(s.fill_bytes(1_000_000), minlength=256)
    expect = 1_000_000 / 256
    sigma = math.sqrt(1_000_000 * (1 / 256) * (255 / 256))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_fill_gaussian_moments():
    s = derive_stream(SeedSpec(10, 3))
    z = s.fill_gaussian(200_000, mean=10.0, stddev=4.0)
    assert abs(z.mean() - 10.0) < 0.05
    assert abs(z.std() - 4.0) < 0.05


def test_clone_replays_identically():
    s = derive_stream(SeedSpec(11, 4))
    s.fill_bytes(100)
    s.next_unit_uniform()
    c = s.clone()
    assert s.next_words(20) == c.next_words(20)
    assert np.array_equal(np.asarray(s.fill_bytes(4000)),
                          np.asarray(c.fill_bytes(4000)))


def test_split_children_are_independent_and_deterministic():
    a = derive_stream(SeedSpec(12, 0))
    b = derive_stream(SeedSpec(12, 0))
    a1, a2 = a.split(0), a.split(1)
    b1, b2 = b.split(0), b.split(1)
    assert a1.next_words(10) == b1.next_words(10)
    assert a2.next_words(10) == b2.next_words(10)
    assert a1.next_words(10) != a2.next_words(10)


def test_image_streams_are_order_free():
    s_a = derive_image_streams(99, 123)
    s_b = derive_image_streams(99, 123)
    for x, y in zip(s_a, s_b):
        assert x.next_words(8) == y.next_words(8)
    roles = {image_stream_label(123, r) for r in range(3)}
    assert len(roles) == 3


def test_word_buffer_interleaves_consistently():
    # scalar draws, bulk fills, and splits all consume one word sequence
    a = derive_stream(SeedSpec(13, 1))
    b = derive_stream(SeedSpec(13, 1))
    seq = [a.next_u64() for _ in range(3)]
    b.next_unit_uniform()
    b.next_byte_uniform()
    seq_b = [b.next_u64()]
    assert seq[2] == seq_b[0]
