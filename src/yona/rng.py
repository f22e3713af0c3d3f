"""Deterministic, splittable random streams.

Every stochastic choice in the engine flows through an :class:`RngStream`.
The generator is pinned so that outputs are bit-identical across platforms,
Python versions, and process/thread scheduling:

* word sequence: xoshiro256** (public-domain reference state update);
* seeding: the SplitMix64 finalizer applied to
  ``global_seed XOR rotl64(stream_label, 32)``, then four successive
  SplitMix64 outputs form the 256-bit state;
* unit uniforms: top 53 bits of a word, scaled by 2**-53 (always in [0, 1));
* bulk bytes (:meth:`RngStream.fill_bytes`): a buffered byte tape.  The tape
  is produced in fixed blocks of 8192 words (64 KiB); each block consumes one
  word ``w`` from the stream and expands it as the little-endian bytes of
  ``splitmix64_mix(w + i * GOLDEN)`` for ``i = 1 .. 8192``.  Byte output is
  therefore a pure function of the stream state and the number of bytes
  consumed so far, independent of how reads are chunked.  A block is made
  whole when its first byte is read, and ``w`` is consumed then.

Each rule has a lane twin over numpy uint64 lanes, one lane per stream of
a run of image indices.  This module is the only place where a stream word
becomes a draw, for a stream as for lanes:

* seeding, `derive_stream` (`image_stream`): `lane_states`, ``(4, N)``
  xoshiro states;
* a word, a unit uniform and an index with rejection, the
  ``next_u64``, ``next_unit_uniform`` and ``next_index`` of `RngStream`:
  the same methods of `LaneStream`, which advance only the lanes asked
  for; both ``next_index`` redraw through `_index_limit`.  A coin is a
  uniform ``<= 0.5`` and a gate a uniform ``< p`` on either side;
* a permutation, :meth:`RngStream.permutation`: a Fisher-Yates shuffle of
  ``range(n)`` that swaps item ``i`` with item ``next_index(i + 1)`` for
  ``i`` from ``n - 1`` down to 1 (it has no lane twin);
* tape, :meth:`RngStream.fill_bytes`: `_tapes`, the one tape maker, given
  one seed word per row for each block.  Its three callers differ only in
  where those words come from: `RngStream.fill_bytes` draws one block at a
  time from its own ``next_u64``, `lane_tape` draws every block from a
  `LaneStream`, and `stream_tapes` from scalar Python ints: a tape of one
  block from `_first_word` of each stream, with no stream object, and a
  longer one from each `image_stream`'s own ``next_u64``, so it shares no
  seeding and no word step with the lanes.

The golden word fixture pins the scalar stream, and the lane differential
tests pin the twins to it.

Changing any of these conventions invalidates golden files and is a breaking
change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Role tags for the three named per-image sub-streams.
STRUCTURE_ROLE = 0
AUGMENT_ROLE = 1
NOISE_ROLE = 2

_TAPE_WORDS = 8192  # bulk tape refill quantum, 64 KiB of bytes per block

# Names the conventions above in manifests; change it with any of them.
RNG_SCHEME = f"xoshiro256ss-splitmix64-tape{_TAPE_WORDS}"

# Counter offsets for one tape block, precomputed once.
_TAPE_COUNTERS = (np.arange(1, _TAPE_WORDS + 1, dtype=np.uint64)
                  * np.uint64(_GOLDEN))

_U64 = np.uint64


def _rotl64(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _mix64(z: int) -> int:
    """SplitMix64 finalizer (scalar)."""
    z = (z ^ (z >> 30)) * _MIX_A & _MASK64
    z = (z ^ (z >> 27)) * _MIX_B & _MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over a uint64 array (in place)."""
    z ^= z >> _U64(30)
    z *= _U64(_MIX_A)
    z ^= z >> _U64(27)
    z *= _U64(_MIX_B)
    z ^= z >> _U64(31)
    return z


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one stream: a run-wide seed plus a stream label.

    Labels encode image index and role so that per-image streams never
    depend on processing order.
    """

    global_seed: int
    stream_label: int


def image_stream_label(image_index: int, role: int) -> int:
    """Label for one of the three named sub-streams of an image."""
    return ((image_index << 2) | role) & _MASK64


def _first_word(global_seed: int, stream_label: int) -> int:
    """``derive_stream(SeedSpec(global_seed, stream_label)).next_u64()``
    without the stream: xoshiro256**'s first word reads state word 1 only,
    the second SplitMix64 output of the seeding."""
    base = (global_seed ^ _rotl64(stream_label & _MASK64, 32)) & _MASK64
    s1 = _mix64((base + 2 * _GOLDEN) & _MASK64)
    return _rotl64(s1 * 5 & _MASK64, 7) * 9 & _MASK64


def _index_limit(n: int) -> int:
    """`RngStream.next_index(n)` keeps a word below this and redraws one at
    or above it."""
    return (1 << 64) - (1 << 64) % n


class RngStream:
    """Single-owner deterministic stream. Not safe for concurrent use.

    Scalar draws consume the xoshiro word sequence through a small
    lookahead buffer: words are generated in batches (4 on the first
    refill, 16 afterwards) but the consumed sequence is identical to
    stepping the generator word by word.  The batching and
    :meth:`next_coin_pair` stay because long-lived composition needs them:
    with direct word-by-word stepping instead, the composited/plain ratio
    of the 3x32x32 hflip benchmark (gate 2.0) rose from 1.85-1.97 to
    2.36-2.47 in 4 of 4 runs on a 2-vCPU VM, while fresh-stream
    composition was only a few µs faster.

    Bulk bytes come from one read-only 64 KiB tape block at a time, made
    whole by `_tapes` from one word of this stream when its first byte is
    read; a clone shares the block.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_words", "_word_pos",
                 "_tape", "_tape_pos")

    def __init__(self, s0: int, s1: int, s2: int, s3: int):
        self._s0 = s0
        self._s1 = s1
        self._s2 = s2
        self._s3 = s3
        self._words = None
        self._word_pos = 0
        self._tape = None  # current tape block
        self._tape_pos = 0  # read position within the block

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> tuple[int, int, int, int]:
        """Core generator state (excludes lookahead positions).

        Streams that executed the same operation sequence from the same
        seed have equal state, lookahead included, so equality of this
        tuple is a valid replay check in tests.
        """
        return (self._s0, self._s1, self._s2, self._s3)

    def clone(self) -> "RngStream":
        """Fork the stream: the clone replays exactly what this one would."""
        c = RngStream(self._s0, self._s1, self._s2, self._s3)
        c._words = self._words
        c._word_pos = self._word_pos
        c._tape = self._tape  # read-only, so shared
        c._tape_pos = self._tape_pos
        return c

    def split(self, label: int) -> "RngStream":
        """Derive an independent child stream, advancing this one by a word."""
        return derive_stream(SeedSpec(self.next_u64(), label))

    # -- scalar draws --------------------------------------------------------

    def _refill_words(self, _mask=_MASK64) -> None:
        count = 4 if self._words is None else 16
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        words = []
        append = words.append
        for _ in range(count):
            x = (s1 * 5) & _mask
            append((((x << 7) | (x >> 57)) & _mask) * 9 & _mask)
            t = (s1 << 17) & _mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _mask
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        self._words = words
        self._word_pos = 0

    def next_u64(self) -> int:
        """Next raw 64-bit word of the xoshiro256** sequence."""
        pos = self._word_pos
        words = self._words
        if words is None or pos >= len(words):
            self._refill_words()
            pos = 0
            words = self._words
        self._word_pos = pos + 1
        return words[pos]

    def next_words(self, n: int) -> list[int]:
        """The next ``n`` raw words (golden-file path)."""
        return [self.next_u64() for _ in range(n)]

    def next_unit_uniform(self) -> float:
        """Uniform float in [0, 1); consumes one word (its top 53 bits)."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def next_coin_pair(self) -> tuple[bool, bool]:
        """Two fair coins: byte-equivalent to comparing two consecutive
        :meth:`next_unit_uniform` draws against 0.5 (True when <= 0.5).

        This is the per-image structure draw, kept allocation-lean.
        """
        pos = self._word_pos
        words = self._words
        if words is not None and pos + 2 <= len(words):
            self._word_pos = pos + 2
            # (word >> 11) * 2**-53 <= 0.5  <=>  (word >> 11) <= 2**52
            return ((words[pos] >> 11) <= 0x10000000000000,
                    (words[pos + 1] >> 11) <= 0x10000000000000)
        w1 = self.next_u64()
        w2 = self.next_u64()
        return ((w1 >> 11) <= 0x10000000000000,
                (w2 >> 11) <= 0x10000000000000)

    def next_index(self, n: int) -> int:
        """Uniform index in [0, n) via rejection sampling (no modulo bias)."""
        if n < 1:
            raise ValueError(f"next_index needs n >= 1, got {n}")
        limit = _index_limit(n)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % n

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled by Fisher-Yates: item ``i`` swaps with item
        ``next_index(i + 1)`` for ``i`` from ``n - 1`` down to 1."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_index(i + 1)
            order[i], order[j] = order[j], order[i]
        return order

    # -- bulk byte tape ------------------------------------------------------

    def fill_bytes(self, n: int) -> np.ndarray:
        """The next ``n`` bytes of the stream's byte tape as a uint8 array.

        The result may be a read-only view of an internal tape block; treat
        it as immutable (copy before writing).
        """
        if n < 0:
            raise ValueError(f"fill_bytes needs n >= 0, got {n}")
        tape, pos = self._tape, self._tape_pos
        if tape is not None and n <= tape.shape[0] - pos:
            # fast path: a zero-copy view of the current block
            self._tape_pos = pos + n
            return tape[pos:pos + n]
        out = np.empty(n, dtype=np.uint8)
        filled = 0
        while filled < n:
            if self._tape is None or self._tape_pos >= self._tape.shape[0]:
                # a default, not a closure: a cell for ``self`` slowed the
                # fast path above by ~30 ns a call (Python 3.11)
                tape = _tapes(lambda next_u64=self.next_u64: np.array(
                    [next_u64()], dtype=np.uint64), 1, 8 * _TAPE_WORDS)[0]
                tape.flags.writeable = False  # blocks are published immutable
                self._tape, self._tape_pos = tape, 0
            take = min(n - filled, self._tape.shape[0] - self._tape_pos)
            out[filled:filled + take] = \
                self._tape[self._tape_pos:self._tape_pos + take]
            self._tape_pos += take
            filled += take
        return out

    def __repr__(self) -> str:
        return (f"RngStream(state=({self._s0:#x}, {self._s1:#x}, "
                f"{self._s2:#x}, {self._s3:#x}))")


def derive_stream(spec: SeedSpec) -> RngStream:
    """Build the stream for a (global_seed, stream_label) pair.

    Distinct labels under one global seed are guaranteed to yield distinct
    initial states (the label rotation is a bijection and SplitMix64 windows
    at distinct bases never coincide).
    """
    base = (spec.global_seed ^ _rotl64(spec.stream_label & _MASK64, 32)) \
        & _MASK64
    words = []
    z = base
    for _ in range(4):
        z = (z + _GOLDEN) & _MASK64
        words.append(_mix64(z))
    return RngStream(*words)


def image_stream(global_seed: int, image_index: int, role: int) -> RngStream:
    """One named sub-stream of an image (see `derive_image_streams`)."""
    return derive_stream(SeedSpec(global_seed,
                                  image_stream_label(image_index, role)))


def derive_image_streams(global_seed: int, image_index: int
                         ) -> tuple[RngStream, RngStream, RngStream]:
    """The three named sub-streams of one image.

    Keeping structure, augmentation-parameter, and noise draws on separate
    streams means changing the augmentation cannot perturb the noise bytes,
    so ablations stay comparable.
    """
    return (image_stream(global_seed, image_index, STRUCTURE_ROLE),
            image_stream(global_seed, image_index, AUGMENT_ROLE),
            image_stream(global_seed, image_index, NOISE_ROLE))


def lane_states(global_seed: int, first_index: int, lanes: int,
                role: int) -> np.ndarray:
    """Column ``j`` of the ``(4, lanes)`` result is the state of
    ``image_stream(global_seed, first_index + j, role)``, labels wrapped as
    `image_stream_label` wraps them."""
    index = np.arange(lanes, dtype=np.uint64) + _U64(first_index & _MASK64)
    label = (index << _U64(2)) | _U64(role)
    base = ((label << _U64(32)) | (label >> _U64(32))) \
        ^ _U64(global_seed & _MASK64)
    # SplitMix64 seeding: state word k mixes base + (k + 1) * GOLDEN
    return _mix64_block(base + _TAPE_COUNTERS[:4, None])


class LaneStream:
    """Lane twin of `RngStream`: lane ``j`` draws what a stream from column
    ``j`` of the ``(4, lanes)`` ``states`` would, word by word; ``state``
    is a copy of ``states``.  Each draw returns one value per lane, and
    only the lanes in the boolean ``where`` (all when None) consume it."""

    __slots__ = ("state",)

    def __init__(self, states: np.ndarray):
        self.state = np.array(states, dtype=np.uint64)

    def next_u64(self, where: np.ndarray | None = None) -> np.ndarray:
        """`RngStream.next_u64` of each lane."""
        s0, s1, s2, s3 = state = self.state.copy()
        x = s1 * _U64(5)
        word = ((x << _U64(7)) | (x >> _U64(57))) * _U64(9)
        t = s1 << _U64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = (s3 << _U64(45)) | (s3 >> _U64(19))
        np.copyto(self.state, state, where=True if where is None else where)
        return word

    def next_unit_uniform(self, where: np.ndarray | None = None
                          ) -> np.ndarray:
        """`RngStream.next_unit_uniform` of each lane, exactly."""
        return (self.next_u64(where) >> _U64(11)) * 2.0 ** -53

    def next_index(self, n: int, where: np.ndarray | None = None
                   ) -> np.ndarray:
        """`RngStream.next_index(n)` of each lane, redrawing a rejected word
        until one is kept; lanes outside ``where`` read 0."""
        if n < 1:
            raise ValueError(f"next_index needs n >= 1, got {n}")
        top = _U64(_index_limit(n) - 1)
        picked = np.zeros(self.state.shape[1], dtype=np.intp)
        where = np.ones(picked.size, dtype=bool) if where is None else where
        while where.any():
            word = self.next_u64(where)
            picked[where] = (word % _U64(n))[where]
            where = where & (word > top)
        return picked


def _tapes(next_seeds, rows: int, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` tape bytes of ``rows`` streams that draw only
    tape, ``(rows, nbytes)`` uint8, as `RngStream.fill_bytes` gives them:
    call ``b`` of ``next_seeds()`` returns each row's seed word of tape
    block ``b``, and all blocks of all rows are mixed at once."""
    if nbytes < 0:
        raise ValueError(f"tape needs nbytes >= 0, got {nbytes}")
    words = np.empty((rows, -(-nbytes // 8)), dtype=np.uint64)
    for start in range(0, words.shape[1], _TAPE_WORDS):
        block = words[:, start:start + _TAPE_WORDS]
        np.add(_TAPE_COUNTERS[:block.shape[1]], next_seeds()[:, None],
               out=block)
    _mix64_block(words)
    if not np.little_endian:
        words = words.astype("<u8")
    return words.view(np.uint8)[:, :nbytes]


def lane_tape(states: np.ndarray, nbytes: int) -> np.ndarray:
    """`_tapes` of each lane's stream, ``(lanes, nbytes)``, its block seeds
    drawn by a `LaneStream` of ``states``; ``states`` is left as it is."""
    return _tapes(LaneStream(states).next_u64, states.shape[1], nbytes)


def stream_tapes(global_seed: int, indices, role: int,
                 nbytes: int) -> np.ndarray:
    """`_tapes` of ``image_stream(global_seed, i, role)`` for each ``i`` in
    ``indices``: ``np.stack([image_stream(global_seed, i, role)
    .fill_bytes(nbytes) for i in indices])``.  A tape of one block is seeded
    from each stream's `_first_word`, with no stream object (~1 µs a row
    against ~6 µs for a stream and its first word); a longer one draws its
    block seeds from each stream's own `RngStream.next_u64`."""
    if nbytes <= 8 * _TAPE_WORDS:
        seeds = np.array([_first_word(global_seed, image_stream_label(i, role))
                          for i in indices], dtype=np.uint64)
        return _tapes(lambda: seeds, len(seeds), nbytes)
    streams = [image_stream(global_seed, i, role) for i in indices]
    return _tapes(lambda: np.array([s.next_u64() for s in streams],
                                   dtype=np.uint64), len(streams), nbytes)
