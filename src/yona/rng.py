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
  consumed so far, independent of how reads are chunked.  Since tape word
  ``i`` depends only on ``w`` and ``i`` (a counter-based generator), blocks
  are materialised on demand: the first read of a block makes only the
  prefix it needs (at least 256 words), the next makes the rest of the
  block.  The word ``w`` is still consumed when the block's first byte is.

`lane_words` and `lane_tape` are a second, vectorised implementation of the
same conventions: the first output words of the streams of a run of image
indices and the prefix of their first tape block, as numpy uint64 lanes.
The golden word fixture pins the scalar stream, and the lane differential
test pins the lanes to it.

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
_TAPE_PREFIX_WORDS = 256  # least words made on the first read of a block

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
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_words", "_word_pos",
                 "_tape", "_tape_pos", "_tape_seed", "_tape_end")

    def __init__(self, s0: int, s1: int, s2: int, s3: int):
        self._s0 = s0
        self._s1 = s1
        self._s2 = s2
        self._s3 = s3
        self._words = None
        self._word_pos = 0
        self._tape = None  # materialised window of the current tape block
        self._tape_pos = 0  # read position within the window
        self._tape_seed = 0  # seed word w of the current block
        self._tape_end = _TAPE_WORDS  # block words made so far

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
        c._tape_seed = self._tape_seed
        c._tape_end = self._tape_end
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

    def next_byte_uniform(self) -> int:
        """Uniform byte in [0, 255]; consumes one word (its top 8 bits)."""
        return self.next_u64() >> 56

    def next_index(self, n: int) -> int:
        """Uniform index in [0, n) via rejection sampling (no modulo bias)."""
        if n < 1:
            raise ValueError(f"next_index needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % n

    def next_gaussian(self, mean: float = 0.0, stddev: float = 1.0) -> float:
        """Normal draw via Box-Muller; consumes exactly two words."""
        if stddev <= 0:
            raise ValueError(f"stddev must be > 0, got {stddev}")
        u1 = ((self.next_u64() >> 11) + 1) * 1.1102230246251565e-16  # (0, 1]
        u2 = (self.next_u64() >> 11) * 1.1102230246251565e-16
        r = np.sqrt(-2.0 * np.log(u1))
        return mean + stddev * float(r * np.cos(2.0 * np.pi * u2))

    # -- bulk byte tape ------------------------------------------------------

    def _refill_tape(self, need: int) -> None:
        """Make the next tape window, ``need`` > 0 bytes being wanted.

        The first window of a block holds ``max(ceil(need / 8), 256)``
        words, the second the rest of the block.
        """
        if self._tape_end == _TAPE_WORDS:
            self._tape_seed = self.next_u64()
            start = 0
            stop = min(max(-(-need // 8), _TAPE_PREFIX_WORDS), _TAPE_WORDS)
        else:
            start = self._tape_end
            stop = _TAPE_WORDS
        tape = _tape_bytes(_U64(self._tape_seed), start, stop)
        tape.flags.writeable = False  # blocks are published immutable
        self._tape = tape
        self._tape_pos = 0
        self._tape_end = stop

    def fill_bytes(self, n: int) -> np.ndarray:
        """The next ``n`` bytes of the stream's byte tape as a uint8 array.

        The result may be a read-only view of an internal tape block; treat
        it as immutable (copy before writing).
        """
        if n < 0:
            raise ValueError(f"fill_bytes needs n >= 0, got {n}")
        tape, pos = self._tape, self._tape_pos
        if tape is not None and n <= tape.shape[0] - pos:
            # fast path: a zero-copy view of the current window
            self._tape_pos = pos + n
            return tape[pos:pos + n]
        out = np.empty(n, dtype=np.uint8)
        filled = 0
        while filled < n:
            if self._tape is None or self._tape_pos >= self._tape.shape[0]:
                self._refill_tape(n - filled)
            take = min(n - filled, self._tape.shape[0] - self._tape_pos)
            out[filled:filled + take] = \
                self._tape[self._tape_pos:self._tape_pos + take]
            self._tape_pos += take
            filled += take
        return out

    def fill_unit_uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) derived from 8n tape bytes."""
        raw = np.ascontiguousarray(self.fill_bytes(8 * n))
        words = raw.view("<u8")
        return (words >> _U64(11)).astype(np.float64) * 1.1102230246251565e-16

    def fill_gaussian(self, n: int, mean: float = 0.0,
                      stddev: float = 1.0) -> np.ndarray:
        """``n`` normal draws via vectorized Box-Muller over tape uniforms."""
        if stddev <= 0:
            raise ValueError(f"stddev must be > 0, got {stddev}")
        m = (n + 1) // 2
        u = self.fill_unit_uniforms(2 * m)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:m]))  # 1-u in (0, 1]
        theta = 2.0 * np.pi * u[m:]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return mean + stddev * z

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


def lane_words(global_seed: int, first_index: int, lanes: int, role: int,
               count: int) -> np.ndarray:
    """Row ``j`` of the ``(count, lanes)`` result holds word ``j`` of
    ``image_stream(global_seed, i, role)`` for each image ``i`` of
    ``first_index .. first_index + lanes - 1``, labels wrapped as
    `image_stream_label` wraps them."""
    index = np.arange(lanes, dtype=np.uint64) + _U64(first_index & _MASK64)
    label = (index << _U64(2)) | _U64(role)
    base = ((label << _U64(32)) | (label >> _U64(32))) \
        ^ _U64(global_seed & _MASK64)
    # SplitMix64 seeding: state word k mixes base + (k + 1) * GOLDEN
    s0, s1, s2, s3 = (_mix64_block(base + _TAPE_COUNTERS[k])
                      for k in range(4))
    out = np.empty((count, lanes), dtype=np.uint64)
    for j in range(count):
        x = s1 * _U64(5)
        out[j] = ((x << _U64(7)) | (x >> _U64(57))) * _U64(9)
        t = s1 << _U64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << _U64(45)) | (s3 >> _U64(19))
    return out


def _tape_bytes(seeds, start: int, stop: int) -> np.ndarray:
    """Tape bytes of block words ``start:stop`` of a seed word (or rows)."""
    block = _TAPE_COUNTERS[start:stop] + seeds
    _mix64_block(block)
    if not np.little_endian:
        block = block.astype("<u8")
    return block.view(np.uint8)


def lane_tape(seeds: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bytes of the tape block of each seed word, as an
    ``(len(seeds), n)`` uint8 array (``n`` at most one block)."""
    return _tape_bytes(seeds[:, None], 0, -(-n // 8))[:, :n]
