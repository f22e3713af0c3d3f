"""Pixel buffers and the three structural primitives: cut, mask, concat.

Images are 8-bit, channel-planar, row-major — a ``(C, H, W)`` uint8 array.
This matches the CIFAR binary record layout, so ingestion never transposes.
All functions here are pure; arrays inside an :class:`ImageTensor` are
treated as immutable by convention (cut pieces may alias their parent).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import GeometryError
from .rng import RngStream


class Axis(Enum):
    HEIGHT = "height"
    WIDTH = "width"


# numpy dimension index for each axis of a (C, H, W) array
_AXIS_DIM = {Axis.HEIGHT: 1, Axis.WIDTH: 2}


def round_half_up(x: float) -> int:
    """Deterministic rounding used for every boundary computation."""
    return int(math.floor(x + 0.5))


def _to_u8(x: np.ndarray) -> np.ndarray:
    """Float pixels as bytes: rounded half up, clipped to [0, 255]."""
    y = x + 0.5
    return np.clip(np.floor(y, out=y), 0, 255, out=y).astype(np.uint8)


class ImageTensor:
    """Channel-planar 8-bit image of shape (C, H, W).

    Spatial dims may be as small as 1 so that cut pieces are well typed;
    operations that require bisectable extents enforce that themselves.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        if not isinstance(array, np.ndarray):
            raise TypeError("ImageTensor expects a numpy array")
        if array.dtype != np.uint8:
            raise GeometryError(f"pixel dtype must be uint8, got {array.dtype}")
        if array.ndim != 3:
            raise GeometryError(
                f"image must have shape (C, H, W), got {array.shape}")
        c, h, w = array.shape
        if c < 1 or h < 1 or w < 1:
            raise GeometryError(f"degenerate image shape {array.shape}")
        self.array = array

    @property
    def channels(self) -> int:
        return self.array.shape[0]

    @property
    def height(self) -> int:
        return self.array.shape[1]

    @property
    def width(self) -> int:
        return self.array.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.array.shape

    def extent(self, axis: Axis) -> int:
        return self.array.shape[_AXIS_DIM[axis]]

    @classmethod
    def from_bytes(cls, channels: int, height: int, width: int,
                   data: bytes) -> "ImageTensor":
        expected = channels * height * width
        if len(data) != expected:
            raise GeometryError(
                f"buffer holds {len(data)} bytes, shape needs {expected}")
        arr = np.frombuffer(bytes(data), dtype=np.uint8).reshape(
            channels, height, width)
        return cls(arr.copy())

    def to_bytes(self) -> bytes:
        return self.array.tobytes()

    def copy(self) -> "ImageTensor":
        return ImageTensor(self.array.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageTensor):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.array, other.array))

    __hash__ = None  # unhashable: holds a mutable buffer

    def __repr__(self) -> str:
        return f"ImageTensor(shape={self.shape})"


def _wrap(array: np.ndarray) -> ImageTensor:
    """``ImageTensor(array)`` without its checks, for a uint8 (C, H, W)
    buffer allocated with the shape of an existing image: ~250 ns a call
    less than the checked constructor."""
    tensor = _new_tensor(ImageTensor)
    tensor.array = array
    return tensor


_new_tensor = object.__new__


# --------------------------------------------------------------------------
# Noise kinds

@dataclass(frozen=True)
class UniformNoise:
    """I.i.d. uniform bytes over [0, 255], per channel per pixel."""


@dataclass(frozen=True)
class ConstantNoise:
    value: int = 0

    def __post_init__(self):
        if not 0 <= self.value <= 255:
            raise ValueError(f"constant noise byte out of range: {self.value}")


@dataclass(frozen=True)
class GaussianNoise:
    """Normal draws rounded and clamped to [0, 255], as an exact table law
    over 32-bit tape words (see `noise_from_tape`)."""

    mean: float = 127.5
    stddev: float = 32.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.stddev < math.inf:
            raise ValueError(f"stddev must be finite and > 0, got "
                             f"{self.stddev}")


NoiseKind = Union[UniformNoise, ConstantNoise, GaussianNoise]

# Names the Gaussian law of `noise_from_tape` in manifests; change it with
# the law.
GAUSSIAN_SAMPLER = "cdf32"


def _cdf32_threshold(num: int, den: int) -> int:
    """``floor(Phi(num / den) * 2**32)`` exactly, for integers ``num`` and
    ``den > 0``.

    ``num = 0`` gives 2**31, and ``|num / den| >= 7`` (``Phi(-7) * 2**32 <
    0.01``) gives 0 or 2**32 - 1.  Otherwise ``|Phi(z) - 1/2| = phi(x) *
    S(x)`` with ``x = |z|`` and ``S(x) = x + x**3/3 + x**5/(3*5) + ...``, a
    sum of positive terms, is evaluated in `decimal` with a bound on its
    relative error; a floor that the bound leaves open is decided again at
    twice the digits.
    """
    if num == 0:
        return 1 << 31
    if abs(num) >= 7 * den:
        return 0 if num < 0 else (1 << 32) - 1
    import decimal
    D = decimal.Decimal
    digits = 40
    while digits <= 5000:
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ulp = D(10) ** (1 - digits)
            # pi by the Gauss-Legendre iteration
            a, b, t, p = D(1), D(2).sqrt() / 2, D(1) / 4, 1
            while abs(a - b) > ulp:
                a, b, t, p = ((a + b) / 2, (a * b).sqrt(),
                              t - p * ((a - b) / 2) ** 2, 2 * p)
            pi = (a + b) ** 2 / (4 * t)
            x = D(abs(num)) / den
            x2 = x * x
            term = total = x
            n = 1  # stop once the tail is below a unit of ``total``
            while n <= 2 * x2 or term > total * ulp:
                n += 2
                term = term * x2 / n
                total += term
            # |Phi(z) - 1/2| * 2**32, within a relative error of eta
            y = total * (-x2 / 2).exp() / (2 * pi).sqrt() * 2 ** 32
            eta = (3 * n + 100) * ulp
            rounding = decimal.ROUND_FLOOR if num > 0 \
                else decimal.ROUND_CEILING
            low, high = (v.to_integral_value(rounding)
                         for v in (y * (1 - eta), y * (1 + eta)))
            if low == high:
                return (1 << 31) + int(low if num > 0 else -low)
        digits *= 2
    raise ArithmeticError(f"Phi({num}/{den}) * 2**32 is not decided")


@functools.lru_cache(maxsize=16)
def _cdf32_table(kind: GaussianNoise):
    """``(thresholds, code)`` of ``kind``.

    ``thresholds`` holds ``t_k = floor(Phi((k + 1/2 - mean) / stddev) *
    2**32)`` for ``k`` in 0..254 as uint64, each from the exact binary
    values of ``mean`` and ``stddev``.  For each top half ``h`` of a tape
    word ``u``, the uint16 ``code[h]`` holds the byte ``#{t_k <= h << 16}``
    in its low byte, and sets bit 8 where a threshold falls strictly inside
    the 2**16 words from there, where the byte also depends on the low half.
    """
    a, b = float(kind.mean).as_integer_ratio()
    c, d = float(kind.stddev).as_integer_ratio()
    thresholds = np.array([_cdf32_threshold(((2 * k + 1) * b - 2 * a) * d,
                                            2 * b * c) for k in range(255)],
                          dtype=np.uint64)
    starts = np.arange(1 << 16, dtype=np.uint64) << np.uint64(16)
    code = np.searchsorted(thresholds, starts, side="right").astype(np.uint16)
    inside = thresholds[thresholds & np.uint64(0xFFFF) != 0]
    code[inside >> np.uint64(16)] |= 1 << 8
    for table in (thresholds, code):
        table.flags.writeable = False
    return thresholds, code


def noise_from_tape(kind: NoiseKind, take, count: int) -> np.ndarray:
    """``count`` noise bytes of ``kind`` per lane of the tape ``take(n)``
    reads, ``n`` bytes at a time as ``(..., n)`` uint8: the one law of each
    kind, for a stream (`noise_bytes`) and for lanes (`compose_batch`)
    alike.  Constant noise is one row, to broadcast over lanes.

    Gaussian noise reads each sample's 4 tape bytes as one little-endian
    uint32 ``u`` and gives the byte ``#{k in 0..254 : t_k <= u}`` over the
    thresholds of `_cdf32_table`, so byte ``k`` has the probability of a
    normal draw rounding half up to ``k``, the clipped tails folded into 0
    and 255, to a resolution of 2**-32.  One gather of the uint16 ``code``
    table on the top 16 bits of ``u`` answers every sample by its low byte
    but those in the at most 255 cells a threshold splits, flagged by bit
    8, which search the thresholds.  No float arithmetic touches the
    bytes.
    """
    if type(kind) is UniformNoise:
        return take(count)
    if type(kind) is ConstantNoise:
        return np.full(count, kind.value, dtype=np.uint8)
    if type(kind) is not GaussianNoise:
        raise TypeError(f"unknown noise kind: {kind!r}")
    thresholds, code = _cdf32_table(kind)
    tape = take(4 * count)
    # the high half of each little-endian word, on any host
    entries = np.take(code, tape.view("<u2")[..., 1::2])
    out = entries.astype(np.uint8)
    at = np.unravel_index(np.flatnonzero(entries > 255), entries.shape)
    out[at] = np.searchsorted(thresholds, tape.view("<u4")[at], side="right")
    return out


def noise_bytes(kind: NoiseKind, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` noise bytes of the given kind from ``rng``'s tape; may
    return a read-only view of the tape, so treat the result as immutable."""
    return noise_from_tape(kind, rng.fill_bytes, count)


# --------------------------------------------------------------------------
# Pieces

@dataclass
class Piece:
    """A sub-image produced by cutting, with its origin in the parent.

    ``provenance`` records what has happened to the piece since the cut
    ("cut", "masked", or "augmented").
    """

    image: ImageTensor
    axis: Axis
    offset: int
    provenance: str = "cut"

    @property
    def extent(self) -> int:
        return self.image.extent(self.axis)


def cut_at(image: ImageTensor, axis: Axis, boundary: int
           ) -> tuple[Piece, Piece]:
    """Cut at an explicit pixel boundary along ``axis``.

    Piece 1 covers indices [0, boundary), piece 2 covers [boundary, extent).
    Piece arrays are views of the parent.
    """
    extent = image.extent(axis)
    if not 1 <= boundary <= extent - 1:
        raise GeometryError(
            f"boundary {boundary} outside [1, {extent - 1}] "
            f"for extent {extent}")
    arr = image.array
    if axis is Axis.HEIGHT:
        first, second = arr[:, :boundary, :], arr[:, boundary:, :]
    else:
        first, second = arr[:, :, :boundary], arr[:, :, boundary:]
    return (Piece(ImageTensor(first), axis, 0),
            Piece(ImageTensor(second), axis, boundary))


def cut(image: ImageTensor, axis: Axis, fraction: float
        ) -> tuple[Piece, Piece]:
    """Cut an image in two along ``axis`` at the given fraction.

    ``fraction=0.5`` is the equal bisection; odd extents place the boundary
    at ``round_half_up(fraction * extent)``.
    """
    if not 0.0 < fraction < 1.0:
        raise GeometryError(f"cut fraction must be in (0, 1), got {fraction}")
    return cut_at(image, axis, round_half_up(fraction * image.extent(axis)))


def mask_noise(piece: Piece, noise: NoiseKind, rng: RngStream) -> Piece:
    """Replace every byte of a piece with noise drawn from ``rng``."""
    shape = piece.image.shape
    count = shape[0] * shape[1] * shape[2]
    filled = noise_bytes(noise, count, rng).reshape(shape)
    return Piece(ImageTensor(filled), piece.axis, piece.offset,
                 provenance="masked")


def concat(piece1: Piece, piece2: Piece, axis: Axis) -> ImageTensor:
    """Reassemble two pieces along ``axis``, piece 1 at the lower indices."""
    a1, a2 = piece1.image.array, piece2.image.array
    dim = _AXIS_DIM[axis]
    for d in range(3):
        if d != dim and a1.shape[d] != a2.shape[d]:
            raise GeometryError(
                f"piece shapes {a1.shape} and {a2.shape} disagree off the "
                f"{axis.value} axis")
    if piece1.axis is not axis or piece2.axis is not axis:
        raise GeometryError("piece axes do not match the concat axis")
    if piece1.offset >= piece2.offset + piece2.extent:
        raise GeometryError("piece1 must precede piece2 along the axis")
    return ImageTensor(np.concatenate([a1, a2], axis=dim))
