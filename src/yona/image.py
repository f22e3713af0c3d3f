"""Pixel buffers and the three structural primitives: cut, mask, concat.

Images are 8-bit, channel-planar, row-major — a ``(C, H, W)`` uint8 array.
This matches the CIFAR binary record layout, so ingestion never transposes.
All functions here are pure; arrays inside an :class:`ImageTensor` are
treated as immutable by convention (cut pieces may alias their parent).
"""

from __future__ import annotations

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
        return ImageTensor(np.ascontiguousarray(self.array))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageTensor):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.array, other.array))

    __hash__ = None  # unhashable: holds a mutable buffer

    def __repr__(self) -> str:
        return f"ImageTensor(shape={self.shape})"


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
    """Normal draws rounded and clamped to [0, 255]."""

    mean: float = 127.5
    stddev: float = 32.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.stddev < math.inf:
            raise ValueError(f"stddev must be finite and > 0, got "
                             f"{self.stddev}")


NoiseKind = Union[UniformNoise, ConstantNoise, GaussianNoise]


def noise_from_tape(kind: NoiseKind, take, count: int) -> np.ndarray:
    """``count`` noise bytes of ``kind`` per lane of the tape ``take(n)``
    reads, ``n`` bytes at a time as ``(..., n)`` uint8: the one law of each
    kind, for a stream (`noise_bytes`) and for lanes (`compose_batch`)
    alike.  Constant noise is one row, to broadcast over lanes.  Gaussian
    noise is Box-Muller over the unit uniforms of one tape word per draw
    (radii from the first half, angles from the second; cosines, then
    sines), rounded half up and clipped to [0, 255]."""
    if type(kind) is UniformNoise:
        return take(count)
    if type(kind) is ConstantNoise:
        return np.full(count, kind.value, dtype=np.uint8)
    if type(kind) is not GaussianNoise:
        raise TypeError(f"unknown noise kind: {kind!r}")
    # draws come in pairs; the float work runs in place on one buffer
    tape = np.ascontiguousarray(take(16 * ((count + 1) // 2)))
    u = (tape.view("<u8") >> np.uint64(11)) * 2.0 ** -53
    half = u.shape[-1] // 2
    r, theta = u[..., :half], u[..., half:]
    np.log(np.subtract(1.0, r, out=r), out=r)  # 1 - u in (0, 1]
    np.sqrt(np.multiply(r, -2.0, out=r), out=r)
    cos = np.cos(np.multiply(theta, 2.0 * np.pi, out=theta))
    np.multiply(np.sin(theta, out=theta), r, out=theta)
    r *= cos
    z = u[..., :count]
    return _to_u8(np.add(np.multiply(z, kind.stddev, out=z), kind.mean, out=z))


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


def cut_boundary(extent: int, fraction: float) -> int:
    """Boundary index for a fractional cut (round-half-up)."""
    boundary = round_half_up(fraction * extent)
    if not 1 <= boundary <= extent - 1:
        raise GeometryError(
            f"cut at fraction {fraction} of extent {extent} gives boundary "
            f"{boundary}, outside [1, {extent - 1}]")
    return boundary


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
    return cut_at(image, axis, cut_boundary(image.extent(axis), fraction))


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
