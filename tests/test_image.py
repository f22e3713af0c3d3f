"""Structural primitives: cut, mask, concat, and their invariants."""

import math

import numpy as np
import pytest

from yona.errors import GeometryError
from yona.image import (Axis, ConstantNoise, GaussianNoise, ImageTensor,
                        UniformNoise, concat, cut, cut_at, mask_noise,
                        noise_from_tape, round_half_up)
from yona.rng import SeedSpec, derive_stream

from conftest import make_image


def test_image_tensor_validates_shape_and_dtype():
    with pytest.raises(GeometryError):
        ImageTensor(np.zeros((3, 32, 32), dtype=np.float32))
    with pytest.raises(GeometryError):
        ImageTensor(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(GeometryError):
        ImageTensor(np.zeros((0, 4, 4), dtype=np.uint8))
    with pytest.raises(TypeError):
        ImageTensor([[0]])


def test_bytes_round_trip():
    rng = np.random.default_rng(0)
    img = make_image(rng)
    back = ImageTensor.from_bytes(3, 32, 32, img.to_bytes())
    assert back == img
    with pytest.raises(GeometryError):
        ImageTensor.from_bytes(3, 32, 32, b"\x00" * 10)


def test_image_never_equals_a_non_image():
    assert (make_image(np.random.default_rng(0)) == 5) is False


def test_copy_owns_its_bytes():
    # a contiguous image's copy once shared its array
    img = make_image(np.random.default_rng(1))
    for source in (img, cut(img, Axis.WIDTH, 0.5)[0].image):
        before = source.to_bytes()
        dup = source.copy()
        dup.array[0, 0, 0] ^= 0xFF
        assert source.to_bytes() == before
        assert dup.array.flags.c_contiguous


def test_round_half_up():
    assert round_half_up(16.0) == 16
    assert round_half_up(16.5) == 17
    assert round_half_up(8.4999) == 8


def test_cut_bisection_shapes():
    rng = np.random.default_rng(1)
    img = make_image(rng)
    p1, p2 = cut(img, Axis.HEIGHT, 0.5)
    assert p1.image.shape == (3, 16, 32)
    assert p2.image.shape == (3, 16, 32)
    assert (p1.offset, p2.offset) == (0, 16)


def test_cut_constant_image_width():
    img = ImageTensor(np.zeros((3, 4, 4), dtype=np.uint8))
    p1, p2 = cut(img, Axis.WIDTH, 0.5)
    assert p1.image.shape == (3, 4, 2)
    assert p2.image.shape == (3, 4, 2)
    assert not p1.image.array.any()
    assert not p2.image.array.any()


def test_cut_quarter_heights():
    rng = np.random.default_rng(2)
    img = make_image(rng)
    p1, p2 = cut(img, Axis.HEIGHT, 0.25)
    assert p1.image.height == 8   # round(0.25 * 32)
    assert p2.image.height == 24


def test_cut_rejects_degenerate_boundaries():
    img = ImageTensor(np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(GeometryError):
        cut(img, Axis.HEIGHT, 0.01)   # boundary rounds to 0
    with pytest.raises(GeometryError):
        cut(img, Axis.HEIGHT, 0.99)   # boundary rounds to extent
    with pytest.raises(GeometryError):
        cut(img, Axis.HEIGHT, 0.0)
    with pytest.raises(GeometryError):
        cut_at(img, Axis.WIDTH, 2)


def test_concat_refuses_swapped_pieces():
    first, second = cut(make_image(np.random.default_rng(4)), Axis.WIDTH, 0.5)
    with pytest.raises(GeometryError, match="must precede"):
        concat(second, first, Axis.WIDTH)


def test_cut_concat_round_trip_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 40))
        w = int(rng.integers(2, 40))
        img = make_image(rng, c, h, w)
        axis = Axis.HEIGHT if rng.integers(2) else Axis.WIDTH
        extent = img.extent(axis)
        boundary = int(rng.integers(1, extent))
        p1, p2 = cut_at(img, axis, boundary)
        assert p1.extent + p2.extent == extent
        assert concat(p1, p2, axis) == img


def test_concat_preserves_spatial_order():
    rng = np.random.default_rng(4)
    img = make_image(rng)
    p1, p2 = cut(img, Axis.HEIGHT, 0.25)
    out = concat(p1, p2, Axis.HEIGHT)
    assert out.array[:, :8, :].tobytes() == p1.image.to_bytes()


def test_concat_rejects_mismatches():
    rng = np.random.default_rng(5)
    a = cut(make_image(rng), Axis.HEIGHT, 0.5)
    b = cut(make_image(rng, width=16), Axis.HEIGHT, 0.5)
    with pytest.raises(GeometryError):
        concat(a[0], b[1], Axis.HEIGHT)
    with pytest.raises(GeometryError):
        concat(a[0], a[1], Axis.WIDTH)  # axis disagrees with the cut


def test_mask_noise_constant_totality():
    rng = np.random.default_rng(6)
    piece, _ = cut(make_image(rng), Axis.HEIGHT, 0.5)
    out = mask_noise(piece, ConstantNoise(7), derive_stream(SeedSpec(0, 0)))
    assert out.image.shape == piece.image.shape
    assert np.all(out.image.array == 7)
    assert out.provenance == "masked"
    assert (out.axis, out.offset) == (piece.axis, piece.offset)
    zeroed = mask_noise(piece, ConstantNoise(0), derive_stream(SeedSpec(0, 0)))
    assert not zeroed.image.array.any()


def test_mask_noise_uniform_replay():
    rng = np.random.default_rng(7)
    piece, _ = cut(make_image(rng), Axis.HEIGHT, 0.5)
    out1 = mask_noise(piece, UniformNoise(), derive_stream(SeedSpec(42, 1)))
    out2 = mask_noise(piece, UniformNoise(), derive_stream(SeedSpec(42, 1)))
    assert out1.image == out2.image
    out3 = mask_noise(piece, UniformNoise(), derive_stream(SeedSpec(43, 1)))
    assert out1.image != out3.image


def test_mask_noise_uniform_mean():
    rng = np.random.default_rng(8)
    img = make_image(rng, 3, 256, 512)  # > 1e5 bytes per half
    piece, _ = cut(img, Axis.HEIGHT, 0.5)
    masked = mask_noise(piece, UniformNoise(), derive_stream(SeedSpec(9, 9)))
    mean = masked.image.array.astype(np.float64).mean()
    assert 126.0 <= mean <= 129.0


def test_mask_noise_gaussian_clamped():
    rng = np.random.default_rng(9)
    piece, _ = cut(make_image(rng), Axis.WIDTH, 0.5)
    noise = GaussianNoise(mean=250.0, stddev=30.0)
    out = mask_noise(piece, noise, derive_stream(SeedSpec(1, 1)))
    arr = out.image.array
    assert arr.max() == 255  # clamped mass at the top
    assert arr.min() >= 0


def test_noise_kind_validation():
    with pytest.raises(ValueError):
        ConstantNoise(300)
    with pytest.raises(ValueError):
        GaussianNoise(stddev=0.0)
    for mean, stddev in ((math.nan, 32.0), (math.inf, 32.0),
                         (127.5, math.nan), (127.5, math.inf)):
        with pytest.raises(ValueError, match="mean" if stddev == 32.0
                           else "stddev"):
            GaussianNoise(mean, stddev)


def test_noise_from_tape_refuses_an_unknown_kind():
    with pytest.raises(TypeError, match="unknown noise kind"):
        noise_from_tape("uniform", lambda n: np.zeros(n, np.uint8), 4)


def test_pieces_may_be_thin():
    # cutting a 2-pixel extent produces 1-pixel pieces; they stay valid
    img = ImageTensor(np.arange(12, dtype=np.uint8).reshape(3, 2, 2))
    p1, p2 = cut(img, Axis.HEIGHT, 0.5)
    assert p1.image.height == 1 and p2.image.height == 1
    assert concat(p1, p2, Axis.HEIGHT) == img
