"""The augmentation catalogue: defaults, kernels, policies, invariants."""

import itertools
import math

import numpy as np
import pytest

from yona.augment import (KINDS, MAGNITUDE_RANGES, PRIMITIVE_OPS,
                          AugmentationSpec, PolicyTable, PrimitiveOp,
                          apply_augmentation, apply_primitive,
                          default_cifar10_policy, default_spec, format_policy,
                          load_policy, parse_policy, _BANK, _affine_nearest,
                          _autocontrast_lut, _equalize_lut, _per_plane,
                          _reflect_indices, _smooth_arr, _ungated_arr)
from yona.dataset import fnv1a_64
from yona.errors import UnsupportedAugmentationError
from yona.image import ImageTensor, _to_u8
from yona.rng import SeedSpec, derive_stream

from conftest import make_image

GEOMETRIC_OPS = ("ShearX", "ShearY", "TranslateX", "TranslateY", "Rotate")


def stream(seed, label=0):
    return derive_stream(SeedSpec(seed, label))


def forced(kind, **fields):
    """``kind``'s spec at ``fields``, applied with no gate coin."""
    return default_spec(kind, apply_probability=1.0, **fields)


HFLIP, VFLIP = forced("hflip"), forced("vflip")


# --------------------------------------------------------------------------
# Defaults

def test_default_parameters_match_training_recipe():
    for kind in ("hflip", "vflip", "jitter", "erasing", "cutout", "grid"):
        assert default_spec(kind).apply_probability == 0.5, kind
    for kind in ("identity", "randaug", "autoaug"):
        assert default_spec(kind).apply_probability == 1.0, kind
    jitter = default_spec("jitter")
    assert (jitter.brightness, jitter.contrast, jitter.saturation,
            jitter.hue) == (0.4, 0.4, 0.4, 0.1)
    erasing = default_spec("erasing")
    assert erasing.erase_scale == (0.02, 0.4)
    assert erasing.erase_ratio == (0.3, 3.3)
    assert default_spec("cutout").cutout_area_fraction == 0.25
    randaug = default_spec("randaug")
    assert randaug.randaug_num_ops == 2
    assert randaug.randaug_magnitude == 9


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedAugmentationError):
        AugmentationSpec(kind="wobble")


def test_apply_probability_validation():
    with pytest.raises(ValueError):
        AugmentationSpec(kind="hflip", apply_probability=1.5)


@pytest.mark.parametrize("field, value", [
    ("brightness", math.nan), ("contrast", math.inf),
    ("saturation", -math.inf), ("erase_ratio", (0.3, math.inf)),
    ("erase_ratio", (math.nan, 3.3)), ("erase_ratio", (0.3, math.nan))])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        AugmentationSpec(kind="jitter", **{field: value})


# --------------------------------------------------------------------------
# Flips

def test_hflip_row():
    img = ImageTensor(np.array([1, 2, 3], dtype=np.uint8).reshape(1, 1, 3))
    out = apply_augmentation(HFLIP, img, stream(0))
    assert out.array.ravel().tolist() == [3, 2, 1]


def test_flip_involutions():
    rng = np.random.default_rng(0)
    for _ in range(50):
        img = make_image(rng, 3, int(rng.integers(2, 20)),
                         int(rng.integers(2, 20)))
        for flip in (HFLIP, VFLIP):
            once = apply_augmentation(flip, img, stream(0))
            assert apply_augmentation(flip, once, stream(0)) == img


def test_symmetric_image_is_hflip_fixed_point():
    rng = np.random.default_rng(1)
    half = rng.integers(0, 256, (3, 8, 4), dtype=np.uint8)
    img = ImageTensor(np.concatenate([half, half[:, :, ::-1]], axis=2))
    assert apply_augmentation(HFLIP, img, stream(0)) == img


def test_flips_commute():
    rng = np.random.default_rng(2)
    img = make_image(rng, 3, 8, 8)
    s = stream(0)
    assert apply_augmentation(HFLIP, apply_augmentation(VFLIP, img, s), s) \
        == apply_augmentation(VFLIP, apply_augmentation(HFLIP, img, s), s)


def test_forced_hflip_twice_is_identity():
    rng = np.random.default_rng(3)
    img = make_image(rng)
    spec = default_spec("hflip", apply_probability=1.0)
    once = apply_augmentation(spec, img, stream(0))
    twice = apply_augmentation(spec, once, stream(1))
    assert twice == img


# --------------------------------------------------------------------------
# Jitter

def test_jitter_all_zero_factors_is_neutral():
    rng = np.random.default_rng(4)
    img = make_image(rng)
    out = apply_augmentation(forced("jitter", brightness=0.0, contrast=0.0,
                                    saturation=0.0, hue=0.0), img, stream(5))
    delta = np.abs(out.array.astype(np.int16) - img.array.astype(np.int16))
    assert delta.max() <= 1


def test_brightness_kernel_doubles_gray():
    gray = np.full((3, 8, 8), 100, dtype=np.uint8)
    assert np.all(_BANK["Brightness"].kernel(gray, 2.0) == 200)


@pytest.mark.parametrize("factor", [0.1, 0.55, 1.0, 1.9])
def test_brightness_blend_with_black_is_a_scale(factor):
    # 0 + (x - 0) * f is x * f for every byte: the blend keeps the bytes
    x = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    assert np.array_equal(_BANK["Brightness"].kernel(x, factor),
                          _to_u8(x.astype(np.float64) * factor))


def test_jitter_brightness_only_matches_replayed_factor():
    img = ImageTensor(np.full((3, 8, 8), 100, dtype=np.uint8))
    s = stream(6)
    replay = s.clone()
    out = apply_augmentation(forced("jitter", brightness=1.0, contrast=0.0,
                                    saturation=0.0, hue=0.0), img, s)
    # replay consumption: 3 order draws, then one factor per adjustment
    order = [0, 1, 2, 3]
    for i in range(3, 0, -1):
        j = replay.next_index(i + 1)
        order[i], order[j] = order[j], order[i]
    factor = None
    for step in order:
        u = replay.next_unit_uniform()
        if step == 0:
            factor = u * 2.0  # brightness range [0, 2]
    expected = min(255, int(np.floor(100 * factor + 0.5)))
    assert np.all(out.array == expected)


def test_jitter_defaults_preserve_shape_and_range():
    rng = np.random.default_rng(7)
    img = make_image(rng)
    out = apply_augmentation(forced("jitter"), img, stream(8))
    assert out.shape == img.shape
    assert out.array.dtype == np.uint8


def test_jitter_replay():
    rng = np.random.default_rng(8)
    img = make_image(rng)
    a = apply_augmentation(forced("jitter"), img, stream(9))
    b = apply_augmentation(forced("jitter"), img, stream(9))
    assert a == b


def test_jitter_validation():
    img = make_image(np.random.default_rng(9))
    with pytest.raises(ValueError):
        apply_augmentation(forced("jitter", brightness=-0.1), img,
                           stream(0))
    with pytest.raises(ValueError):
        apply_augmentation(forced("jitter", hue=0.7), img, stream(0))


# --------------------------------------------------------------------------
# Erasing

def test_erasing_closed_form_square():
    rng = np.random.default_rng(10)
    img = make_image(rng, low=1)  # no zero bytes in the input
    out = apply_augmentation(forced("erasing", erase_scale=(0.25, 0.25),
                                    erase_ratio=(1.0, 1.0)), img, stream(11))
    zeros = int((out.array == 0).sum())
    assert zeros == 16 * 16 * 3
    rows = np.unique(np.nonzero((out.array == 0).any(axis=(0, 2)))[0])
    cols = np.unique(np.nonzero((out.array == 0).any(axis=(0, 1)))[0])
    assert len(rows) == 16 and len(cols) == 16


def test_erasing_default_area_fraction_when_applied():
    rng = np.random.default_rng(11)
    applied = 0
    for seed in range(200):
        img = make_image(rng, low=1)
        out = apply_augmentation(forced("erasing"), img, stream(seed, 3))
        if out == img:
            continue
        applied += 1
        rect_pixels = int((out.array[0] == 0).sum())
        assert 0.02 <= rect_pixels / 1024 <= 0.4
    assert applied > 150  # placement with 10 attempts almost always works


def test_erasing_graceful_no_op_when_unplaceable():
    rng = np.random.default_rng(12)
    img = make_image(rng, 3, 8, 8, low=1)
    out = apply_augmentation(forced("erasing", erase_scale=(0.9, 0.95),
                                    erase_ratio=(10.0, 10.0)), img, stream(13))
    assert out == img


def test_erasing_locality():
    rng = np.random.default_rng(13)
    for seed in range(50):
        img = make_image(rng, low=1)
        s = stream(seed, 4)
        out = apply_augmentation(forced("erasing", erase_scale=(0.1, 0.3),
                                        erase_ratio=(0.5, 2.0)), img, s)
        if out == img:
            continue
        mask = (out.array != img.array).any(axis=0)
        rows = np.nonzero(mask.any(axis=1))[0]
        cols = np.nonzero(mask.any(axis=0))[0]
        block = out.array[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        assert np.all(block == 0)  # the changed region is one filled rect
        assert mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].all()


def test_erasing_validation():
    img = make_image(np.random.default_rng(14))
    with pytest.raises(ValueError):
        apply_augmentation(forced("erasing", erase_scale=(0.0, 0.4)), img,
                           stream(0))
    with pytest.raises(ValueError):
        apply_augmentation(forced("erasing", erase_ratio=(-1.0, 3.3)), img,
                           stream(0))


# --------------------------------------------------------------------------
# Cutout

def test_cutout_region_from_replayed_center():
    rng = np.random.default_rng(15)
    for seed in range(40):
        img = make_image(rng, low=1)
        s = stream(seed, 5)
        replay = s.clone()
        out = apply_augmentation(forced("cutout"), img, s)
        cy = replay.next_index(32)
        cx = replay.next_index(32)
        top, left = cy - 8, cx - 8
        y0, y1 = max(0, top), min(32, top + 16)
        x0, x1 = max(0, left), min(32, left + 16)
        expected = img.array.copy()
        expected[:, y0:y1, x0:x1] = 0
        assert np.array_equal(out.array, expected)


def test_cutout_center_sixteen_sixteen_geometry():
    # a center at (16, 16) zeroes rows 8..24 and cols 8..24 exactly
    for seed in range(1200):
        s = stream(seed, 6)
        if s.next_index(32) == 16 and s.next_index(32) == 16:
            img = make_image(np.random.default_rng(16), low=1)
            out = apply_augmentation(forced("cutout"), img, stream(seed, 6))
            zero_mask = (out.array == 0).all(axis=0)
            rows = np.nonzero(zero_mask.any(axis=1))[0]
            cols = np.nonzero(zero_mask.any(axis=0))[0]
            assert rows.tolist() == list(range(8, 24))
            assert cols.tolist() == list(range(8, 24))
            return
    pytest.skip("no seed with center (16,16) in range")


def test_cutout_clips_at_corner():
    for seed in range(2000):
        s = stream(seed, 7)
        if s.next_index(32) == 0 and s.next_index(32) == 0:
            img = make_image(np.random.default_rng(17), low=1)
            out = apply_augmentation(forced("cutout"), img, stream(seed, 7))
            zeros = int((out.array == 0).sum())
            assert zeros == 8 * 8 * 3  # only the in-bounds quadrant
            return
    pytest.skip("no seed with center (0,0) in range")


def test_cutout_full_fraction_covers_image_when_centered():
    for seed in range(500):
        s = stream(seed, 8)
        if s.next_index(4) == 2 and s.next_index(4) == 2:
            img = make_image(np.random.default_rng(18), 3, 4, 4, low=1)
            out = apply_augmentation(
                forced("cutout", cutout_area_fraction=0.9999), img,
                stream(seed, 8))
            assert not out.array.any()
            return
    pytest.skip("no seed with center (2,2) in range")


# --------------------------------------------------------------------------
# Grid

def test_grid_cells_confine_changes():
    rng = np.random.default_rng(20)
    img = make_image(rng)
    s = stream(21)
    replay = s.clone()
    out = apply_augmentation(forced("grid", grid_rows=2, grid_cols=2), img,
                             s)
    fired = []
    for row in range(2):
        for col in range(2):
            if replay.next_unit_uniform() < 0.5:
                fired.append((row, col))
                replay.next_index(3)
                replay.next_unit_uniform()
    diff = (out.array != img.array).any(axis=0)
    for row in range(2):
        for col in range(2):
            cell = diff[row * 16:(row + 1) * 16, col * 16:(col + 1) * 16]
            if (row, col) not in fired:
                assert not cell.any()


def test_grid_replay():
    rng = np.random.default_rng(21)
    img = make_image(rng)
    assert apply_augmentation(forced("grid"), img, stream(22)) == \
        apply_augmentation(forced("grid"), img, stream(22))


def test_grid_rejects_oversized():
    img = make_image(np.random.default_rng(22), 3, 8, 8)
    with pytest.raises(ValueError):
        apply_augmentation(forced("grid", grid_rows=9, grid_cols=2), img,
                           stream(0))


# --------------------------------------------------------------------------
# Primitives

def test_rotate_zero_is_identity():
    rng = np.random.default_rng(23)
    img = make_image(rng)
    assert apply_primitive(PrimitiveOp("Rotate", 0.0), img) == img


def test_translate_zero_is_identity():
    img = make_image(np.random.default_rng(24))
    assert apply_primitive(PrimitiveOp("TranslateX", 0.0), img) == img
    assert apply_primitive(PrimitiveOp("ShearY", 0.0), img) == img


def test_solarize_zero_threshold_inverts():
    rng = np.random.default_rng(25)
    img = make_image(rng)
    out = apply_primitive(PrimitiveOp("Solarize", 0), img)
    assert np.array_equal(out.array, 255 - img.array)


def test_invert_involution():
    rng = np.random.default_rng(26)
    img = make_image(rng)
    once = apply_primitive(PrimitiveOp("Invert"), img)
    assert apply_primitive(PrimitiveOp("Invert"), once) == img


def test_posterize_keeps_top_bits():
    img = ImageTensor(np.full((1, 2, 2), 0b10110111, dtype=np.uint8))
    out = apply_primitive(PrimitiveOp("Posterize", 4), img)
    assert np.all(out.array == 0b10110000)


def test_translate_moves_content():
    arr = np.zeros((1, 4, 4), dtype=np.uint8)
    arr[0, 0, 0] = 9
    out = apply_primitive(PrimitiveOp("TranslateX", 0.25), ImageTensor(arr))
    assert out.array[0, 0, 1] == 9
    assert out.array[0, 0, 0] == 0


def test_bank_rows_scale_into_their_ranges():
    # an index draw picks an op by its position, so the order is pinned
    assert PRIMITIVE_OPS == (
        "ShearX", "ShearY", "TranslateX", "TranslateY", "Rotate",
        "AutoContrast", "Invert", "Equalize", "Solarize", "Posterize",
        "Contrast", "Color", "Brightness", "Sharpness")
    strengths = [k / 9.0 for k in range(10)] + [m / 30.0 for m in range(31)]
    for name, (_, bounds, signed, scaled) in _BANK.items():
        for t in strengths:
            up, down = scaled(t, 1.0), scaled(t, -1.0)
            if bounds is None:
                assert up is None and down is None, name
                continue
            # a policy magnitude may lie a rounding error outside its range
            assert all(bounds[0] - 1e-12 <= m <= bounds[1] + 1e-12
                       for m in (up, down)), (name, t, up, down)
            # only a signed op's magnitude follows the sign
            assert (up != down) == (signed and t > 0), (name, t)
            assert (type(up) is int) == (name in ("Solarize", "Posterize"))
    assert _BANK["Solarize"].magnitude(0.0, 1.0) == 255
    assert _BANK["Posterize"].magnitude(0.0, 1.0) == 8


def test_primitive_magnitude_validation():
    with pytest.raises(ValueError):
        PrimitiveOp("Rotate", 31.0)
    with pytest.raises(ValueError):
        PrimitiveOp("Posterize", 3)
    with pytest.raises(ValueError):
        PrimitiveOp("Posterize", 4.5)
    with pytest.raises(ValueError):
        PrimitiveOp("Brightness", None)
    with pytest.raises(UnsupportedAugmentationError):
        PrimitiveOp("Blur", 1.0)
    assert MAGNITUDE_RANGES["AutoContrast"] is None
    assert PrimitiveOp("AutoContrast").magnitude is None


def test_all_primitives_preserve_shape():
    rng = np.random.default_rng(27)
    img = make_image(rng, 3, 16, 24)
    mid = {"Solarize": 128, "Posterize": 6}
    for name in PRIMITIVE_OPS:
        if MAGNITUDE_RANGES[name] is None:
            op = PrimitiveOp(name)
        else:
            lo, hi = MAGNITUDE_RANGES[name]
            op = PrimitiveOp(name, mid.get(name, (lo + hi) / 2))
        out = apply_primitive(op, img)
        assert out.shape == img.shape, name
        assert out.array.dtype == np.uint8


def _kernel_batch(shape):
    rng = np.random.default_rng(sum(shape))
    batch = rng.integers(0, 256, (7,) + shape, dtype=np.uint8)
    batch[1] = 77  # constant planes: autocontrast and equalize keep them
    batch[2, 0] = 255  # one constant plane among random ones
    batch[3] = rng.integers(0, 2, shape) * 255  # two levels
    batch[4] = rng.integers(250, 256, shape)
    # under 255 bytes below 255: equalize's step is 0 and it keeps them
    batch[5] = np.where(rng.random(shape) < 0.8, 255, batch[5])
    batch[6, :, :, ::2] = 0  # a plane of two levels, zero every other column
    return batch


@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 16, 32), (3, 32, 16),
                                   (1, 9, 30), (3, 2, 2)])
@pytest.mark.parametrize("name", PRIMITIVE_OPS)
def test_batched_kernels_match_per_image_application(name, shape):
    # a kernel on a stack gives every image the bytes it gets alone
    kernel, _, _, scaled = _BANK[name]
    batch = _kernel_batch(shape)
    for level, sign in itertools.product((0, 9, 30), (1.0, -1.0)):
        magnitude = scaled(level / 30.0, sign)
        # as the scalar path calls it (policy magnitudes may lie a rounding
        # error outside the range `PrimitiveOp` checks)
        alone = [kernel(image, magnitude) for image in batch]
        # kept pieces reach the kernels as strided views of a record
        assert all(np.array_equal(kernel(view, magnitude), image)
                   for view, image in zip(
                       np.pad(batch, ((0, 0), (0, 0), (0, 0), (2, 0)))[
                           ..., 2:], alone))
        out = kernel(batch, magnitude)
        assert out.dtype == np.uint8 and out.shape == batch.shape
        assert np.array_equal(out, np.stack(alone)), (level, sign)
        deeper = kernel(batch[:6].reshape((2, 3) + shape), magnitude)
        assert np.array_equal(deeper.reshape((6,) + shape),
                              np.stack(alone[:6])), (level, sign)


# --------------------------------------------------------------------------
# Kernels against their reference forms

@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 16, 32), (1, 9, 30)])
@pytest.mark.parametrize("lut_of", [_equalize_lut, _autocontrast_lut])
def test_per_plane_gathers_what_take_along_axis_gathers(lut_of, shape):
    batch = _kernel_batch(shape)
    planes = batch.reshape(-1, shape[1] * shape[2])
    # the stack holds a constant plane and an equalize step-0 plane
    assert (planes.min(axis=1) == planes.max(axis=1)).any()
    assert ((planes < 255).sum(axis=1) < 255).any()
    for arr in (batch, batch[1], batch[5]):
        planes = arr.reshape(-1, shape[1] * shape[2])
        expected = np.take_along_axis(lut_of(planes), planes, 1)
        assert np.array_equal(_per_plane(arr, lut_of),
                              expected.reshape(arr.shape))


def _smooth_nine_terms(x):
    out = x.copy()
    if x.shape[-2] < 3 or x.shape[-1] < 3:
        return out
    acc = (x[..., :-2, :-2] + x[..., :-2, 1:-1] + x[..., :-2, 2:]
           + x[..., 1:-1, :-2] + 5.0 * x[..., 1:-1, 1:-1] + x[..., 1:-1, 2:]
           + x[..., 2:, :-2] + x[..., 2:, 1:-1] + x[..., 2:, 2:])
    out[..., 1:-1, 1:-1] = acc / 13.0
    return out


@pytest.mark.parametrize("h, w", itertools.product((1, 2, 3, 32), repeat=2))
def test_smooth_equals_the_nine_term_sum_on_integer_stacks(h, w):
    rng = np.random.default_rng(33 * h + w)
    stack = rng.integers(0, 256, (4, 3, h, w)).astype(np.float64)
    stack[0] = 255.0  # the largest sums
    for x in (stack, stack[1]):
        assert np.array_equal(_smooth_arr(x), _smooth_nine_terms(x))


def _affine_fancy_index(arr, a, b, c, d, oy=0.0, ox=0.0, reflect=False):
    h, w = arr.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = (np.arange(h, dtype=np.float64) - cy)[:, None]
    dx = (np.arange(w, dtype=np.float64) - cx)[None, :]
    sy = np.floor(a * dy + b * dx + (cy + oy) + 0.5).astype(np.int64)
    sx = np.floor(c * dy + d * dx + (cx + ox) + 0.5).astype(np.int64)
    planes = arr.reshape(arr.shape[:-2] + (h * w,))
    if reflect:
        return planes[..., _reflect_indices(sy, h) * w
                      + _reflect_indices(sx, w)]
    valid = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    out = planes[..., np.clip(sy, 0, h - 1) * w + np.clip(sx, 0, w - 1)]
    out *= valid
    return out


@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 16, 32), (1, 9, 30),
                                   (3, 1, 1)])
def test_affine_nearest_gathers_what_fancy_indexing_gathers(shape):
    batch = _kernel_batch(shape)
    rad = math.radians(23.0)
    maps = [(1.0, 0.0, 0.3, 1.0), (1.0, -0.3, 0.0, 1.0),
            (math.cos(rad), -math.sin(rad), math.sin(rad), math.cos(rad)),
            (1.0, 0.0, 0.0, 1.0, 0.0, -0.3 * shape[2]),
            (1.0, 0.0, 0.0, 1.0, 0.1 * shape[1], 0.0)]
    for args, reflect, arr in itertools.product(maps, (False, True),
                                                (batch, batch[0])):
        assert np.array_equal(
            _affine_nearest(arr, *args, reflect=reflect),
            _affine_fancy_index(arr, *args, reflect=reflect)), (args, reflect)


# --------------------------------------------------------------------------
# RandAugment

def test_randaug_zero_ops_is_identity():
    img = make_image(np.random.default_rng(28))
    assert apply_augmentation(forced("randaug", randaug_num_ops=0), img,
                              stream(29)) == img


def test_randaug_replay_and_golden():
    rng = np.random.default_rng(77)
    img = ImageTensor(rng.integers(0, 256, (3, 32, 32), dtype=np.uint8))
    spec = forced("randaug", randaug_num_ops=2, randaug_magnitude=9)
    out = apply_augmentation(spec, img, stream(55))
    assert apply_augmentation(spec, img, stream(55)) == out
    assert fnv1a_64(out.to_bytes()) == 0xBAC9E991DC256947


def test_randaug_zero_magnitude_geometric_identity():
    img = make_image(np.random.default_rng(29))
    geometric_indices = {PRIMITIVE_OPS.index(n) for n in GEOMETRIC_OPS}
    for seed in range(300):
        replay = stream(seed, 9)
        first = replay.next_index(14)
        if first not in geometric_indices:
            continue
        replay.next_unit_uniform()  # sign for a signed geometric op
        second = replay.next_index(14)
        if second not in geometric_indices:
            continue
        out = apply_augmentation(
            forced("randaug", randaug_num_ops=2, randaug_magnitude=0), img,
            stream(seed, 9))
        assert out == img
        return
    pytest.skip("no geometric-only seed found")


def test_randaug_validation():
    img = make_image(np.random.default_rng(30))
    with pytest.raises(ValueError):
        apply_augmentation(forced("randaug", randaug_num_ops=-1), img,
                           stream(0))
    with pytest.raises(ValueError):
        apply_augmentation(forced("randaug", randaug_magnitude=31), img,
                           stream(0))


# --------------------------------------------------------------------------
# AutoAugment

def test_autoaug_double_invert_is_identity():
    img = make_image(np.random.default_rng(31))
    policy = PolicyTable(((("Invert", 1.0, 0), ("Invert", 1.0, 0)),))
    assert apply_augmentation(forced("autoaug", policy=policy), img,
                              stream(32)) == img


def test_autoaug_zero_probabilities_is_identity():
    img = make_image(np.random.default_rng(32))
    policy = PolicyTable(((("Rotate", 0.0, 9), ("Solarize", 0.0, 9)),))
    assert apply_augmentation(forced("autoaug", policy=policy), img,
                              stream(33)) == img


def test_autoaug_bundled_policy_golden():
    rng = np.random.default_rng(77)
    img = ImageTensor(rng.integers(0, 256, (3, 32, 32), dtype=np.uint8))
    out = apply_augmentation(
        forced("autoaug", policy=default_cifar10_policy()), img, stream(123))
    assert fnv1a_64(out.to_bytes()) == 0x3FB7A17265FAE739


def test_autoaug_without_policy_runs_the_bundled_table():
    img = make_image(np.random.default_rng(33))
    bundled = forced("autoaug", policy=default_cifar10_policy())
    for seed in range(8):
        assert apply_augmentation(forced("autoaug"), img, stream(seed, 61)) \
            == apply_augmentation(bundled, img, stream(seed, 61)), seed


def test_policy_parse_format_round_trip(tmp_path):
    policy = default_cifar10_policy()
    assert len(policy) == 25
    text = format_policy(policy)
    assert parse_policy(text) == policy
    path = tmp_path / "policy.txt"
    path.write_text(text)
    assert load_policy(path) == policy
    # probabilities that a 6-digit form would round, and the extremes
    exact = PolicyTable(((("Rotate", 0.123456789, 3), ("Invert", 1e-17, 0)),
                         (("Solarize", 1 / 3, 9), ("Equalize", 1.0, 0)),
                         (("Posterize", 0.0, 2),
                          ("Contrast", 1 - 2**-53, 6))))
    assert parse_policy(format_policy(exact)) == exact


def test_policy_validation():
    with pytest.raises(ValueError):
        parse_policy("Rotate 0.5 3\n")  # one entry only
    with pytest.raises(ValueError):
        PolicyTable(((("Rotate", 1.5, 3), ("Invert", 0.5, 0)),))
    with pytest.raises(ValueError):
        PolicyTable(((("Rotate", 0.5, 11), ("Invert", 0.5, 0)),))
    for mag in (4.5, 4.0):  # a float index once ran on one path only
        with pytest.raises(ValueError, match=f"magnitude index {mag} "):
            PolicyTable(((("Rotate", 1.0, mag), ("Invert", 1.0, 0)),))
    with pytest.raises(UnsupportedAugmentationError):
        PolicyTable(((("Swirl", 0.5, 3), ("Invert", 0.5, 0)),))
    with pytest.raises(ValueError):
        PolicyTable(())


@pytest.mark.parametrize("ops", [["Rotate"], ["Rotate", "Invert", "Equalize"]])
def test_policy_table_refuses_a_sub_policy_without_two_ops(ops):
    # parse_policy cannot build these: each line holds exactly two entries
    with pytest.raises(ValueError, match="exactly two ops"):
        PolicyTable((tuple((op, 0.5, 3) for op in ops),))


# --------------------------------------------------------------------------
# Catalogue-wide invariants

def test_identity_returns_unchanged_bytes():
    img = make_image(np.random.default_rng(34))
    out = apply_augmentation(default_spec("identity"), img, stream(35))
    assert out == img


def test_all_kinds_preserve_shape_and_replay():
    rng = np.random.default_rng(35)
    for kind in KINDS:
        spec = default_spec(kind)
        for shape in ((3, 32, 32), (3, 16, 32), (1, 8, 12)):
            img = make_image(rng, *shape)
            a = apply_augmentation(spec, img, stream(40, hash(kind) % 97))
            b = apply_augmentation(spec, img, stream(40, hash(kind) % 97))
            assert a.shape == img.shape, kind
            assert a == b, kind
            assert a.array.dtype == np.uint8


def test_spec_validates_kind_parameters():
    with pytest.raises(ValueError):
        AugmentationSpec(kind="jitter", brightness=-0.1)
    with pytest.raises(ValueError):
        AugmentationSpec(kind="jitter", hue=0.6)
    with pytest.raises(ValueError):
        AugmentationSpec(kind="erasing", erase_scale=(0.5, 0.4))
    with pytest.raises(ValueError):
        AugmentationSpec(kind="cutout", cutout_area_fraction=0.0)
    with pytest.raises(ValueError):
        AugmentationSpec(kind="randaug", randaug_magnitude=40)
    for ops in (-1, 101, 10**8):
        with pytest.raises(ValueError, match="randaug_num_ops"):
            AugmentationSpec(kind="randaug", randaug_num_ops=ops)
    assert AugmentationSpec(kind="randaug",
                            randaug_num_ops=100).randaug_num_ops == 100
    with pytest.raises(ValueError):
        AugmentationSpec(kind="grid", grid_rows=0)


def test_always_applied_spec_draws_no_gate_coin():
    # at probability 1 the gate draws nothing: the result and the stream
    # after it are the kind's kernel alone
    rng = np.random.default_rng(40)
    policy = parse_policy("Rotate 0.7 4 ; Invert 0.5 0\n"
                          "Posterize 1.0 6 ; Color 0.3 8\n")
    for shape in ((3, 32, 32), (3, 9, 13), (1, 8, 5)):
        img = make_image(rng, *shape)
        for seed in range(8):
            cases = (
                dict(kind="jitter", brightness=0.3, contrast=0.6,
                     saturation=0.2, hue=0.25),
                dict(kind="erasing", erase_scale=(0.05, 0.3),
                     erase_ratio=(0.5, 2.0)),
                dict(kind="cutout", cutout_area_fraction=0.2),
                dict(kind="grid", grid_rows=2, grid_cols=3),
                dict(kind="randaug", randaug_num_ops=3, randaug_magnitude=17),
                dict(kind="autoaug", policy=policy),
            )
            for fields in cases:
                spec = AugmentationSpec(apply_probability=1.0, **fields)
                a, b = stream(seed, 62), stream(seed, 62)
                case = (fields["kind"], shape, seed)
                assert np.array_equal(apply_augmentation(spec, img, a).array,
                                      _ungated_arr(spec, img.array, b, None)
                                      ), case
                assert a.next_u64() == b.next_u64(), case


def test_gate_coin_contract():
    # with probability 0.5, application tracks the stream's first uniform
    rng = np.random.default_rng(36)
    img = make_image(rng)
    spec = default_spec("vflip")
    flipped = apply_augmentation(VFLIP, img, stream(0))
    for seed in range(40):
        s = stream(seed, 11)
        gate = s.clone().next_unit_uniform() < 0.5
        out = apply_augmentation(spec, img, s)
        assert out == (flipped if gate else img)
