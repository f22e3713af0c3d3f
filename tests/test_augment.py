"""The augmentation catalogue: defaults, kernels, policies, invariants."""

import itertools
import math

import numpy as np
import pytest

from yona.augment import (KINDS, MAGNITUDE_RANGES, PRIMITIVE_OPS,
                          AugmentationSpec, PolicyTable, PrimitiveOp,
                          apply_augmentation, apply_primitive, auto_augment,
                          color_jitter, cutout, default_cifar10_policy,
                          default_spec, format_policy, grid_transform, hflip,
                          load_policy, parse_policy, rand_augment,
                          random_erasing, vflip, _brightness_arr,
                          _PRIMITIVE_KERNELS, _scaled_magnitude)
from yona.dataset import fnv1a_64
from yona.errors import UnsupportedAugmentationError
from yona.image import ImageTensor
from yona.rng import SeedSpec, derive_stream

from conftest import make_image

GEOMETRIC_OPS = ("ShearX", "ShearY", "TranslateX", "TranslateY", "Rotate")


def stream(seed, label=0):
    return derive_stream(SeedSpec(seed, label))


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
    assert erasing.erase_fill == 0
    assert default_spec("cutout").cutout_area_fraction == 0.25
    assert default_spec("cutout").cutout_fill == 0
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
    assert hflip(img).array.ravel().tolist() == [3, 2, 1]


def test_flip_involutions():
    rng = np.random.default_rng(0)
    for _ in range(50):
        img = make_image(rng, 3, int(rng.integers(2, 20)),
                         int(rng.integers(2, 20)))
        assert hflip(hflip(img)) == img
        assert vflip(vflip(img)) == img


def test_symmetric_image_is_hflip_fixed_point():
    rng = np.random.default_rng(1)
    half = rng.integers(0, 256, (3, 8, 4), dtype=np.uint8)
    img = ImageTensor(np.concatenate([half, half[:, :, ::-1]], axis=2))
    assert hflip(img) == img


def test_flips_commute():
    rng = np.random.default_rng(2)
    img = make_image(rng, 3, 8, 8)
    assert hflip(vflip(img)) == vflip(hflip(img))


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
    out = color_jitter(img, 0.0, 0.0, 0.0, 0.0, stream(5))
    delta = np.abs(out.array.astype(np.int16) - img.array.astype(np.int16))
    assert delta.max() <= 1


def test_brightness_kernel_doubles_gray():
    gray = np.full((3, 8, 8), 100, dtype=np.uint8)
    assert np.all(_brightness_arr(gray, 2.0) == 200)


def test_jitter_brightness_only_matches_replayed_factor():
    img = ImageTensor(np.full((3, 8, 8), 100, dtype=np.uint8))
    s = stream(6)
    replay = s.clone()
    out = color_jitter(img, 1.0, 0.0, 0.0, 0.0, s)
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
    out = color_jitter(img, 0.4, 0.4, 0.4, 0.1, stream(8))
    assert out.shape == img.shape
    assert out.array.dtype == np.uint8


def test_jitter_replay():
    rng = np.random.default_rng(8)
    img = make_image(rng)
    a = color_jitter(img, 0.4, 0.4, 0.4, 0.1, stream(9))
    b = color_jitter(img, 0.4, 0.4, 0.4, 0.1, stream(9))
    assert a == b


def test_jitter_validation():
    img = make_image(np.random.default_rng(9))
    with pytest.raises(ValueError):
        color_jitter(img, -0.1, 0, 0, 0, stream(0))
    with pytest.raises(ValueError):
        color_jitter(img, 0, 0, 0, 0.7, stream(0))


# --------------------------------------------------------------------------
# Erasing

def test_erasing_closed_form_square():
    rng = np.random.default_rng(10)
    img = make_image(rng, low=1)  # no zero bytes in the input
    out = random_erasing(img, (0.25, 0.25), (1.0, 1.0), 0, stream(11))
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
        out = random_erasing(img, (0.02, 0.4), (0.3, 3.3), 0, stream(seed, 3))
        if out == img:
            continue
        applied += 1
        rect_pixels = int((out.array[0] == 0).sum())
        assert 0.02 <= rect_pixels / 1024 <= 0.4
    assert applied > 150  # placement with 10 attempts almost always works


def test_erasing_graceful_no_op_when_unplaceable():
    rng = np.random.default_rng(12)
    img = make_image(rng, 3, 8, 8, low=1)
    out = random_erasing(img, (0.9, 0.95), (10.0, 10.0), 0, stream(13))
    assert out == img


def test_erasing_locality():
    rng = np.random.default_rng(13)
    for seed in range(50):
        img = make_image(rng, low=1)
        s = stream(seed, 4)
        out = random_erasing(img, (0.1, 0.3), (0.5, 2.0), 0, s)
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
        random_erasing(img, (0.0, 0.4), (0.3, 3.3), 0, stream(0))
    with pytest.raises(ValueError):
        random_erasing(img, (0.02, 0.4), (-1.0, 3.3), 0, stream(0))


# --------------------------------------------------------------------------
# Cutout

def test_cutout_region_from_replayed_center():
    rng = np.random.default_rng(15)
    for seed in range(40):
        img = make_image(rng, low=1)
        s = stream(seed, 5)
        replay = s.clone()
        out = cutout(img, 0.25, s)
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
            out = cutout(img, 0.25, stream(seed, 6))
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
            out = cutout(img, 0.25, stream(seed, 7))
            zeros = int((out.array == 0).sum())
            assert zeros == 8 * 8 * 3  # only the in-bounds quadrant
            return
    pytest.skip("no seed with center (0,0) in range")


def test_cutout_full_fraction_covers_image_when_centered():
    for seed in range(500):
        s = stream(seed, 8)
        if s.next_index(4) == 2 and s.next_index(4) == 2:
            img = make_image(np.random.default_rng(18), 3, 4, 4, low=1)
            out = cutout(img, 0.9999, stream(seed, 8))
            assert not out.array.any()
            return
    pytest.skip("no seed with center (2,2) in range")


# --------------------------------------------------------------------------
# Grid

def test_grid_probability_zero_is_identity():
    rng = np.random.default_rng(19)
    img = make_image(rng)
    s = stream(20)
    out = grid_transform(img, 1, 1, s, transform_probability=0.0)
    assert out == img
    assert s.state == stream(20).state  # no draws consumed


def test_grid_cells_confine_changes():
    rng = np.random.default_rng(20)
    img = make_image(rng)
    s = stream(21)
    replay = s.clone()
    out = grid_transform(img, 2, 2, s)
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
    assert grid_transform(img, 4, 4, stream(22)) == \
        grid_transform(img, 4, 4, stream(22))


def test_grid_rejects_oversized():
    img = make_image(np.random.default_rng(22), 3, 8, 8)
    with pytest.raises(ValueError):
        grid_transform(img, 9, 2, stream(0))


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
    kernel = _PRIMITIVE_KERNELS[name]
    batch = _kernel_batch(shape)
    for level, sign in itertools.product((0, 9, 30), (1.0, -1.0)):
        magnitude = _scaled_magnitude(name, level / 30.0, sign)
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
# RandAugment

def test_randaug_zero_ops_is_identity():
    img = make_image(np.random.default_rng(28))
    assert rand_augment(img, 0, 9, stream(29)) == img


def test_randaug_replay_and_golden():
    rng = np.random.default_rng(77)
    img = ImageTensor(rng.integers(0, 256, (3, 32, 32), dtype=np.uint8))
    out = rand_augment(img, 2, 9, stream(55))
    assert rand_augment(img, 2, 9, stream(55)) == out
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
        out = rand_augment(img, 2, 0, stream(seed, 9))
        assert out == img
        return
    pytest.skip("no geometric-only seed found")


def test_randaug_validation():
    img = make_image(np.random.default_rng(30))
    with pytest.raises(ValueError):
        rand_augment(img, -1, 9, stream(0))
    with pytest.raises(ValueError):
        rand_augment(img, 2, 31, stream(0))


# --------------------------------------------------------------------------
# AutoAugment

def test_autoaug_double_invert_is_identity():
    img = make_image(np.random.default_rng(31))
    policy = PolicyTable(((("Invert", 1.0, 0), ("Invert", 1.0, 0)),))
    assert auto_augment(img, policy, stream(32)) == img


def test_autoaug_zero_probabilities_is_identity():
    img = make_image(np.random.default_rng(32))
    policy = PolicyTable(((("Rotate", 0.0, 9), ("Solarize", 0.0, 9)),))
    assert auto_augment(img, policy, stream(33)) == img


def test_autoaug_bundled_policy_golden():
    rng = np.random.default_rng(77)
    img = ImageTensor(rng.integers(0, 256, (3, 32, 32), dtype=np.uint8))
    out = auto_augment(img, default_cifar10_policy(), stream(123))
    assert fnv1a_64(out.to_bytes()) == 0x3FB7A17265FAE739


def test_autoaug_requires_policy():
    img = make_image(np.random.default_rng(33))
    with pytest.raises(ValueError):
        auto_augment(img, None, stream(0))


def test_policy_parse_format_round_trip(tmp_path):
    policy = default_cifar10_policy()
    assert len(policy) == 25
    text = format_policy(policy)
    assert parse_policy(text) == policy
    path = tmp_path / "policy.txt"
    path.write_text(text)
    assert load_policy(path) == policy


def test_policy_validation():
    with pytest.raises(ValueError):
        parse_policy("Rotate 0.5 3\n")  # one entry only
    with pytest.raises(ValueError):
        PolicyTable(((("Rotate", 1.5, 3), ("Invert", 0.5, 0)),))
    with pytest.raises(ValueError):
        PolicyTable(((("Rotate", 0.5, 11), ("Invert", 0.5, 0)),))
    with pytest.raises(UnsupportedAugmentationError):
        PolicyTable(((("Swirl", 0.5, 3), ("Invert", 0.5, 0)),))
    with pytest.raises(ValueError):
        PolicyTable(())


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
    with pytest.raises(ValueError):
        AugmentationSpec(kind="grid", grid_rows=0)


def test_dispatch_matches_public_policy_ops():
    # the catalogue dispatch and the standalone ops share draw order
    rng = np.random.default_rng(40)
    img = make_image(rng)
    via_spec = apply_augmentation(default_spec("randaug"), img, stream(60))
    via_op = rand_augment(img, 2, 9, stream(60))
    assert via_spec == via_op
    via_spec = apply_augmentation(default_spec("autoaug"), img, stream(61))
    via_op = auto_augment(img, default_cifar10_policy(), stream(61))
    assert via_spec == via_op
    # an always-applied spec draws no gate coin, so it replays the public op
    policy = parse_policy("Rotate 0.7 4 ; Invert 0.5 0\n"
                          "Posterize 1.0 6 ; Color 0.3 8\n")
    for shape in ((3, 32, 32), (3, 9, 13), (1, 8, 5)):
        img = make_image(rng, *shape)
        for seed in range(8):
            cases = (
                (dict(kind="jitter", brightness=0.3, contrast=0.6,
                      saturation=0.2, hue=0.25),
                 lambda s: color_jitter(img, 0.3, 0.6, 0.2, 0.25, s)),
                (dict(kind="erasing", erase_scale=(0.05, 0.3),
                      erase_ratio=(0.5, 2.0), erase_fill=7),
                 lambda s: random_erasing(img, (0.05, 0.3), (0.5, 2.0), 7,
                                          s)),
                (dict(kind="cutout", cutout_area_fraction=0.2,
                      cutout_fill=200),
                 lambda s: cutout(img, 0.2, s, fill=200)),
                (dict(kind="grid", grid_rows=2, grid_cols=3,
                      grid_transform_probability=0.7),
                 lambda s: grid_transform(img, 2, 3, s,
                                          transform_probability=0.7)),
                (dict(kind="randaug", randaug_num_ops=3,
                      randaug_magnitude=17),
                 lambda s: rand_augment(img, 3, 17, s)),
                (dict(kind="autoaug", policy=policy),
                 lambda s: auto_augment(img, policy, s)),
            )
            for fields, public_op in cases:
                spec = AugmentationSpec(apply_probability=1.0, **fields)
                a, b = stream(seed, 62), stream(seed, 62)
                case = (fields["kind"], shape, seed)
                assert apply_augmentation(spec, img, a) == public_op(b), case
                assert a.next_u64() == b.next_u64(), case


def test_gate_coin_contract():
    # with probability 0.5, application tracks the stream's first uniform
    rng = np.random.default_rng(36)
    img = make_image(rng)
    spec = default_spec("vflip")
    flipped = vflip(img)
    for seed in range(40):
        s = stream(seed, 11)
        gate = s.clone().next_unit_uniform() < 0.5
        out = apply_augmentation(spec, img, s)
        assert out == (flipped if gate else img)
