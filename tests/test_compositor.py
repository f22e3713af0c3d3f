"""Composition semantics: structure coins, masking, stream isolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yona.augment import KINDS, apply_augmentation, default_spec
from yona.compositor import (YonaConfig, compose_batch, compose_record,
                             yoco_apply, yona_apply, yona_apply_traced)
from yona.errors import GeometryError
from yona.evalstats import collect_stats
from yona.image import (Axis, ConstantNoise, GaussianNoise, ImageTensor,
                        UniformNoise, concat, cut_at, mask_noise, noise_bytes,
                        round_half_up)
from yona.rng import SeedSpec, derive_image_streams, derive_stream

from conftest import make_image


def streams(seed, index=0):
    return derive_image_streams(seed, index)


def masked_region(arr, trace):
    if trace.axis is Axis.HEIGHT:
        return arr[:, :trace.boundary, :] if trace.masked_first \
            else arr[:, trace.boundary:, :]
    return arr[:, :, :trace.boundary] if trace.masked_first \
        else arr[:, :, trace.boundary:]


def augmented_region(arr, trace):
    if trace.axis is Axis.HEIGHT:
        return arr[:, trace.boundary:, :] if trace.masked_first \
            else arr[:, :trace.boundary, :]
    return arr[:, :, trace.boundary:] if trace.masked_first \
        else arr[:, :, :trace.boundary]


def test_identity_constant_noise_isolates_mask():
    rng = np.random.default_rng(0)
    img = make_image(rng, low=1)
    config = YonaConfig(axis_policy="height", masked_piece_policy="first",
                        noise=ConstantNoise(0))
    st, au, nz = streams(1)
    out = yona_apply(img, default_spec("identity"), config, st, au, nz)
    assert not out.array[:, :16, :].any()
    assert np.array_equal(out.array[:, 16:, :], img.array[:, 16:, :])


def test_output_matches_manual_primitive_composition():
    # reassemble via the public cut/mask/concat/apply pipeline and compare
    rng = np.random.default_rng(1)
    config = YonaConfig()
    for index, kind in enumerate(
            ("identity", "hflip", "jitter", "cutout", "erasing", "grid",
             "randaug", "autoaug", "vflip")):
        img = make_image(rng)
        spec = default_spec(kind)
        st, au, nz = streams(7, index)
        composed = yona_apply(img, spec, config, st, au, nz)

        st2, au2, nz2 = streams(7, index)
        u_axis = st2.next_unit_uniform()
        u_side = st2.next_unit_uniform()
        axis = Axis.HEIGHT if u_axis <= 0.5 else Axis.WIDTH
        masked_first = u_side <= 0.5
        extent = img.extent(axis)
        k = int(0.5 * extent + 0.5)
        boundary = k if masked_first else extent - k
        piece1, piece2 = cut_at(img, axis, boundary)
        if masked_first:
            piece1 = mask_noise(piece1, config.noise, nz2)
            piece2 = piece2.__class__(
                apply_augmentation(spec, piece2.image, au2),
                piece2.axis, piece2.offset, "augmented")
        else:
            piece2 = mask_noise(piece2, config.noise, nz2)
            piece1 = piece1.__class__(
                apply_augmentation(spec, piece1.image, au2),
                piece1.axis, piece1.offset, "augmented")
        manual = concat(piece1, piece2, axis)
        assert composed == manual, kind


def test_fast_path_equals_traced_path():
    rng = np.random.default_rng(2)
    for index in range(30):
        img = make_image(rng)
        spec = default_spec("randaug")
        config = YonaConfig()
        st, au, nz = streams(9, index)
        fast = yona_apply(img, spec, config, st, au, nz)
        st, au, nz = streams(9, index)
        traced, trace = yona_apply_traced(img, spec, config, st, au, nz)
        assert fast == traced
        assert trace.masked_byte_count == masked_region(
            traced.array, trace).size


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 10**6),
       shape=st.tuples(st.integers(1, 3), st.integers(2, 40),
                       st.integers(2, 40)),
       fraction=st.floats(0.1, 0.9),
       axis=st.sampled_from(["random", "height", "width"]),
       side=st.sampled_from(["random", "first", "second"]),
       noise=st.one_of(st.just(UniformNoise()),
                       st.builds(ConstantNoise, st.integers(0, 255)),
                       st.builds(GaussianNoise, st.floats(-50.0, 300.0),
                                 st.floats(0.5, 80.0))),
       kind=st.sampled_from(KINDS), p=st.sampled_from([0.5, 1.0]))
def test_composition_invariants(seed, index, shape, fraction, axis, side,
                                noise, kind, p):
    img = make_image(np.random.default_rng(index), *shape)
    spec = default_spec(kind, apply_probability=p)
    config = YonaConfig(mask_fraction=fraction, axis_policy=axis,
                        masked_piece_policy=side, noise=noise)
    # the extents of the axes the policy can cut
    cuttable = {"random": shape[1:], "height": shape[1:2],
                "width": shape[2:]}[axis]
    hosts = all(1 <= round_half_up(fraction * extent) <= extent - 1
                for extent in cuttable)
    try:
        out, trace = yona_apply_traced(img, spec, config,
                                       *derive_image_streams(seed, index))
    except GeometryError:
        # an axis the policy can cut and the fraction cannot split leaves
        # no composition, whichever axis the coins draw
        assert not hosts
        return
    except ValueError as exc:  # e.g. a grid larger than the kept piece
        out, error = None, str(exc)
        # the structure and noise streams do not depend on the kind
        _, trace = yona_apply_traced(img, default_spec("identity"), config,
                                     *derive_image_streams(seed, index))
    assert hosts
    _, augment, noise_rng = derive_image_streams(seed, index)
    kept = ImageTensor(augmented_region(img.array, trace).copy())
    if out is None:
        with pytest.raises(ValueError) as alone:
            apply_augmentation(spec, kept, augment)
        assert str(alone.value) == error
        return
    assert out.shape == img.shape
    masked = masked_region(out.array, trace)
    assert np.array_equal(masked.reshape(-1), noise_bytes(
        noise, trace.masked_byte_count, noise_rng))
    assert np.array_equal(augmented_region(out.array, trace),
                          apply_augmentation(spec, kept, augment).array)


def test_shape_preserved_everywhere():
    rng = np.random.default_rng(3)
    for shape in ((3, 32, 32), (1, 7, 9), (3, 2, 2), (2, 33, 17)):
        img = make_image(rng, *shape)
        st, au, nz = streams(11, hash(shape) % 1000)
        out = yona_apply(img, default_spec("hflip"), YonaConfig(), st, au, nz)
        assert out.shape == img.shape


def test_structure_stream_accounting_order():
    # exactly one axis draw then one side draw, from the structure stream
    rng = np.random.default_rng(4)
    for index in range(25):
        img = make_image(rng)
        st, au, nz = streams(13, index)
        twin = derive_image_streams(13, index)[0]
        _, trace = yona_apply_traced(img, default_spec("identity"),
                                     YonaConfig(), st, au, nz)
        u_axis = twin.next_unit_uniform()
        u_side = twin.next_unit_uniform()
        assert trace.axis is (Axis.HEIGHT if u_axis <= 0.5 else Axis.WIDTH)
        assert trace.masked_first == (u_side <= 0.5)
        assert st.state == twin.state  # two words consumed, no more


def test_noise_stream_owns_masked_bytes_only():
    rng = np.random.default_rng(5)
    img = make_image(rng)
    spec = default_spec("jitter", apply_probability=1.0)
    config = YonaConfig()

    def run(augment_seed, noise_seed):
        st = derive_stream(SeedSpec(1, 100))
        au = derive_stream(SeedSpec(augment_seed, 101))
        nz = derive_stream(SeedSpec(noise_seed, 102))
        return yona_apply_traced(img, spec, config, st, au, nz)

    base, trace = run(0, 0)
    other_aug, _ = run(999, 0)
    assert np.array_equal(masked_region(base.array, trace),
                          masked_region(other_aug.array, trace))
    assert not np.array_equal(augmented_region(base.array, trace),
                              augmented_region(other_aug.array, trace))

    other_noise, _ = run(0, 999)
    assert np.array_equal(augmented_region(base.array, trace),
                          augmented_region(other_noise.array, trace))
    assert not np.array_equal(masked_region(base.array, trace),
                              masked_region(other_noise.array, trace))


def test_coin_fairness_quick():
    rng = np.random.default_rng(6)
    img = make_image(rng)
    height = first = 0
    n = 2000
    for i in range(n):
        st, au, nz = streams(17, i)
        _, trace = yona_apply_traced(img, default_spec("identity"),
                                     YonaConfig(), st, au, nz)
        height += trace.axis is Axis.HEIGHT
        first += trace.masked_first
    assert 0.44 <= height / n <= 0.56
    assert 0.44 <= first / n <= 0.56


def test_fraction_quarter_low_side_geometry():
    rng = np.random.default_rng(7)
    img = make_image(rng, low=1)
    config = YonaConfig(mask_fraction=0.25, axis_policy="height",
                        masked_piece_policy="first", noise=ConstantNoise(0))
    st, au, nz = streams(19)
    out = yona_apply(img, default_spec("identity"), config, st, au, nz)
    assert not out.array[:, :8, :].any()
    assert np.array_equal(out.array[:, 8:, :], img.array[:, 8:, :])


def test_fraction_three_quarters_masks_24_rows():
    rng = np.random.default_rng(8)
    img = make_image(rng, low=1)
    config = YonaConfig(mask_fraction=0.75, axis_policy="height",
                        noise=ConstantNoise(0))
    st, au, nz = streams(21)
    out, trace = yona_apply_traced(img, default_spec("identity"), config,
                                   st, au, nz)
    assert trace.masked_extent == 24
    assert int((out.array == 0).sum()) == 24 * 32 * 3


def test_fraction_half_consistent_with_default():
    rng = np.random.default_rng(9)
    img = make_image(rng)
    spec = default_spec("hflip")
    st, au, nz = streams(23)
    via_fraction = yona_apply(img, spec, YonaConfig(mask_fraction=0.5), st,
                              au, nz)
    st, au, nz = streams(23)
    via_default = yona_apply(img, spec, YonaConfig(), st, au, nz)
    assert via_fraction == via_default


def test_fraction_masked_side_follows_side_coin():
    rng = np.random.default_rng(10)
    img = make_image(rng, low=1)
    spec = default_spec("identity")
    config = YonaConfig(mask_fraction=0.25, noise=ConstantNoise(0))
    for index in range(20):
        st, au, nz = streams(29, index)
        out, trace = yona_apply_traced(img, spec, config, st, au, nz)
        assert trace.masked_extent == 8
        region = masked_region(out.array, trace)
        assert not region.any()
        assert (out.array != 0).sum() == augmented_region(
            out.array, trace).size


def test_region_reference_switch_changes_cutout_scale():
    rng = np.random.default_rng(11)
    img = make_image(rng, low=1)
    spec = default_spec("cutout", apply_probability=1.0)
    piece_cfg = YonaConfig(axis_policy="height", masked_piece_policy="first")
    image_cfg = YonaConfig(axis_policy="height", masked_piece_policy="first",
                           region_reference="image")
    st, au, nz = streams(31)
    piece_rel = yona_apply(img, spec, piece_cfg, st, au, nz)
    st, au, nz = streams(31)
    image_rel = yona_apply(img, spec, image_cfg, st, au, nz)
    # piece-relative square side 8 on the 16-row piece; image-relative side 16
    assert piece_rel != image_rel
    zeros_piece = int((piece_rel.array[:, 16:, :] == 0).sum())
    zeros_image = int((image_rel.array[:, 16:, :] == 0).sum())
    assert zeros_piece < zeros_image


def test_gaussian_noise_config_composes():
    rng = np.random.default_rng(12)
    img = make_image(rng)
    config = YonaConfig(noise=GaussianNoise(mean=127.5, stddev=20.0))
    st, au, nz = streams(33)
    out1 = yona_apply(img, default_spec("identity"), config, st, au, nz)
    st, au, nz = streams(33)
    out2 = yona_apply(img, default_spec("identity"), config, st, au, nz)
    assert out1 == out2


def test_compose_record_uses_the_streams_of_its_index():
    rng = np.random.default_rng(36)
    for index, (h, w) in enumerate([(32, 32), (7, 12), (16, 5)]):
        img = make_image(rng, 3, h, w)
        spec = default_spec("randaug")
        config = YonaConfig(noise=GaussianNoise(), region_reference="image")
        assert compose_record(img, spec, config, -3, index) == yona_apply(
            img, spec, config, *streams(-3, index))
        assert compose_record(img, spec, None, -3, index) == \
            apply_augmentation(spec, img, streams(-3, index)[1])


def test_rejects_tiny_images():
    img = ImageTensor(np.zeros((3, 1, 5), dtype=np.uint8))
    st, au, nz = streams(35)
    with pytest.raises(GeometryError):
        yona_apply(img, default_spec("identity"), YonaConfig(), st, au, nz)


@pytest.mark.parametrize("kind", KINDS)
def test_a_fixed_axis_needs_only_its_own_extent(kind):
    # a 3x40x1 image: the height policy never cuts the 1-pixel width
    img = make_image(np.random.default_rng(9), height=40, width=1)
    spec = default_spec(kind, apply_probability=1.0, grid_cols=1)
    config = YonaConfig(axis_policy="height")
    for index in range(8):
        assert compose_record(img, spec, config, 12, index) == yona_apply(
            img, spec, config, *streams(12, index)), index
    for axis in ("random", "width"):
        with pytest.raises(GeometryError, match="^mask fraction 0.5 of "
                                                "extent 1 leaves no pixels"):
            compose_record(img, spec, YonaConfig(axis_policy=axis), 12, 0)


@pytest.mark.parametrize("pixels", [
    np.zeros((8, 3, 32, 32)), np.zeros((8, 3, 32, 32), dtype=np.int16),
    np.zeros((3, 32, 32), dtype=np.uint8),
    np.zeros((1, 8, 3, 32, 32), dtype=np.uint8)])
@pytest.mark.parametrize("config", [YonaConfig(), None])
def test_batches_must_be_pixels(pixels, config):
    # the rule `ImageTensor` states for one image, for an (N, C, H, W) batch
    spec = default_spec("hflip")
    with pytest.raises(GeometryError):
        compose_batch(pixels.copy(), 0, spec, config, 0)
    with pytest.raises(GeometryError):
        collect_stats(pixels, spec, config, 0, 8)


def test_config_validation():
    with pytest.raises(ValueError):
        YonaConfig(mask_fraction=0.0)
    with pytest.raises(ValueError):
        YonaConfig(mask_fraction=1.0)
    with pytest.raises(ValueError):
        YonaConfig(axis_policy="diagonal")
    with pytest.raises(ValueError):
        YonaConfig(masked_piece_policy="third")
    with pytest.raises(ValueError):
        YonaConfig(region_reference="window")


# --------------------------------------------------------------------------
# Comparison compositor

def test_yoco_rejects_an_image_it_cannot_cut_both_ways():
    img = ImageTensor(np.zeros((3, 1, 8), dtype=np.uint8))
    st, au, _ = streams(36)
    with pytest.raises(GeometryError):
        yoco_apply(img, default_spec("identity"), st, au)


def test_yoco_identity_is_identity():
    rng = np.random.default_rng(13)
    img = make_image(rng)
    st, au, _ = streams(37)
    assert yoco_apply(img, default_spec("identity"), st, au) == img


def test_yoco_width_cut_mirrors_each_half():
    rng = np.random.default_rng(14)
    img = make_image(rng)
    spec = default_spec("hflip", apply_probability=1.0)
    for seed in range(200):
        probe = derive_stream(SeedSpec(seed, 0))
        if probe.next_unit_uniform() > 0.5:  # width cut
            st = derive_stream(SeedSpec(seed, 0))
            au = derive_stream(SeedSpec(seed, 1))
            out = yoco_apply(img, spec, st, au)
            expected = np.concatenate(
                [img.array[:, :, :16][:, :, ::-1],
                 img.array[:, :, 16:][:, :, ::-1]], axis=2)
            assert np.array_equal(out.array, expected)
            globally_flipped = img.array[:, :, ::-1]
            assert not np.array_equal(out.array, globally_flipped)
            return
    pytest.fail("no width-cut seed found")


def test_yoco_replay():
    rng = np.random.default_rng(15)
    img = make_image(rng)
    spec = default_spec("randaug")
    st = derive_stream(SeedSpec(3, 0))
    au = derive_stream(SeedSpec(3, 1))
    a = yoco_apply(img, spec, st, au)
    st = derive_stream(SeedSpec(3, 0))
    au = derive_stream(SeedSpec(3, 1))
    b = yoco_apply(img, spec, st, au)
    assert a == b


def test_yoco_halves_get_independent_streams():
    # identical pieces augmented differently implies split sub-streams
    rng = np.random.default_rng(16)
    half = rng.integers(0, 256, (3, 32, 16), dtype=np.uint8)
    img = ImageTensor(np.concatenate([half, half], axis=2))
    spec = default_spec("jitter", apply_probability=1.0)
    for seed in range(100):
        probe = derive_stream(SeedSpec(seed, 0))
        if probe.next_unit_uniform() > 0.5:  # width cut
            st = derive_stream(SeedSpec(seed, 0))
            au = derive_stream(SeedSpec(seed, 1))
            out = yoco_apply(img, spec, st, au)
            assert not np.array_equal(out.array[:, :, :16],
                                      out.array[:, :, 16:])
            return
    pytest.fail("no width-cut seed found")
