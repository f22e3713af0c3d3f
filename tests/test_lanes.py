"""The batch composer `compose_batch` (the path of `write_augmented_dataset`,
the probe, `stats` and `compose_record`) against the scalar
reference: every record it composes equals `yona_apply` (or
`apply_augmentation` without yona) alone on `derive_image_streams(seed, i)`,
for every augmentation kind and every noise.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yona.compositor as comp
import yona.dataset as ds
from yona.augment import (KINDS, apply_augmentation, default_spec,
                          parse_policy)
from yona.compositor import YonaConfig, yona_apply
from yona.dataset import CifarRecord, read_cifar, write_augmented_dataset
from yona.errors import FormatError, GeometryError
from yona.image import ConstantNoise, GaussianNoise, ImageTensor, UniformNoise
from yona.rng import (SeedSpec, derive_image_streams, derive_stream,
                      image_stream_label, lane_tape, lane_words)

seeds = st.one_of(st.integers(-2**70, -1), st.just(0),
                  st.integers(2**64, 2**70), st.integers(1, 2**64 - 1))
# labels wrap at 2**62: (index << 2) | role is taken mod 2**64
first_indices = st.one_of(st.just(0), st.integers(0, 10**6),
                          st.integers(2**62 - 600, 2**62 + 600))
counts = st.one_of(st.just(1), st.integers(comp._LANES - 2, comp._LANES + 2),
                   st.integers(1, 2 * comp._LANES + 3))
probabilities = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(0.0, 1.0))
noises = st.one_of(st.just(UniformNoise()),
                   st.builds(ConstantNoise, st.integers(0, 255)),
                   st.builds(GaussianNoise, st.floats(-50.0, 300.0),
                             st.floats(0.5, 80.0)))
FLIP_KINDS = ["identity", "hflip", "vflip"]  # composed by lane scatters
FRACTIONS = [0.25, 0.3, 0.5, 0.75]  # 0.3 rounds: 9.6 of 32 rows -> 10
AXES = ["random", "height", "width"]
SIDES = ["random", "first", "second"]
POLICY = parse_policy("Invert 0.7 3 ; Rotate 0.4 8\n"
                      "Equalize 1.0 0 ; Solarize 0.5 4\n"
                      "ShearX 0.3 9 ; Color 0.8 2\n")
SPECS = [default_spec(kind) for kind in KINDS] + [
    default_spec("autoaug", policy=POLICY),
    default_spec("erasing", apply_probability=1.0, erase_fill=77),
    default_spec("cutout", apply_probability=1.0, cutout_fill=200,
                 cutout_area_fraction=0.5),
    default_spec("grid", apply_probability=1.0,
                 grid_transform_probability=0.9),
    default_spec("jitter", apply_probability=0.3),
]
CONFIGS = [
    None,
    YonaConfig(),
    YonaConfig(noise=GaussianNoise(), region_reference="image"),
    YonaConfig(mask_fraction=0.3, axis_policy="height", noise=ConstantNoise(9),
               masked_piece_policy="first", region_reference="image"),
    YonaConfig(mask_fraction=0.75, axis_policy="width",
               noise=GaussianNoise(10.0, 60.0), masked_piece_policy="second"),
]


def _scalar(image, spec, config, seed, index):
    structure, augment, noise = derive_image_streams(seed, index)
    if config is None:
        return apply_augmentation(spec, image, augment)
    return yona_apply(image, spec, config, structure, augment, noise)


def _images(count, seed, shape=(3, 32, 32)):
    pixels = np.random.default_rng(seed).integers(
        0, 256, (count,) + shape, dtype=np.uint8)
    return [ImageTensor(a) for a in pixels]


def _check_lanes(images, first, spec, config, seed):
    """Compare every record; where the scalar path raises GeometryError at
    some record, the batch must raise that record's error.  Returns it."""
    out = np.zeros((len(images),) + images[0].shape, dtype=np.uint8)
    try:
        expected = [_scalar(image, spec, config, seed, first + j)
                    for j, image in enumerate(images)]
    except GeometryError as exc:
        with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
            comp.compose_batch(images, first, spec, config, seed, out)
        return exc
    comp.compose_batch(images, first, spec, config, seed, out)
    for j, image in enumerate(expected):
        assert np.array_equal(out[j], image.array), j


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fraction", [None] + FRACTIONS)  # None: yona off
@settings(max_examples=12)
@given(seed=seeds, first=first_indices, count=counts, p=probabilities,
       axis=st.sampled_from(AXES), side=st.sampled_from(SIDES), noise=noises,
       region=st.sampled_from(["piece", "image"]))
def test_lanes_match_the_scalar_path(kind, fraction, seed, first, count, p,
                                     axis, side, noise, region):
    config = None if fraction is None else YonaConfig(
        mask_fraction=fraction, axis_policy=axis, noise=noise,
        masked_piece_policy=side, region_reference=region)
    _check_lanes(_images(count, count), first, default_spec(
        kind, apply_probability=p), config, seed)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_every_spec_matches_the_scalar_path(spec, config):
    # crosses a chunk boundary and the 2**62 wrap of index labels
    _check_lanes(_images(comp._LANES + 5, 3), 2**62 - 100, spec, config, -7)


@pytest.mark.parametrize("shape", [(3, 17, 40), (3, 40, 17), (1, 9, 30),
                                   (1, 32, 32), (1, 2, 2)])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kind", ["hflip", "vflip", "cutout", "randaug"])
def test_other_shapes_match_the_scalar_path(kind, config, shape):
    # the axes mask different byte counts; 0.3 of 2 pixels rounds to 1
    _check_lanes(_images(20, 5, shape), 2**62 - 7, default_spec(
        kind, apply_probability=0.8), config, 11)


@pytest.mark.parametrize("kind", ["hflip", "cutout"])
@pytest.mark.parametrize("shape", [(3, 256, 256), (1, 3, 40000)])
def test_pieces_longer_than_a_tape_block_match_the_scalar_path(kind, shape):
    # 98,304 masked bytes either way on 3x256x256; on 1x3x40000 a height
    # cut masks 80,000 bytes and a width cut 60,000, which fit one block:
    # uniform noise longer than a block is drawn on each noise stream
    _check_lanes(_images(6, 6, shape), 5, default_spec(kind), YonaConfig(),
                 2)


def test_unhostable_group_raises_for_the_first_record_selecting_it():
    # 0.02 of 9 rows rounds to 0 pixels, of 20 columns too, of 30 to 1;
    # record 0 cuts the width at seed 3 and the height at seed 4
    spec = default_spec("hflip")
    for seed, (shape, axis, fails) in itertools.product((3, 4), (
            ((1, 9, 30), "random", True), ((1, 9, 20), "random", True),
            ((1, 9, 30), "width", False))):
        config = YonaConfig(mask_fraction=0.02, axis_policy=axis)
        error = _check_lanes(_images(40, 7, shape), 0, spec, config, seed)
        assert (error is not None) == fails, shape


def test_lanes_match_the_scalar_path_on_every_policy():
    images = _images(6, 0)
    for kind, p, fraction, axis, side, noise in itertools.product(
            FLIP_KINDS, [0.0, 0.37, 0.5, 1.0], FRACTIONS, AXES, SIDES,
            [UniformNoise(), ConstantNoise(200), GaussianNoise()]):
        config = YonaConfig(mask_fraction=fraction, axis_policy=axis,
                            noise=noise, masked_piece_policy=side)
        _check_lanes(images, 2**62 - 3, default_spec(
            kind, apply_probability=p), config, -1)


@pytest.mark.parametrize("kind", ["hflip", "vflip"])
def test_gate_at_exactly_the_apply_probability(kind):
    # the scalar gate skips the flip when the uniform draws >= p
    images = _images(4, 1)
    for seed in range(5):
        _, augment, _ = derive_image_streams(seed, 2)
        p = augment.next_unit_uniform()
        _check_lanes(images, 0, default_spec(kind, apply_probability=p), None,
                     seed)


@settings(max_examples=40)
@given(seed=seeds, first=first_indices, role=st.integers(0, 3),
       count=st.integers(1, 5),
       nbytes=st.one_of(st.integers(0, 3100), st.just(8 * 8192)))
def test_lane_words_and_tape_match_scalar_streams(seed, first, role, count,
                                                  nbytes):
    indices = [first + j for j in range(7)]
    words = lane_words(seed, first, 7, role, count)
    tape = lane_tape(lane_words(seed, first, 7, role, 1)[0], nbytes)
    for j, index in enumerate(indices):
        spec = SeedSpec(seed, image_stream_label(index, role))
        assert words[:, j].tolist() == derive_stream(spec).next_words(count)
        assert np.array_equal(tape[j], derive_stream(spec).fill_bytes(nbytes))


def _records(count, variant, shapes=None):
    rng = np.random.default_rng(count)
    shapes = shapes or {}
    return [CifarRecord(
        fine_label=int(rng.integers(0, 10)),
        image=ImageTensor(rng.integers(0, 256, shapes.get(i, (3, 32, 32)),
                                       dtype=np.uint8)),
        coarse_label=int(rng.integers(0, 20)) if variant == "cifar100"
        else None) for i in range(count)]


@pytest.mark.parametrize("variant", ["cifar10", "cifar100"])
@pytest.mark.parametrize("config", [None, YonaConfig(
    mask_fraction=0.3, noise=ConstantNoise(9))])
def test_emission_mixes_lanes_and_scalar_records(tmp_path, monkeypatch,
                                                 variant, config):
    # a 1x32x96 record has 3072 pixel bytes too, but is no CIFAR record:
    # every shape is checked before any work, for a flip scatter (hflip)
    # and a per-record kept piece (cutout) alike
    records = _records(2 * comp._LANES + 9, variant,
                       {comp._LANES + 3: (1, 32, 96)})

    def refuse(*args):
        raise AssertionError("work started before the shape check")

    monkeypatch.setattr(ds, "compose_batch", refuse)
    monkeypatch.setattr(comp, "image_stream", refuse)
    for kind in ("hflip", "cutout"):
        out_dir = tmp_path / kind
        with pytest.raises(FormatError,
                           match=rf"record {comp._LANES + 3} .*\(1, 32, 96\)"):
            write_augmented_dataset(records, default_spec(kind), config, -5,
                                    out_dir, variant)
        assert not out_dir.exists()
    # without it, every record's labels and scalar bytes are emitted
    monkeypatch.undo()
    del records[comp._LANES + 3]
    for kind in ("hflip", "cutout"):
        spec = default_spec(kind)
        write_augmented_dataset(records, spec, config, -5, tmp_path / kind,
                                variant)
        table = np.fromfile(tmp_path / kind / "augmented.bin",
                            dtype=np.uint8).reshape(len(records), -1)
        for i, record in enumerate(records):
            labels = [record.fine_label] if variant == "cifar10" else [
                record.coarse_label, record.fine_label]
            expected = _scalar(record.image, spec, config, -5, i)
            assert table[i, :len(labels)].tolist() == labels
            assert table[i, len(labels):].tobytes() == expected.to_bytes(), i


def test_lanes_replay_through_read_cifar(tmp_path):
    records = _records(300, "cifar10")
    spec, config = default_spec("vflip"), YonaConfig(axis_policy="height")
    write_augmented_dataset(records, spec, config, 2**64 + 1, tmp_path)
    back = read_cifar(tmp_path / "augmented.bin", "cifar10")
    for i, record in enumerate(records):
        assert back[i].image == _scalar(record.image, spec, config,
                                        2**64 + 1, i)


@pytest.mark.parametrize("config", [None, YonaConfig()])
def test_non_cifar_shape_still_raises(tmp_path, config):
    records = _records(40, "cifar10", {17: (3, 16, 16)})
    with pytest.raises(FormatError):
        write_augmented_dataset(records, default_spec("hflip"), config, 0,
                                tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, config", [
    (default_spec("cutout"), YonaConfig()),
    (default_spec("cutout"), None),
    (default_spec("hflip"), YonaConfig(noise=GaussianNoise())),
    (default_spec("randaug"), YonaConfig()),
])
def test_other_specs_take_the_scalar_path(tmp_path, spec, config):
    records = _records(20, "cifar10")
    write_augmented_dataset(records, spec, config, 4, tmp_path)
    back = read_cifar(tmp_path / "augmented.bin", "cifar10")
    for i, record in enumerate(records):
        assert back[i].image == _scalar(record.image, spec, config, 4, i)


def test_unhostable_mask_fraction_takes_the_scalar_error(tmp_path):
    config = YonaConfig(mask_fraction=0.01)  # rounds to 0 of 32 pixels
    for kind in ("hflip", "cutout"):
        with pytest.raises(GeometryError, match="leaves no pixels"):
            write_augmented_dataset(_records(3, "cifar10"),
                                    default_spec(kind), config, 0,
                                    tmp_path / "out")
        assert not (tmp_path / "out").exists()
        # no record selects an axis, so nothing raises: an empty dataset
        manifest = write_augmented_dataset([], default_spec(kind), config, 0,
                                           tmp_path / kind)
        assert manifest.count == 0
        assert (tmp_path / kind / "augmented.bin").read_bytes() == b""
