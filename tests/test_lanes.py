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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yona.augment as aug_mod
import yona.compositor as comp
import yona.dataset as ds
import yona.rng as rng_mod
from yona.augment import (_BANK, KINDS, PRIMITIVE_OPS,
                          apply_augmentation, default_spec, parse_policy)
from yona.compositor import YonaConfig, yona_apply
from yona.dataset import CifarRecord, read_cifar, write_augmented_dataset
from yona.errors import FormatError, GeometryError
from yona.image import ConstantNoise, GaussianNoise, ImageTensor, UniformNoise
from yona.rng import (AUGMENT_ROLE, LaneStream, RngStream, SeedSpec,
                      derive_image_streams, derive_stream, image_stream,
                      image_stream_label, lane_states, lane_tape)

LANES = comp._LANES  # records per chunk as `compose_batch` runs
# the chunk these tests compose in (`small_chunks`): their batches cross
# its borders at a fraction of the cost of crossing LANES
CHUNK = 256


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comp, "_LANES", CHUNK)
        yield


seeds = st.one_of(st.integers(-2**70, -1), st.just(0),
                  st.integers(2**64, 2**70), st.integers(1, 2**64 - 1))
# labels wrap at 2**62: (index << 2) | role is taken mod 2**64
first_indices = st.one_of(st.just(0), st.integers(0, 10**6),
                          st.integers(2**62 - 600, 2**62 + 600))
counts = st.one_of(st.just(1), st.integers(CHUNK - 2, CHUNK + 2),
                   st.integers(1, 2 * CHUNK + 3))
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
GATED_POLICY = parse_policy("Rotate 0 9 ; Equalize 1 0\n"
                            "Brightness 0.4 9 ; ShearY 1 9\n"
                            "AutoContrast 1 5 ; Contrast 0.4 3\n"
                            "TranslateX 0.4 9 ; Posterize 0 2\n")
SPECS = [default_spec(kind) for kind in KINDS] + [
    default_spec("autoaug", policy=POLICY),
    default_spec("erasing", apply_probability=1.0),
    default_spec("cutout", apply_probability=1.0, cutout_area_fraction=0.5),
    default_spec("grid", apply_probability=1.0),
    default_spec("jitter", apply_probability=0.3),
]
# explicit ids, so those of the specs above stay as they were
POLICY_SPECS = [
    pytest.param(default_spec("randaug", randaug_num_ops=n,
                              randaug_magnitude=m, apply_probability=0.3),
                 id=f"randaug-n{n}-m{m}-p0.3")
    for n, m in itertools.product((0, 1, 2, 4), (0, 9, 30))] + [
    # op probabilities 0 (no draw), 1 (no draw) and 0.4 (a gate draw);
    # four sub-policies: an index draw no word can make `next_index` redraw
    pytest.param(default_spec("autoaug", policy=GATED_POLICY),
                 id="autoaug-gated"),
    pytest.param(default_spec("autoaug", policy=GATED_POLICY,
                              apply_probability=0.3),
                 id="autoaug-gated-p0.3"),
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
    out = np.stack([image.array for image in images])
    try:
        expected = [_scalar(image, spec, config, seed, first + j)
                    for j, image in enumerate(images)]
    except GeometryError as exc:
        with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
            comp.compose_batch(out, first, spec, config, seed)
        return exc
    comp.compose_batch(out, first, spec, config, seed)
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
@pytest.mark.parametrize("spec", SPECS + POLICY_SPECS, ids=lambda s: s.kind)
def test_every_spec_matches_the_scalar_path(spec, config):
    # crosses a chunk boundary and the 2**62 wrap of index labels
    _check_lanes(_images(CHUNK + 5, 3), 2**62 - 100, spec, config, -7)


@pytest.mark.parametrize("kind", ["randaug", "autoaug"])
@pytest.mark.parametrize("config", CONFIGS[:3])
def test_policy_chunks_match_the_scalar_path(monkeypatch, kind, config):
    # a smaller chunk makes this batch cross two chunk boundaries
    monkeypatch.setattr(comp, "_LANES", 100)
    _check_lanes(_images(CHUNK + 5, 4), 2**62 - 100,
                 default_spec(kind, apply_probability=0.8), config, -7)


@pytest.mark.parametrize("kind, config", [
    ("hflip", YonaConfig()), ("cutout", YonaConfig()), ("randaug", None)])
def test_the_real_chunk_border_matches_the_scalar_path(monkeypatch, kind,
                                                      config):
    monkeypatch.setattr(comp, "_LANES", LANES)
    _check_lanes(_images(LANES + 5, 9), 2**62 - 100, default_spec(kind),
                 config, 13)


def _check_lane_walk(monkeypatch, images, first, spec, config, seed):
    """`_check_lanes` for a kind the lane walk runs: no record leaves it
    for its own augment stream (`_ungated_arr`)."""
    want = [_scalar(image, spec, config, seed, first + j)
            for j, image in enumerate(images)]
    scalar, calls = aug_mod._ungated_arr, []

    def spy(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(aug_mod, "_ungated_arr", spy)
    out = np.stack([image.array for image in images])
    comp.compose_batch(out, first, spec, config, seed)
    assert not calls
    for j, image in enumerate(want):
        assert np.array_equal(out[j], image.array), j


@pytest.mark.parametrize("kind", ["randaug", "autoaug"])
@pytest.mark.parametrize("config", [None, YonaConfig()])
def test_rejected_index_draws_redraw_in_the_lane_walk(monkeypatch, kind,
                                                      config):
    # with the one index limit lowered to 2**63 half of all index words are
    # rejected and redrawn; the lane walk follows every redraw, so no
    # record leaves it for its own augment stream
    monkeypatch.setattr(rng_mod, "_index_limit", lambda n: 1 << 63)
    seed, first, count = 5, 2**62 - 100, CHUNK + 5

    def longest_redraw(stream):  # the most words one index draw rejects
        longest = 0
        for _ in range(2 if kind == "randaug" else 1):
            rejected = 0
            while (word := stream.next_u64()) >= 1 << 63:
                rejected += 1
            longest = max(longest, rejected)
            if kind == "randaug" and _BANK[PRIMITIVE_OPS[word % 14]].signed:
                stream.next_u64()  # the sign coin
        return longest

    # some lane rejects twice in a row
    assert max(longest_redraw(image_stream(seed, i, AUGMENT_ROLE))
               for i in range(first, first + count)) >= 2
    _check_lane_walk(monkeypatch, _images(count, 8), first,
                     default_spec(kind), config, seed)


CUTOUT_CONFIGS = [
    None,
    # kept pieces of 22 rows or columns of 32, 10 or 12 of 15x17
    YonaConfig(mask_fraction=0.3),
    YonaConfig(mask_fraction=0.3, region_reference="image",
               noise=GaussianNoise()),
]


@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 15, 17)])
@pytest.mark.parametrize("config", CUTOUT_CONFIGS)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("fraction, image_seed", [
    (0.25, 0), (1.0, 200), (1e-4, 200)])  # 1e-4: a 1-pixel square
def test_cutout_lane_walk_matches_the_scalar_path(monkeypatch, fraction,
                                                  image_seed, p, config,
                                                  shape):
    # a fraction of 1.0 of the image is a square wider than the kept piece
    _check_lane_walk(monkeypatch, _images(40, image_seed, shape), 2**62 - 7,
                     default_spec("cutout", apply_probability=p,
                                  cutout_area_fraction=fraction), config, 3)


@pytest.mark.parametrize("config", CUTOUT_CONFIGS)
def test_rejected_cutout_draws_redraw_in_the_lane_walk(monkeypatch, config):
    # as for the policy walk: half of all index words are rejected
    monkeypatch.setattr(rng_mod, "_index_limit", lambda n: 1 << 63)
    seed, first, count = 5, 2**62 - 100, CHUNK + 5
    # at p 1 there is no gate draw: some lane rejects its first two words,
    # so its height draw redraws twice
    assert any(stream.next_u64() >= 1 << 63 and stream.next_u64() >= 1 << 63
               for stream in (image_stream(seed, i, AUGMENT_ROLE)
                              for i in range(first, first + count)))
    _check_lane_walk(monkeypatch, _images(count, 8), first,
                     default_spec("cutout", apply_probability=1.0), config,
                     seed)


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
    # 98,304 masked bytes either way on 3x256x256 (uniform noise reads 2
    # tape blocks, Gaussian noise 393,216 bytes: 6 blocks); on 1x3x40000 a
    # height cut masks 80,000 bytes and a width cut 60,000, which fit one
    # block of uniform noise
    for config in (YonaConfig(), YonaConfig(noise=GaussianNoise(100.0, 50.0))):
        _check_lanes(_images(6, 6, shape), 5, default_spec(kind), config, 2)


def test_unhostable_axis_raises_when_the_policy_can_cut_it():
    # 0.02 of 9 rows rounds to 0 pixels, of 20 columns too, of 30 to 1: a
    # run fails when its axis policy can cut an unhostable axis, both where
    # record 0 cuts the width (seed 3) and where it cuts the height (seed 4)
    spec = default_spec("hflip")
    for seed, (shape, axis, fails) in itertools.product((3, 4), (
            ((1, 9, 30), "random", True), ((1, 9, 20), "random", True),
            ((1, 9, 30), "width", False))):
        config = YonaConfig(mask_fraction=0.02, axis_policy=axis)
        error = _check_lanes(_images(40, 7, shape), 0, spec, config, seed)
        assert (error is not None) == fails, shape


def test_unhostable_axis_raises_at_every_seed():
    # 0.1 of 40 rows is 4, of 4 columns rounds to 0: the random policy may
    # cut the width, so every seed fails, whichever axis record 0 draws
    images, spec = _images(1, 5, (1, 40, 4)), default_spec("hflip")
    for seed in range(16):
        error = _check_lanes(images, 0, spec, YonaConfig(mask_fraction=0.1),
                             seed)
        assert str(error) == \
            "mask fraction 0.1 of extent 4 leaves no pixels on one side"
        assert _check_lanes(images, 0, spec, YonaConfig(
            mask_fraction=0.1, axis_policy="height"), seed) is None


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
       nbytes=st.one_of(st.integers(0, 3100), st.just(8 * 8192),
                        st.integers(8 * 8192 + 1, 3 * 8 * 8192)))
@example(seed=-3, first=2**62 - 4, role=2, count=1, nbytes=2 * 8 * 8192 + 5)
def test_lane_words_and_tape_match_scalar_streams(seed, first, role, count,
                                                  nbytes):
    # a stream that draws only tape seeds its block b with its word b
    states = lane_states(seed, first, 7, role)
    before = states.copy()
    lanes = LaneStream(states)
    words = np.array([lanes.next_u64() for _ in range(count)])
    tape = lane_tape(states, nbytes)
    assert np.array_equal(states, before)  # the twins draw on a copy
    assert tape.shape == (7, nbytes)
    for j in range(7):
        spec = SeedSpec(seed, image_stream_label(first + j, role))
        assert states[:, j].tolist() == list(derive_stream(spec).state)
        assert words[:, j].tolist() == derive_stream(spec).next_words(count)
        assert np.array_equal(tape[j], derive_stream(spec).fill_bytes(nbytes))


@pytest.mark.parametrize("n", [1, 3, 14, 25, 2**10])
def test_lane_units_and_indices_match_the_stream_rules(n):
    # boundary words, around the rejection limit of n too, each drawn as
    # the first word of a stream, one stream per lane
    limit = rng_mod._index_limit(n)
    boundary = [0, 2**11 - 1, 2**63 - 1, 2**63, 2**63 + 1, limit - 1,
                min(limit, 2**64 - 1), 2**64 - 1]
    streams = [_stream_whose_first_word_is(w) for w in boundary]
    lanes = LaneStream(np.array([s.state for s in streams],
                                dtype=np.uint64).T)
    units = LaneStream(lanes.state).next_unit_uniform()
    index = lanes.next_index(n)
    after = lanes.next_u64()
    for k, w in enumerate(boundary):
        stream = streams[k]
        assert units[k] == stream.clone().next_unit_uniform()
        assert (units[k] <= 0.5) == stream.clone().next_coin_pair()[0]
        # a redraw shows as a stream that has read more than the one word
        drawing, reading = stream.clone(), stream.clone()
        assert index[k] == drawing.next_index(n)
        reading.next_u64()
        assert after[k] == drawing.next_u64()
        assert (after[k] != reading.next_u64()) == (w >= limit)


def _stream_whose_first_word_is(w):
    # xoshiro256** outputs rotl(s1 * 5, 7) * 9: invert it for s1
    inv9, inv5 = pow(9, -1, 2**64), pow(5, -1, 2**64)
    x = w * inv9 % 2**64
    s1 = ((x >> 7) | (x << 57)) % 2**64 * inv5 % 2**64
    stream = RngStream(0x1234, s1, 0x5678, 0x9ABC)
    assert stream.clone().next_u64() == w
    return stream


draw_kinds = st.sampled_from(["u64", "unit_uniform", "index"])
wheres = st.one_of(st.none(), st.lists(st.booleans(), min_size=6,
                                       max_size=6))


@settings(max_examples=60)
@given(seed=seeds, first=first_indices,
       draws=st.lists(st.tuples(draw_kinds, st.integers(1, 2**40), wheres),
                      max_size=12),
       rejecting=st.booleans())
def test_lane_stream_matches_per_lane_streams(seed, first, draws, rejecting):
    # each lane of a LaneStream draws what its own RngStream draws, under
    # any mix of draws and ``where`` masks; a lane outside ``where`` reads
    # its next word (an index reads 0) and consumes nothing.  With the
    # index limit lowered to 2**63 half of all index words are rejected
    with pytest.MonkeyPatch.context() as patch:
        if rejecting:
            patch.setattr(rng_mod, "_index_limit", lambda n: 1 << 63)
        lanes = LaneStream(lane_states(seed, first, 6, AUGMENT_ROLE))
        streams = [image_stream(seed, first + j, AUGMENT_ROLE)
                   for j in range(6)]
        for kind, n, where in draws:
            args = [n] if kind == "index" else []
            got = getattr(lanes, f"next_{kind}")(
                *args, None if where is None else np.array(where))
            for j, stream in enumerate(streams):
                if where is None or where[j]:
                    want = getattr(stream, f"next_{kind}")(*args)
                elif kind == "index":
                    want = 0
                else:
                    want = getattr(stream.clone(), f"next_{kind}")()
                assert got[j] == want, (kind, j)
        # every lane has consumed what its stream has
        assert lanes.next_u64().tolist() == [s.next_u64() for s in streams]


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
    # every shape is checked before any work, for a flip scatter (hflip),
    # a lane-walk square (cutout) and a per-record kept piece (erasing)
    # alike
    records = _records(2 * CHUNK + 9, variant, {CHUNK + 3: (1, 32, 96)})

    def refuse(*args):
        raise AssertionError("work started before the shape check")

    monkeypatch.setattr(ds, "compose_batch", refuse)
    monkeypatch.setattr(comp, "lane_states", refuse)
    monkeypatch.setattr(aug_mod, "RngStream", refuse)
    for kind in ("hflip", "cutout", "erasing"):
        out_dir = tmp_path / kind
        with pytest.raises(FormatError,
                           match=rf"record {CHUNK + 3} .*\(1, 32, 96\)"):
            write_augmented_dataset(records, default_spec(kind), config, -5,
                                    out_dir, variant)
        assert not out_dir.exists()
    # without it, every record's labels and scalar bytes are emitted
    monkeypatch.undo()
    del records[CHUNK + 3]
    for kind in ("hflip", "cutout", "erasing"):
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
def test_emitted_bytes_equal_the_scalar_reference(tmp_path, spec, config):
    records = _records(20, "cifar10")
    write_augmented_dataset(records, spec, config, 4, tmp_path)
    back = read_cifar(tmp_path / "augmented.bin", "cifar10")
    for i, record in enumerate(records):
        assert back[i].image == _scalar(record.image, spec, config, 4, i)


def test_unhostable_mask_fraction_takes_the_scalar_error(tmp_path):
    config = YonaConfig(mask_fraction=0.01)  # rounds to 0 of 32 pixels
    for kind in ("hflip", "cutout", "erasing"):
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
