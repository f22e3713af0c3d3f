"""Statistics collection, the linear probe, calibration, and benchmarking."""

import math
import tracemalloc

import numpy as np
import pytest

import yona.compositor as comp
import yona.evalstats as ev
from yona.augment import apply_augmentation, default_spec
from yona.compositor import YonaConfig, yona_apply_traced
from yona.dataset import (CifarRecord, read_cifar, read_cifar_table,
                          table_pixels, write_cifar)
from yona.errors import DivergenceError
from yona.evalstats import (PredictionRecord, StatsReport,
                            benchmark_throughput, collect_stats,
                            evaluate_probe, probe_gradients, probe_loss,
                            rms_calibration_error, train_linear_probe)
from yona.image import (Axis, ConstantNoise, GaussianNoise, ImageTensor,
                        UniformNoise, cut_at, noise_bytes)
from yona.rng import NOISE_ROLE, SeedSpec, derive_image_streams, derive_stream

from conftest import make_image, make_records


# --------------------------------------------------------------------------
# collect_stats

def test_stats_defaults_coin_frequencies(small_records):
    report = collect_stats(small_records, default_spec("hflip"),
                           YonaConfig(), seed=1, n_samples=1500)
    assert 0.44 <= report.axis_height_frequency <= 0.56
    assert 0.44 <= report.piece1_masked_frequency <= 0.56
    assert report.sample_count == 1500


def test_stats_masked_fraction_exact_half(small_records):
    report = collect_stats(small_records, default_spec("identity"),
                           YonaConfig(), seed=2, n_samples=400)
    assert 0.4995 <= report.masked_fraction_mean <= 0.5005


def test_stats_yona_disabled(small_records):
    report = collect_stats(small_records, default_spec("hflip"), None,
                           seed=3, n_samples=200)
    assert report.masked_fraction_mean == 0.0
    assert report.axis_height_frequency == 0.0
    assert report.mean_abs_pixel_delta >= 0.0


def test_stats_report_text(small_records):
    report = collect_stats(small_records, default_spec("identity"),
                           YonaConfig(), seed=4, n_samples=50)
    text = report.to_text()
    assert "axis_height_frequency=" in text
    assert "masked_fraction_mean=" in text


def test_stats_validation(small_records):
    with pytest.raises(ValueError):
        collect_stats(small_records, default_spec("hflip"), YonaConfig(),
                      seed=0, n_samples=0)
    with pytest.raises(ValueError):
        collect_stats([], default_spec("hflip"), YonaConfig(), seed=0,
                      n_samples=10)


def _reference_stats(records, aug, yona_config, seed, n_samples):
    """The per-sample `collect_stats` loop before the batch composer: each
    sample composed alone by `yona_apply_traced`, its geometry read from
    the trace and its noise replayed on freshly derived streams."""
    height_hits = 0
    first_hits = 0
    masked_total = 0.0
    delta_total = 0.0
    for i in range(n_samples):
        image = records[i % len(records)].image
        structure, augment, noise = derive_image_streams(seed, i)
        if yona_config is None:
            out = apply_augmentation(aug, image, augment)
        else:
            out, trace = yona_apply_traced(image, aug, yona_config,
                                           structure, augment, noise)
            _, _, replay = derive_image_streams(seed, i)
            expected = noise_bytes(yona_config.noise,
                                   trace.masked_byte_count, replay)
            first, second = cut_at(out, trace.axis, trace.boundary)
            region = (first if trace.masked_first else second).image.array
            assert np.array_equal(region.reshape(-1), expected)
            masked_total += trace.masked_byte_count / image.array.size
            height_hits += trace.axis is Axis.HEIGHT
            first_hits += trace.masked_first
        delta_total += float(np.mean(np.abs(
            out.array.astype(np.int16) - image.array.astype(np.int16))))
    if yona_config is None:
        return StatsReport(0.0, 0.0, 0.0, delta_total / n_samples, n_samples)
    return StatsReport(masked_total / n_samples, height_hits / n_samples,
                       first_hits / n_samples, delta_total / n_samples,
                       n_samples)


@pytest.mark.parametrize("n_samples", [37, 301])  # below and above 60 records
@pytest.mark.parametrize("spec, config", [
    (default_spec("hflip"), None),
    (default_spec("cutout"), None),
    (default_spec("hflip"), YonaConfig()),
    (default_spec("randaug"), YonaConfig()),
    (default_spec("cutout"), YonaConfig(noise=ConstantNoise(9))),
    (default_spec("cutout"), YonaConfig(noise=GaussianNoise())),
    (default_spec("vflip", apply_probability=0.4), YonaConfig(
        mask_fraction=0.3, axis_policy="height", masked_piece_policy="first",
        region_reference="image")),
    (default_spec("erasing"), YonaConfig(
        mask_fraction=0.75, axis_policy="width", masked_piece_policy="second",
        noise=GaussianNoise(10.0, 60.0))),
])
def test_stats_report_equals_the_per_sample_reference(small_records, spec,
                                                      config, n_samples):
    report = collect_stats(small_records, spec, config, -9, n_samples)
    expected = _reference_stats(small_records, spec, config, -9, n_samples)
    assert report.to_text() == expected.to_text()


@pytest.mark.parametrize("n_samples", [5, 259])  # one and two chunks
def test_stats_report_equals_the_per_sample_reference_across_tape_blocks(
        n_samples):
    # a 3x128x96 Gaussian mask reads 73,728 tape bytes per sample, past a
    # 64 KiB tape block, so the replay seeds and mixes two blocks a stream
    rng = np.random.default_rng(12)
    records = [CifarRecord(fine_label=k, image=make_image(rng, 3, 128, 96))
               for k in range(4)]
    spec, config = default_spec("cutout"), YonaConfig(noise=GaussianNoise())
    report = collect_stats(records, spec, config, -9, n_samples)
    expected = _reference_stats(records, spec, config, -9, n_samples)
    assert report.to_text() == expected.to_text()


@pytest.mark.parametrize("noise", [UniformNoise(), GaussianNoise()])
def test_stats_replay_catches_one_wrong_lane_byte(monkeypatch, small_records,
                                                  noise):
    # the replay draws each mask on the record's own noise stream, not on
    # the lane tape, so one wrong byte in one lane mask must fail it
    law = comp.noise_from_tape
    calls = []

    def one_wrong_byte(kind, take, count):
        masks = law(kind, take, count)
        if not calls:
            masks = masks.copy()
            masks[-1, count // 2] ^= 1
        calls.append(count)
        return masks

    monkeypatch.setattr(comp, "noise_from_tape", one_wrong_byte)
    with pytest.raises(AssertionError, match="does not replay"):
        collect_stats(small_records, default_spec("hflip"),
                      YonaConfig(noise=noise), 3, 50)
    assert calls


@pytest.mark.parametrize("shape", [(64, 3, 32, 32), (5, 1, 7, 3)])
def test_mean_abs_deltas_are_each_records_np_mean(shape):
    rng = np.random.default_rng(31)
    pairs = [rng.integers(0, 256, (2,) + shape, dtype=np.uint8),
             np.stack([np.zeros(shape, np.uint8), np.full(shape, 255,
                                                         np.uint8)])]
    for out, clean in pairs + [pair[::-1] for pair in pairs]:
        means = ev._mean_abs_deltas(out, clean)
        assert len(means) == len(out)
        for mean, o, c in zip(means, out, clean):
            expected = np.mean(np.abs(o.astype(np.int16) - c))
            assert mean.hex() == float(expected).hex()


def test_stats_replay_keeps_off_the_lanes():
    # the two mutation tests below patch the composer's lane names; a
    # replay that drew through them would follow a patch and miss it
    assert not {"lane_states", "LaneStream", "lane_tape"} & set(vars(ev))


@pytest.mark.parametrize("noise", [UniformNoise(), GaussianNoise()])
def test_stats_replay_catches_a_lane_seeded_from_another_record(
        monkeypatch, small_records, noise):
    # the replay seeds each sample's own scalar noise stream, so a noise
    # lane seeded with another record's state must fail it
    law = comp.lane_states

    def swapped(seed, first, lanes, role):
        states = law(seed, first, lanes, role)
        if role == NOISE_ROLE:
            states[:, 7] = states[:, 8]
        return states

    monkeypatch.setattr(comp, "lane_states", swapped)
    with pytest.raises(AssertionError, match="^sample 7: .*does not replay"):
        collect_stats(small_records, default_spec("hflip"),
                      YonaConfig(noise=noise), 3, 50)


@pytest.mark.parametrize("noise", [UniformNoise(), GaussianNoise()])
def test_stats_replay_catches_one_wrong_lane_tape_byte(monkeypatch,
                                                       small_records, noise):
    # the top byte of a sample's first u32: a low byte can leave a
    # Gaussian cell as it was, a top byte flip crosses the median
    law = comp.lane_tape

    def flipped(states, nbytes):
        tape = law(states, nbytes).copy()
        tape[-1, 3] ^= 0xFF
        return tape

    monkeypatch.setattr(comp, "lane_tape", flipped)
    with pytest.raises(AssertionError, match="does not replay"):
        collect_stats(small_records, default_spec("hflip"),
                      YonaConfig(noise=noise), 3, 50)


@pytest.mark.parametrize("noise", [UniformNoise(), GaussianNoise()])
def test_stats_replay_names_the_lowest_wrong_sample(monkeypatch,
                                                    small_records, noise):
    # the replay checks one geometry group at a time; a wrong mask in the
    # group composed first must not hide a lower sample's in a later group
    spec, config = default_spec("hflip"), YonaConfig(noise=noise)
    out = np.stack([record.image.array for record in small_records[:50]])
    groups = comp.compose_batch(out, 0, spec, config, 3)
    order = list(dict.fromkeys(groups.tolist()))  # as the composer fills
    first = np.flatnonzero(groups == order[0])
    later = np.flatnonzero(groups == order[1])
    # the group composed first is group 0, the lowest number too, and its
    # last sample comes after the later group's first
    assert order[0] == 0 and later[0] < first[-1]
    law = comp.noise_from_tape
    wrong_rows = [len(first) - 1, 0]  # in the first and the second call

    def wrong_bytes(kind, take, count):
        masks = law(kind, take, count)
        if wrong_rows:
            masks = masks.copy()
            masks[wrong_rows.pop(0), count // 2] ^= 1
        return masks

    monkeypatch.setattr(comp, "noise_from_tape", wrong_bytes)
    with pytest.raises(AssertionError, match=f"^sample {later[0]}: "):
        collect_stats(small_records, spec, config, 3, 50)
    assert not wrong_rows


@pytest.mark.parametrize("config", [None, YonaConfig()])
def test_stats_and_probe_need_one_image_shape(monkeypatch, config):
    # a 1x32x96 record has as many pixels as a 3x32x32 one, but one batch
    # composes one shape: both refuse it before any work
    records = make_records(8, seed=30)
    records[5] = CifarRecord(fine_label=1, image=ImageTensor(
        np.zeros((1, 32, 96), np.uint8)))

    def refuse(*args):
        raise AssertionError("work started before the shape check")

    monkeypatch.setattr(ev, "compose_batch", refuse)
    message = r"^record 5 has image shape \(1, 32, 96\), record 0 has"
    with pytest.raises(ValueError, match=message):
        collect_stats(records, default_spec("hflip"), config, 0, 3)
    with pytest.raises(ValueError, match=message):
        train_linear_probe(records, default_spec("hflip"), config, epochs=1,
                           lr=0.01, momentum=0.9, batch_size=4, seed=0)


@pytest.fixture(scope="module")
def batch_files_300(tmp_path_factory):
    """A 300-record CIFAR-10 and CIFAR-100 batch file, by variant."""
    root = tmp_path_factory.mktemp("batches300")
    records = make_records(300, seed=41)
    coarse = [CifarRecord(fine_label=7 * r.fine_label + k % 3,
                          image=r.image, coarse_label=k % 20)
              for k, r in enumerate(make_records(300, seed=42))]
    paths = {}
    for variant, batch in (("cifar10", records), ("cifar100", coarse)):
        paths[variant] = root / f"{variant}.bin"
        write_cifar(batch, paths[variant], variant)
    return paths


@pytest.mark.parametrize("n_samples", [1, 255, 256, 257, 300, 603])
@pytest.mark.parametrize("config", [None, YonaConfig(),
                                    YonaConfig(noise=GaussianNoise())])
@pytest.mark.parametrize("kind", ["cutout", "hflip"])
@pytest.mark.parametrize("variant", ["cifar10", "cifar100"])
def test_stats_of_a_table_equals_the_stats_of_its_records(
        batch_files_300, variant, kind, config, n_samples):
    # `yona stats` passes the pixel view of the table it read; the records
    # of the same file must give the same report, to the last float bit
    path = batch_files_300[variant]
    args = (default_spec(kind), config, 5, n_samples)
    from_table = collect_stats(table_pixels(read_cifar_table(path, variant)),
                               *args)
    assert from_table == collect_stats(read_cifar(path, variant), *args)


@pytest.mark.parametrize("noise", [UniformNoise(), GaussianNoise()])
@pytest.mark.parametrize("mutation", ["lane_states", "lane_tape"])
def test_stats_replay_catches_lane_mutations_on_a_table(
        monkeypatch, small_batch_file, mutation, noise):
    # the two lane mutations above, on the pixel view `yona stats` passes
    if mutation == "lane_states":
        law = comp.lane_states

        def mutated(seed, first, lanes, role):
            states = law(seed, first, lanes, role)
            if role == NOISE_ROLE:
                states[:, 7] = states[:, 8]
            return states
    else:
        law = comp.lane_tape

        def mutated(states, nbytes):
            tape = law(states, nbytes).copy()
            tape[-1, 3] ^= 0xFF
            return tape

    monkeypatch.setattr(comp, mutation, mutated)
    images = table_pixels(read_cifar_table(small_batch_file, "cifar10"))
    with pytest.raises(AssertionError, match="does not replay"):
        collect_stats(images, default_spec("hflip"),
                      YonaConfig(noise=noise), 3, 50)


# --------------------------------------------------------------------------
# Linear probe

def toy_records(n=20):
    records = []
    for i in range(n):
        value = 0 if i % 2 == 0 else 255
        records.append(CifarRecord(
            fine_label=i % 2,
            image=ImageTensor(np.full((3, 32, 32), value, np.uint8))))
    return records


def test_probe_fits_separable_toy_set():
    model, losses = train_linear_probe(toy_records(), None, None, epochs=10,
                                       lr=0.1, momentum=0.9, batch_size=4,
                                       seed=0)
    preds = evaluate_probe(model, toy_records())
    assert sum(p.correct for p in preds) == len(preds)
    assert losses[-1] < losses[0]


def _probe_of(dim):
    return ev.ProbeModel(np.zeros((2, dim)), np.zeros(2))


def test_evaluate_probe_refuses_mixed_shapes_as_training_does():
    records = [CifarRecord(0, ImageTensor(np.zeros((3, 2, 2), np.uint8))),
               CifarRecord(1, ImageTensor(np.zeros((3, 1, 4), np.uint8)))]
    message = r"record 1 has image shape \(3, 1, 4\), record 0 has \(3, 2, 2\)"
    with pytest.raises(ValueError, match=message):
        train_linear_probe(records, None, None, epochs=1, lr=0.1,
                           momentum=0.0, batch_size=2, seed=0)
    with pytest.raises(ValueError, match=message):
        evaluate_probe(_probe_of(12), records)


def test_evaluate_probe_of_no_records_is_empty():
    assert evaluate_probe(_probe_of(12), []) == []
    assert evaluate_probe(_probe_of(12), iter([])) == []


def test_evaluate_probe_refuses_a_size_the_model_does_not_take():
    records = [CifarRecord(0, ImageTensor(np.zeros((3, 4, 4), np.uint8)))]
    with pytest.raises(ValueError, match="hold 48 values, the model takes 12"):
        evaluate_probe(_probe_of(12), records)


def test_probe_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    epsilon = 1e-4
    for _ in range(20):
        classes = int(rng.integers(2, 5))
        dim = int(rng.integers(5, 25))
        batch = int(rng.integers(2, 6))
        weights = rng.normal(0, 0.5, (classes, dim))
        bias = rng.normal(0, 0.5, classes)
        x = rng.random((batch, dim))
        y = rng.integers(0, classes, batch)
        grad_w, grad_b = probe_gradients(weights, bias, x, y)
        for _ in range(12):  # sampled coordinates of the weight matrix
            i = int(rng.integers(0, classes))
            j = int(rng.integers(0, dim))
            bumped = weights.copy()
            bumped[i, j] += epsilon
            up = probe_loss(bumped, bias, x, y)
            bumped[i, j] -= 2 * epsilon
            down = probe_loss(bumped, bias, x, y)
            numeric = (up - down) / (2 * epsilon)
            denom = max(1.0, abs(numeric), abs(grad_w[i, j]))
            assert abs(grad_w[i, j] - numeric) / denom < 1e-4
        for i in range(classes):
            bumped = bias.copy()
            bumped[i] += epsilon
            up = probe_loss(weights, bumped, x, y)
            bumped[i] -= 2 * epsilon
            down = probe_loss(weights, bumped, x, y)
            numeric = (up - down) / (2 * epsilon)
            denom = max(1.0, abs(numeric), abs(grad_b[i]))
            assert abs(grad_b[i] - numeric) / denom < 1e-4


def test_probe_loss_decreases_on_synthetic_records():
    records = make_records(120, seed=21)
    _, losses = train_linear_probe(records, None, None, epochs=5, lr=0.01,
                                   momentum=0.9, batch_size=30, seed=1)
    assert losses[-1] < losses[0]
    assert all(np.isfinite(losses))
    assert all(loss >= 0.0 for loss in losses)


def test_probe_training_with_composition_runs():
    records = make_records(40, seed=22)
    model, losses = train_linear_probe(
        records, default_spec("hflip"), YonaConfig(), epochs=3, lr=0.01,
        momentum=0.9, batch_size=10, seed=2)
    assert len(losses) == 4
    assert model.input_dim == 3072


def test_probe_identity_with_composition_still_masks():
    # a None/identity augmentation must not bypass the compositor
    records = make_records(30, seed=24)
    _, plain = train_linear_probe(records, None, None, epochs=2, lr=0.01,
                                  momentum=0.9, batch_size=10, seed=4)
    _, composed = train_linear_probe(records, None, YonaConfig(), epochs=2,
                                     lr=0.01, momentum=0.9, batch_size=10,
                                     seed=4)
    assert plain != composed


def test_probe_feeds_a_no_op_augmentation_the_clean_features():
    # hflip at p 0 is recomposed every epoch, identity feeds the clean
    # features: both must train bit for bit alike
    records = make_records(30, seed=25)
    runs = [train_linear_probe(records, spec, None, epochs=2, lr=0.01,
                               momentum=0.9, batch_size=10, seed=5)
            for spec in (default_spec("hflip", apply_probability=0.0), None)]
    (m1, l1), (m2, l2) = runs
    assert l1 == l2
    assert np.array_equal(m1.weights, m2.weights)


def test_probe_training_replays():
    records = make_records(30, seed=23)
    m1, l1 = train_linear_probe(records, default_spec("cutout"),
                                YonaConfig(), epochs=2, lr=0.01,
                                momentum=0.9, batch_size=10, seed=3)
    m2, l2 = train_linear_probe(records, default_spec("cutout"),
                                YonaConfig(), epochs=2, lr=0.01,
                                momentum=0.9, batch_size=10, seed=3)
    assert l1 == l2
    assert np.array_equal(m1.weights, m2.weights)


def test_probe_loss_history_is_pinned():
    # recorded before the probe composed each epoch as one batch
    records = make_records(40, seed=26, num_classes=4)
    pinned = {
        "randaug": ["0x1.62e42fefa39efp+0", "0x1.0b5592051c052p+1",
                    "0x1.40ae614c97082p+0", "0x1.3c279a85fbfcap+0"],
        "hflip": ["0x1.62e42fefa39efp+0", "0x1.686b2745dab0ep+0",
                  "0x1.8b82a43f8a328p-3", "0x1.633f119f2591cp-4"],
    }
    for kind, config in (("randaug", YonaConfig()), ("hflip", None)):
        _, losses = train_linear_probe(records, default_spec(kind), config,
                                       epochs=3, lr=0.01, momentum=0.9,
                                       batch_size=10, seed=7)
        assert [loss.hex() for loss in losses] == pinned[kind], kind


def _allocating_probe(records, aug, yona_config, epochs, lr, momentum,
                      batch_size, seed):
    """The SGD loop as it allocated every step: a gathered float batch, a
    fresh gradient, fresh velocities and fresh weights."""
    pixels = np.stack([r.image.array for r in records])
    labels = np.array([r.fine_label for r in records], dtype=np.int64)
    n = len(records)
    clean = pixels.reshape(n, -1) / 255.0
    weights = np.zeros((int(labels.max()) + 1, clean.shape[1]))
    bias = np.zeros(len(weights))
    vel_w, vel_b = np.zeros_like(weights), np.zeros_like(bias)
    shuffle_rng = derive_stream(SeedSpec(seed, 0xB07C4))
    losses = [probe_loss(weights, bias, clean, labels)]
    spec = aug if aug is not None else default_spec("identity")
    for epoch in range(epochs):
        features = clean
        if spec.kind != "identity" or yona_config is not None:
            composed = pixels.copy()
            comp.compose_batch(composed, epoch * n, spec, yona_config, seed)
            features = composed.reshape(n, -1) / 255.0
        order = np.array(shuffle_rng.permutation(n))
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            x, y = features[batch], labels[batch]
            logits = x @ weights.T + bias
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            probs[np.arange(len(y)), y] -= 1.0
            probs /= len(y)
            vel_w = momentum * vel_w + probs.T @ x
            vel_b = momentum * vel_b + probs.sum(axis=0)
            weights = weights - lr * vel_w
            bias = bias - lr * vel_b
        losses.append(probe_loss(weights, bias, clean, labels))
    return weights, bias, losses


@pytest.mark.parametrize("kind, config", [(None, None), ("hflip", None),
                                          ("randaug", YonaConfig())])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("batch_size", [1, 7, 30])
def test_probe_trains_bit_for_bit_as_the_allocating_loop(kind, config,
                                                         momentum,
                                                         batch_size):
    # 30 records: batch size 7 leaves a partial last batch, 30 is one batch
    records = make_records(30, seed=27, num_classes=4)
    aug = default_spec(kind) if kind else None
    args = (records, aug, config, 2, 0.01, momentum, batch_size, 8)
    model, losses = train_linear_probe(*args)
    weights, bias, expected = _allocating_probe(*args)
    assert [loss.hex() for loss in losses] == \
        [loss.hex() for loss in expected]
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.bias, bias)


def test_probe_divergence_raises():
    with pytest.raises(DivergenceError):
        with np.errstate(all="ignore"):
            train_linear_probe(toy_records(), None, None, epochs=5, lr=1e308,
                               momentum=0.9, batch_size=4, seed=0)


def test_probe_divergence_in_the_last_step_raises():
    # one batch per epoch: the only batch loss is finite, the update is not
    with pytest.raises(DivergenceError):
        train_linear_probe(toy_records(), None, None, epochs=1, lr=1e308,
                           momentum=0.9, batch_size=20, seed=0)


@pytest.mark.parametrize("name, value", [
    ("epochs", -1), ("epochs", 2.0), ("epochs", "3"), ("batch_size", 0),
    ("batch_size", -5), ("batch_size", 2.5), ("lr", math.nan),
    ("lr", math.inf), ("momentum", math.nan), ("momentum", -math.inf)])
def test_probe_rejects_bad_hyperparameters(name, value):
    args = dict(epochs=1, lr=0.1, momentum=0.9, batch_size=4, seed=0)
    args[name] = value

    def records():  # checked before any record is read
        raise AssertionError("records consumed")
        yield

    with pytest.raises(ValueError, match=name):
        train_linear_probe(records(), None, None, **args)


def test_identity_probe_allocates_no_composition_buffer(monkeypatch):
    # a uint8 (n, C, H, W) buffer is live during training only when the
    # probe composes
    records = toy_records()
    composed = len(records) * 3 * 32 * 32
    step = ev._probe_step
    live = []

    def spy(*args):  # one batch per epoch: called once per run
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, ev.__file__)])
        live.append(composed in {trace.size for trace in snapshot.traces})
        return step(*args)

    monkeypatch.setattr(ev, "_probe_step", spy)
    tracemalloc.start()
    try:
        for spec in (None, default_spec("hflip")):
            train_linear_probe(records, spec, None, epochs=1, lr=0.1,
                               momentum=0.9, batch_size=20, seed=0)
    finally:
        tracemalloc.stop()
    assert live == [False, True]


def test_probe_holds_one_feature_array(monkeypatch):
    # every probe scales each batch into one (batch_size, dim) buffer, so
    # the clean features are its one (n, dim) float array, composing or not
    records = toy_records()
    features = len(records) * 3 * 32 * 32 * 8
    step = ev._probe_step
    counts = []

    def spy(*args):
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, ev.__file__)])
        counts.append([t.size for t in snapshot.traces].count(features))
        return step(*args)

    monkeypatch.setattr(ev, "_probe_step", spy)
    tracemalloc.start()
    try:
        for spec in (None, default_spec("hflip")):
            train_linear_probe(records, spec, None, epochs=1, lr=0.1,
                               momentum=0.9, batch_size=10, seed=0)
    finally:
        tracemalloc.stop()
    assert counts == [1, 1, 1, 1]


def test_composing_probe_steps_allocate_no_weight_sized_array(monkeypatch):
    # between two steps of one epoch the traced memory never rises by a
    # (classes, dim) array: no gradient, velocity, weights or batch copy
    records = toy_records(40)
    weight_bytes = 2 * 3 * 32 * 32 * 8
    step = ev._probe_step
    rises = []
    last = []

    def spy(*args):
        current, peak = tracemalloc.get_traced_memory()
        if last:
            rises.append(peak - last[-1])
        last.append(current)
        tracemalloc.reset_peak()
        return step(*args)

    monkeypatch.setattr(ev, "_probe_step", spy)
    tracemalloc.start()
    try:
        train_linear_probe(records, default_spec("hflip"), None, epochs=1,
                           lr=0.1, momentum=0.9, batch_size=10, seed=0)
    finally:
        tracemalloc.stop()
    assert len(rises) == 3
    assert max(rises) < weight_bytes, rises


def test_probe_validation():
    with pytest.raises(ValueError):
        train_linear_probe([], None, None, 1, 0.1, 0.9, 4, 0)
    single = [CifarRecord(fine_label=3, image=ImageTensor(
        np.zeros((3, 32, 32), np.uint8)))] * 4
    with pytest.raises(ValueError):
        train_linear_probe(single, None, None, 1, 0.1, 0.9, 2, 0)


# --------------------------------------------------------------------------
# Calibration

def test_calibration_perfect_is_zero():
    preds = [PredictionRecord(1.0, True)] * 30
    assert rms_calibration_error(preds, 15) == 0.0


def test_calibration_maximally_wrong_is_hundred():
    preds = [PredictionRecord(1.0, False)] * 30
    assert rms_calibration_error(preds, 15) == 100.0


def test_calibration_hand_example():
    preds = [PredictionRecord(0.9, True), PredictionRecord(0.9, False),
             PredictionRecord(0.6, True), PredictionRecord(0.6, True)]
    # two equal-count bins: low bin gap 0.6-1.0, high bin gap 0.9-0.5
    assert abs(rms_calibration_error(preds, 2) - 40.0) < 1e-9


def test_calibration_permutation_invariance():
    rng = np.random.default_rng(1)
    preds = [PredictionRecord(float(rng.integers(0, 11)) / 10.0,
                              bool(rng.integers(2)))
             for _ in range(60)]
    reference = rms_calibration_error(preds, 7)
    order = list(range(len(preds)))
    for _ in range(100):
        rng.shuffle(order)
        shuffled = [preds[i] for i in order]
        assert rms_calibration_error(shuffled, 7) == reference


def test_calibration_validation():
    preds = [PredictionRecord(0.5, True)] * 4
    with pytest.raises(ValueError):
        rms_calibration_error(preds, 5)
    with pytest.raises(ValueError):
        rms_calibration_error(preds, 0)
    with pytest.raises(ValueError):
        PredictionRecord(1.2, True)


def test_calibration_uneven_bins():
    preds = [PredictionRecord(c, True)
             for c in np.linspace(0.2, 0.9, 10)]
    value = rms_calibration_error(preds, 3)
    assert value >= 0.0


# --------------------------------------------------------------------------
# Benchmark

def test_benchmark_smoke():
    result = benchmark_throughput(default_spec("identity"), YonaConfig(),
                                  n_iterations=300, seed=0)
    assert result.plain_ns_per_image > 0
    assert result.yona_ns_per_image > 0
    assert np.isfinite(result.ratio) and result.ratio > 0
    assert "ratio=" in result.to_text()


def test_benchmark_rejects_tiny_runs():
    with pytest.raises(ValueError):
        benchmark_throughput(default_spec("hflip"), YonaConfig(),
                             n_iterations=50)


def test_benchmark_repeat_runs_agree():
    spec = default_spec("hflip", apply_probability=1.0)
    first = benchmark_throughput(spec, YonaConfig(), n_iterations=3000,
                                 seed=0)
    second = benchmark_throughput(spec, YonaConfig(), n_iterations=3000,
                                  seed=0)
    # paired medians make the ratio robust to machine load drift
    assert abs(first.ratio - second.ratio) / first.ratio < 0.20


def test_stats_coin_convergence_rate(small_records):
    # deviation from the fair-coin mean shrinks like 1/sqrt(n)
    spec = default_spec("identity")
    for n in (100, 1000, 10_000):
        rep = collect_stats(small_records, spec, YonaConfig(), seed=1,
                            n_samples=n)
        bound = 3.0 / np.sqrt(n)
        assert abs(rep.axis_height_frequency - 0.5) < bound, n
        assert abs(rep.piece1_masked_frequency - 0.5) < bound, n
