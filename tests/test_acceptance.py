"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured evidence.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
suite is also part of the default ``pytest`` run.
"""

import hashlib
import time

import numpy as np
import pytest

from yona.augment import (PRIMITIVE_OPS, PrimitiveOp, apply_augmentation,
                          apply_primitive, default_spec)
from yona.compositor import YonaConfig, yona_apply, yona_apply_traced
from yona.dataset import read_cifar, write_augmented_dataset
from yona.errors import FormatError
from yona.evalstats import (PredictionRecord, benchmark_throughput,
                            collect_stats, probe_gradients, probe_loss,
                            rms_calibration_error, train_linear_probe)
from yona.image import (Axis, ConstantNoise, ImageTensor, concat, cut_at,
                        round_half_up)
from yona.rng import SeedSpec, derive_image_streams, derive_stream

from conftest import make_image


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS ({detail})")


def test_acceptance_01_structural_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    identity = default_spec("identity")
    cases = 0
    for i in range(1000):
        channels = int(rng.integers(1, 4))
        height = int(rng.integers(2, 48))
        width = int(rng.integers(2, 48))
        img = make_image(rng, channels, height, width, low=1)

        # cut/concat round trip on a random axis and valid boundary
        axis = Axis.HEIGHT if rng.integers(2) else Axis.WIDTH
        boundary = int(rng.integers(1, img.extent(axis)))
        piece1, piece2 = cut_at(img, axis, boundary)
        assert concat(piece1, piece2, axis) == img

        # composition preserves shape and zeroes exactly the masked block
        fraction = float(rng.uniform(0.05, 0.95))
        extent = height if rng.integers(2) else width
        k = round_half_up(fraction * extent)
        if not 1 <= k <= extent - 1:
            continue
        axis_policy = "height" if extent is height else "width"
        config = YonaConfig(mask_fraction=fraction, axis_policy=axis_policy,
                            noise=ConstantNoise(0))
        streams = derive_image_streams(55, i)
        out = yona_apply(img, identity, config, *streams)
        assert out.shape == img.shape
        other = width if extent is height else height
        assert int((out.array == 0).sum()) == k * other * channels
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, "structural correctness",
           f"{cases} zero-count cases + 1000 round trips in {elapsed:.1f}s")


def test_acceptance_02_fair_coins(small_records):
    start = time.monotonic()
    rep = collect_stats(small_records, default_spec("hflip"), YonaConfig(),
                        seed=1, n_samples=10_000)
    elapsed = time.monotonic() - start
    assert 0.48 <= rep.axis_height_frequency <= 0.52
    assert 0.48 <= rep.piece1_masked_frequency <= 0.52
    assert elapsed < 5.0
    report(2, "fair coins",
           f"height={rep.axis_height_frequency:.4f} "
           f"piece1={rep.piece1_masked_frequency:.4f} in {elapsed:.1f}s")


def test_acceptance_03_parameter_fidelity():
    for kind in ("hflip", "vflip", "jitter", "erasing", "cutout"):
        assert default_spec(kind).apply_probability == 0.5
    jitter = default_spec("jitter")
    assert jitter.brightness == 0.4
    assert jitter.contrast == 0.4
    assert jitter.saturation == 0.4
    assert jitter.hue == 0.1
    erasing = default_spec("erasing")
    assert erasing.erase_scale == (0.02, 0.4)
    assert erasing.erase_ratio == (0.3, 3.3)
    assert default_spec("cutout").cutout_area_fraction == 0.25
    randaug = default_spec("randaug")
    assert randaug.randaug_num_ops == 2
    assert randaug.randaug_magnitude == 9
    report(3, "parameter fidelity", "all catalogue defaults exact")


def test_acceptance_04_ablation_geometry():
    rng = np.random.default_rng(104)
    identity = default_spec("identity")
    expected = {0.25: 8, 0.5: 16, 0.75: 24}
    for fraction, rows in expected.items():
        for axis_policy, axis in (("height", Axis.HEIGHT),
                                  ("width", Axis.WIDTH)):
            img = make_image(rng, low=1)
            config = YonaConfig(mask_fraction=fraction,
                                axis_policy=axis_policy,
                                noise=ConstantNoise(0))
            streams = derive_image_streams(7, int(fraction * 100))
            out, trace = yona_apply_traced(img, identity, config, *streams)
            assert trace.masked_extent == rows
            assert int((out.array == 0).sum()) == rows * 32 * 3
    report(4, "ablation geometry",
           "fractions 1/4, 1/2, 3/4 mask exactly 8, 16, 24 of 32 on both axes")


def test_acceptance_05_determinism_at_scale(cifar10k_file, tmp_path):
    start = time.monotonic()
    records = read_cifar(cifar10k_file, "cifar10")
    assert len(records) == 10_000
    spec = default_spec("hflip")
    config = YonaConfig()
    run1 = write_augmented_dataset(records, spec, config, 7,
                                   tmp_path / "run1")
    run2 = write_augmented_dataset(records, spec, config, 7,
                                   tmp_path / "run2")
    emitted = (tmp_path / "run1" / "augmented.bin").read_bytes()
    sampled = range(0, len(records), 37)
    for i in sampled:  # each record replays alone from (seed, index)
        image = yona_apply(records[i].image, spec, config,
                           *derive_image_streams(7, i))
        row = emitted[i * 3073:(i + 1) * 3073]
        assert row[0] == records[i].fine_label
        assert row[1:] == image.to_bytes(), i
    elapsed = time.monotonic() - start
    assert run1.digest == run2.digest
    assert run1.digest == "sha256:" + hashlib.sha256(emitted).hexdigest()
    assert elapsed < 60.0
    report(5, "determinism at scale",
           f"2 runs over 10,000 records plus {len(sampled)} replayed alone, "
           f"digest {run1.digest}, {elapsed:.1f}s")


def test_acceptance_06_overhead_ratio():
    start = time.monotonic()
    spec = default_spec("hflip", apply_probability=1.0)
    result = benchmark_throughput(spec, YonaConfig(), image_dims=(3, 32, 32),
                                  n_iterations=10_000, seed=0)
    elapsed = time.monotonic() - start
    assert result.ratio <= 2.0, result.to_text()
    assert elapsed < 30.0
    report(6, "overhead ratio",
           f"plain={result.plain_ns_per_image:.0f}ns "
           f"composited={result.yona_ns_per_image:.0f}ns "
           f"ratio={result.ratio:.2f} in {elapsed:.1f}s")


def test_acceptance_07_involutions_and_locality():
    rng = np.random.default_rng(107)
    flips = [default_spec(kind, apply_probability=1.0)
             for kind in ("hflip", "vflip")]
    cutout = default_spec("cutout", apply_probability=1.0)
    erasing = default_spec("erasing", apply_probability=1.0,
                           erase_scale=(0.05, 0.2), erase_ratio=(0.5, 2.0))
    grid = default_spec("grid", apply_probability=1.0, grid_rows=2,
                        grid_cols=2)
    unused = derive_stream(SeedSpec(107, 0))  # a flip at p 1 draws nothing
    for i in range(1000):
        img = make_image(rng, 3, int(rng.integers(4, 33)),
                         int(rng.integers(4, 33)), low=1)
        for flip in flips:
            assert apply_augmentation(
                flip, apply_augmentation(flip, img, unused), unused) == img
        inverted = apply_primitive(PrimitiveOp("Invert"), img)
        assert apply_primitive(PrimitiveOp("Invert"), inverted) == img

        height, width = img.height, img.width
        seed = 9000 + i

        s = derive_stream(SeedSpec(seed, 1))
        replay = s.clone()
        out = apply_augmentation(cutout, img, s)
        side = max(1, round_half_up(np.sqrt(0.25) * min(height, width)))
        top = replay.next_index(height) - side // 2
        left = replay.next_index(width) - side // 2
        diff = (out.array != img.array).any(axis=0)
        region = np.zeros_like(diff)
        region[max(0, top):top + side, max(0, left):left + side] = True
        assert not diff[~region].any()

        s = derive_stream(SeedSpec(seed, 2))
        out = apply_augmentation(erasing, img, s)
        if out != img:
            diff = (out.array != img.array).any(axis=0)
            rows = np.nonzero(diff.any(axis=1))[0]
            cols = np.nonzero(diff.any(axis=0))[0]
            block = out.array[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
            assert np.all(block == 0)

        if i % 10 == 0:  # grid locality, sampled (cells replayed per coin)
            s = derive_stream(SeedSpec(seed, 3))
            replay = s.clone()
            out = apply_augmentation(grid, img, s)
            cell_h, cell_w = height // 2, width // 2
            diff = (out.array != img.array).any(axis=0)
            for row in range(2):
                for col in range(2):
                    fired = replay.next_unit_uniform() < 0.5
                    if fired:
                        replay.next_index(3)
                        replay.next_unit_uniform()
                        continue
                    y1 = (row + 1) * cell_h if row == 0 else height
                    x1 = (col + 1) * cell_w if col == 0 else width
                    cell = diff[row * cell_h:y1, col * cell_w:x1]
                    assert not cell.any()
    report(7, "involutions and locality", "1000 random cases, byte-exact")


def test_acceptance_08_probe_numerics(probe_records):
    start = time.monotonic()
    rng = np.random.default_rng(108)
    epsilon = 1e-4
    checked = 0
    for _ in range(20):
        classes = int(rng.integers(2, 6))
        dim = int(rng.integers(4, 30))
        batch = int(rng.integers(2, 8))
        weights = rng.normal(0, 0.5, (classes, dim))
        bias = rng.normal(0, 0.5, classes)
        x = rng.random((batch, dim))
        y = rng.integers(0, classes, batch)
        grad_w, grad_b = probe_gradients(weights, bias, x, y)
        for _ in range(15):
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
            checked += 1

    _, losses = train_linear_probe(probe_records, None, None, epochs=20,
                                   lr=0.01, momentum=0.9, batch_size=100,
                                   seed=0)
    elapsed = time.monotonic() - start
    assert len(losses) == 21
    assert all(losses[k + 1] < losses[k] for k in range(20)), losses
    assert elapsed < 120.0
    report(8, "probe numerics",
           f"{checked} gradient coordinates within 1e-4; loss "
           f"{losses[0]:.4f} -> {losses[-1]:.4f} strictly decreasing, "
           f"{elapsed:.1f}s")


def test_acceptance_09_calibration_metric():
    preds = [PredictionRecord(0.9, True), PredictionRecord(0.9, False),
             PredictionRecord(0.6, True), PredictionRecord(0.6, True)]
    value = rms_calibration_error(preds, 2)
    assert abs(value - 40.0) < 1e-9

    rng = np.random.default_rng(109)
    mixed = [PredictionRecord(float(rng.integers(0, 11)) / 10.0,
                              bool(rng.integers(2))) for _ in range(80)]
    reference = rms_calibration_error(mixed, 10)
    order = list(range(80))
    for _ in range(100):
        rng.shuffle(order)
        assert rms_calibration_error([mixed[i] for i in order],
                                     10) == reference
    report(9, "calibration metric",
           f"hand example = {value:.10f}; invariant over 100 shuffles")


def test_acceptance_10_ingestion(cifar10k_file, tmp_path):
    assert cifar10k_file.stat().st_size == 10_000 * 3073  # 30,730,000 bytes
    records = read_cifar(cifar10k_file, "cifar10")
    assert len(records) == 10_000
    assert all(0 <= r.fine_label <= 9 for r in records)
    assert all(r.image.shape == (3, 32, 32) for r in records)

    truncated = tmp_path / "truncated.bin"
    blob = cifar10k_file.read_bytes()
    truncated.write_bytes(blob[:5 * 3073 + 1200])
    with pytest.raises(FormatError) as err:
        read_cifar(truncated, "cifar10")
    assert err.value.offset == 5 * 3073

    one_short = tmp_path / "one_short.bin"
    one_short.write_bytes(blob[:3072])
    with pytest.raises(FormatError) as err:
        read_cifar(one_short, "cifar10")
    assert err.value.offset == 0
    report(10, "ingestion",
           "10,000 records parsed; truncation offsets exact")
