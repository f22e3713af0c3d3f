"""Desk-scale verification: pipeline statistics, a linear probe trainer,
the RMS calibration error metric, and a throughput benchmark.

The probe is softmax regression over raw pixels scaled to [0, 1].  It is a
deliberately small stand-in whose job is to prove the augmentation pipeline
feeds a learner correct, finite, reproducible batches — not to reproduce any
deep-network accuracy.  Stats and probe compose with `compose_batch`, as
`augment` does; the benchmark times `yona_apply` on long-lived streams.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .augment import AugmentationSpec, apply_augmentation
from .compositor import YonaConfig, compose_batch, yona_apply
from .errors import DivergenceError, ReplayMismatch
from .image import ImageTensor, check_pixels, noise_from_tape
from .rng import NOISE_ROLE, SeedSpec, derive_stream, stream_tapes


# --------------------------------------------------------------------------
# Pipeline statistics

# samples composed per `compose_batch` call: at 1,024 rather than 256 the
# stats-gauss benchmark workload's peak RSS read 96.6 MiB, not 76.1 (2 vCPU,
# numpy 2.4), over its 10% bound
_STATS_CHUNK = 256


@dataclass
class StatsReport:
    masked_fraction_mean: float
    axis_height_frequency: float
    piece1_masked_frequency: float
    mean_abs_pixel_delta: float
    sample_count: int

    def to_text(self) -> str:
        return (f"sample_count={self.sample_count}\n"
                f"masked_fraction_mean={self.masked_fraction_mean:.6f}\n"
                f"axis_height_frequency={self.axis_height_frequency:.6f}\n"
                f"piece1_masked_frequency={self.piece1_masked_frequency:.6f}\n"
                f"mean_abs_pixel_delta={self.mean_abs_pixel_delta:.6f}\n")


def _stack(records: list) -> np.ndarray:
    """The images of ``records`` as one (N, C, H, W) array; ValueError names
    the first record whose shape is not record 0's."""
    for i, record in enumerate(records):
        if record.image.shape != records[0].image.shape:
            raise ValueError(f"record {i} has image shape {record.image.shape}"
                             f", record 0 has {records[0].image.shape}")
    return np.stack([r.image.array for r in records])


def _mean_abs_deltas(out: np.ndarray, clean: np.ndarray) -> list[float]:
    """Each row's mean absolute byte difference, bit for bit the np.mean of
    its int16 difference: ``|out - clean|`` in uint8 and exact integer row
    sums, in uint32 while an image has fewer than 2**24 bytes."""
    delta = np.maximum(out, clean)
    delta -= np.minimum(out, clean)
    size = delta[0].size
    return (delta.reshape(len(delta), -1).sum(
        axis=1, dtype=np.uint32 if size < 2**24 else np.int64) / size).tolist()


def collect_stats(images, aug: AugmentationSpec,
                  yona_config: YonaConfig | None, seed: int,
                  n_samples: int) -> StatsReport:
    """Compose samples ``0 .. n_samples - 1`` (sample ``i`` is image ``i mod
    N``) with `compose_batch` and tally the coin outcomes.  ``images`` is
    an (N, C, H, W) uint8 array (`check_pixels`), such as
    `dataset.table_pixels` of a table, or a list of records of one image
    shape, stacked once.  Each chunk of samples is one gather of its
    images.  The masked fraction is verified independently of the lanes:
    each geometry group of a chunk replays its masks with one
    `noise_from_tape` call over `stream_tapes` of its samples' noise
    streams, and a `ReplayMismatch` (an AssertionError) names the lowest
    sample whose mask differs.  The replay shares the noise law
    and the tape assembler (`rng._tapes`) with the composition; the one
    difference is where the block seeds come from: scalar Python ints here
    (a one-block tape is seeded from each sample's first noise word, with
    no stream object, a longer one from its own `image_stream`),
    `lane_states` and a `LaneStream` there.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not isinstance(images, np.ndarray):  # records, stacked once
        images = list(images)
        if images:
            images = _stack(images)
    if not len(images):
        raise ValueError("collect_stats needs at least one record")
    check_pixels(images, batch=True)
    if yona_config is not None:
        entries, _ = yona_config._geometry(images.shape[1:])
    height_hits = first_hits = 0
    masked_total = delta_total = 0.0
    for start in range(0, n_samples, _STATS_CHUNK):
        clean = images[np.arange(start, min(start + _STATS_CHUNK, n_samples))
                       % len(images)]
        out = clean.copy()
        groups = compose_batch(out, start, aug, yona_config, seed)
        if yona_config is not None:
            height_hits += int(np.count_nonzero(groups >> 1))
            first_hits += int(np.count_nonzero(groups & 1))
            wrong = []
            # groups by first sample, as `compose_batch` fills them (a first
            # np.unique call maps ~0.8 MiB more RSS, for its sort code)
            for g in dict.fromkeys(groups.tolist()):
                sel = np.flatnonzero(groups == g)
                masked_bytes, _, _, mask_slice, _, _ = entries[g]
                # independent check: each mask replays from its sample's
                # own noise stream
                replay = noise_from_tape(
                    yona_config.noise, lambda size: stream_tapes(
                        seed, (start + sel).tolist(), NOISE_ROLE, size),
                    masked_bytes)
                wrong += sel[(out[(sel,) + mask_slice].reshape(len(sel), -1)
                              != replay).any(axis=1)].tolist()
            if wrong:
                raise ReplayMismatch(
                    f"sample {start + min(wrong)}: masked region does not "
                    f"replay from the noise stream")
            for g in groups.tolist():
                masked_total += entries[g][0] / clean[0].size
        for mean in _mean_abs_deltas(out, clean):
            delta_total += mean
    return StatsReport(masked_total / n_samples, height_hits / n_samples,
                       first_hits / n_samples, delta_total / n_samples,
                       n_samples)


# --------------------------------------------------------------------------
# Linear probe

@dataclass
class ProbeModel:
    """Softmax regression: logits = pixels/255 @ weights.T + bias."""

    weights: np.ndarray  # (num_classes, input_dim)
    bias: np.ndarray     # (num_classes,)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _softmax(features @ self.weights.T + self.bias)


@dataclass(frozen=True)
class PredictionRecord:
    """One scored prediction: max-softmax confidence plus correctness."""

    confidence: float
    correct: bool

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be in [0, 1], got {self.confidence}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def probe_loss(weights: np.ndarray, bias: np.ndarray, features: np.ndarray,
               labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of a batch."""
    return _cross_entropy(features @ weights.T + bias, labels)


def _probe_step(weights: np.ndarray, bias: np.ndarray, features: np.ndarray,
                labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`probe_loss` and :func:`probe_gradients` of a batch from one
    logits product."""
    logits = features @ weights.T + bias
    probs = _softmax(logits)
    probs[np.arange(len(labels)), labels] -= 1.0
    probs /= len(labels)
    return (_cross_entropy(logits, labels), probs.T @ features,
            probs.sum(axis=0))


def probe_gradients(weights: np.ndarray, bias: np.ndarray,
                    features: np.ndarray, labels: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`probe_loss` w.r.t. weights and bias."""
    return _probe_step(weights, bias, features, labels)[1:]


def train_linear_probe(train_records, aug: AugmentationSpec | None,
                       yona_config: YonaConfig | None, epochs: int,
                       lr: float, momentum: float, batch_size: int,
                       seed: int) -> tuple[ProbeModel, list[float]]:
    """Mini-batch SGD with momentum on softmax cross-entropy.

    The augmentation (plain or composited) is re-applied fresh to every
    image on every epoch, as one `compose_batch` of records ``e * n ..
    e * n + n - 1`` in epoch ``e`` (of one image shape).  Returns the model
    plus the loss history: entry 0 is the pre-training loss and entry e the
    loss after epoch e, both measured on the un-augmented training set.
    Raises ValueError before any work for ``batch_size < 1`` or a
    non-finite ``lr`` or ``momentum``, and DivergenceError if any batch or
    epoch produces a non-finite loss.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for name, value in (("lr", lr), ("momentum", momentum)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    records = list(train_records)
    if not records:
        raise ValueError("training needs at least one record")
    pixels = _stack(records)
    labels = np.array([r.fine_label for r in records], dtype=np.int64)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("training needs at least two classes present")
    num_classes = int(classes.max()) + 1
    n = len(records)
    clean = pixels.reshape(n, -1) / 255.0
    dim = clean.shape[1]

    weights = np.zeros((num_classes, dim))
    bias = np.zeros(num_classes)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    shuffle_rng = derive_stream(SeedSpec(seed, 0xB07C4))

    losses = [probe_loss(weights, bias, clean, labels)]
    spec = aug if aug is not None else AugmentationSpec(kind="identity")
    # plain identity feeds the clean features every epoch
    fresh = spec.kind != "identity" or yona_config is not None
    if fresh:
        epoch_features = np.empty_like(clean)
        composed = np.empty_like(pixels)
    else:
        epoch_features = clean
    for epoch in range(epochs):
        if fresh:
            np.copyto(composed, pixels)
            compose_batch(composed, epoch * n, spec, yona_config, seed)
            np.divide(composed.reshape(n, -1), 255.0, out=epoch_features)
        order = np.array(shuffle_rng.permutation(n))
        # a non-finite loss raises DivergenceError, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                batch = order[start:start + batch_size]
                x, y = epoch_features[batch], labels[batch]
                loss, grad_w, grad_b = _probe_step(weights, bias, x, y)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss in epoch {epoch}, batch starting "
                        f"at {start}")
                vel_w = momentum * vel_w + grad_w
                vel_b = momentum * vel_b + grad_b
                weights = weights - lr * vel_w
                bias = bias - lr * vel_b
            loss = probe_loss(weights, bias, clean, labels)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss after epoch {epoch}")
        losses.append(loss)
    return ProbeModel(weights=weights, bias=bias), losses


def evaluate_probe(model: ProbeModel, records) -> list[PredictionRecord]:
    """Score records into (confidence, correct) prediction pairs, none for
    no records.

    Records of mixed image shapes raise the ValueError of
    `train_linear_probe`, and images whose size is not ``model.input_dim``
    raise a ValueError naming both sizes.
    """
    records = list(records)
    if not records:
        return []
    features = _stack(records).reshape(len(records), -1) / 255.0
    if features.shape[1] != model.input_dim:
        raise ValueError(f"record images hold {features.shape[1]} values, "
                         f"the model takes {model.input_dim}")
    labels = np.array([r.fine_label for r in records])
    probs = model.predict_proba(features)
    predicted = probs.argmax(axis=1)
    confidence = probs.max(axis=1)
    return [PredictionRecord(float(c), bool(p == t))
            for c, p, t in zip(confidence, predicted, labels)]


# --------------------------------------------------------------------------
# Calibration

def rms_calibration_error(predictions, num_bins: int = 15) -> float:
    """Root-mean-square gap between per-bin confidence and accuracy, on the
    percent scale.

    Bins are adaptive (equal count).  Predictions are ordered by
    (confidence, correctness) before binning so the result is invariant
    under permutation of the input, including ties.
    """
    preds = list(predictions)
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    if len(preds) < num_bins:
        raise ValueError(
            f"need at least num_bins={num_bins} predictions, got {len(preds)}")
    preds.sort(key=lambda p: (p.confidence, p.correct))
    n = len(preds)
    conf = np.array([p.confidence for p in preds])
    correct = np.array([p.correct for p in preds], dtype=np.float64)
    total = 0.0
    for b in range(num_bins):
        lo = (b * n) // num_bins
        hi = ((b + 1) * n) // num_bins
        gap = conf[lo:hi].mean() - correct[lo:hi].mean()
        total += (hi - lo) * gap * gap
    return float(np.sqrt(total / n)) * 100.0


# --------------------------------------------------------------------------
# Throughput benchmark

@dataclass
class BenchmarkResult:
    plain_ns_per_image: float
    yona_ns_per_image: float
    ratio: float

    def to_text(self) -> str:
        return (f"plain_ns_per_image={self.plain_ns_per_image:.0f}\n"
                f"yona_ns_per_image={self.yona_ns_per_image:.0f}\n"
                f"ratio={self.ratio:.3f}\n")


def benchmark_throughput(aug: AugmentationSpec, yona_config: YonaConfig,
                         image_dims: tuple[int, int, int] = (3, 32, 32),
                         n_iterations: int = 10_000,
                         seed: int = 0) -> BenchmarkResult:
    """Median per-image latency of the bare augmentation vs the composited
    pipeline wrapping it, on one in-memory image.

    The two operations are timed interleaved (one of each per iteration) so
    clock-speed drift hits both sides equally, and the ratio comes from
    paired medians.  Warm-up iterations (10% of the run, at least 100) are
    excluded.  Streams are long-lived across iterations, so the numbers
    measure the operations themselves, not stream derivation.
    """
    if n_iterations < 100:
        raise ValueError(
            f"n_iterations must be >= 100, got {n_iterations}")
    c, h, w = image_dims
    pixels = derive_stream(SeedSpec(seed, 0xBE7C)).fill_bytes(c * h * w)
    image = ImageTensor(pixels.reshape(c, h, w).copy())
    warmup = max(100, n_iterations // 10)

    plain_rng = derive_stream(SeedSpec(seed, 1))
    structure = derive_stream(SeedSpec(seed, 2))
    augment = derive_stream(SeedSpec(seed, 3))
    noise = derive_stream(SeedSpec(seed, 4))

    for _ in range(warmup):
        apply_augmentation(aug, image, plain_rng)
        yona_apply(image, aug, yona_config, structure, augment, noise)

    plain_samples = np.empty(n_iterations)
    yona_samples = np.empty(n_iterations)
    clock = time.perf_counter_ns
    for i in range(n_iterations):
        t0 = clock()
        apply_augmentation(aug, image, plain_rng)
        t1 = clock()
        yona_apply(image, aug, yona_config, structure, augment, noise)
        t2 = clock()
        plain_samples[i] = t1 - t0
        yona_samples[i] = t2 - t1

    plain_ns = float(np.median(plain_samples))
    yona_ns = float(np.median(yona_samples))
    return BenchmarkResult(plain_ns_per_image=plain_ns,
                           yona_ns_per_image=yona_ns,
                           ratio=yona_ns / plain_ns if plain_ns > 0
                           else float("inf"))
