"""Traced run: per-layer numbers from spans around public calls.

Two passes, both made of calls into the public functions of ``dataset``,
``rng``, ``image``, ``augment``, ``compositor`` and ``evalstats``:

* replay -- the workload's work as a sequence of public calls, one span per
  call, alternated with untraced commands.  Its output must equal the
  command's.  Its wall time against the command's is the tracing overhead;
  the part of it no layer span covers is the unattributed time.
* attribution -- per image, the calls the compositor makes internally,
  re-made on identical inputs: a fresh noise stream into ``noise_bytes``
  and a fresh augment stream with the unmasked piece into
  ``apply_augmentation``.  Each image's pieces must equal the composition's
  output, which checks that the inputs really were identical.

Spans are (name, start ns, end ns, parent span id, image index); they stay
in memory and are written out as TSV at the end.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import numpy as np

from yona import (CifarRecord, apply_augmentation, benchmark_throughput,
                  collect_stats, cut_at, derive_image_streams, evaluate_probe,
                  fnv1a_64, read_cifar, train_linear_probe, write_cifar,
                  yona_apply, yona_apply_traced)
from yona.image import noise_bytes
from workloads import (PROBE_BATCH, PROBE_EPOCHS, PROBE_LR, PROBE_MOMENTUM,
                       Session, file_sha256, parse_kv, same_report)

LONGLIVED_ITERATIONS = 2000
DERIVE = "rng.derive_image_streams"

# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = (
    ("dataset.read_cifar.ms", "ms", "lower"),
    ("dataset.fnv1a_64.ms", "ms", "lower"),
    ("dataset.fnv1a_64.ns_per_byte", "ns/B", "lower"),
    ("dataset.write_cifar.ms", "ms", "lower"),
    ("image.to_bytes.us_p50", "us", "lower"),
    ("rng.derive_image_streams.us_p50", "us", "lower"),
    ("rng.derive_image_streams.us_p99", "us", "lower"),
    ("rng.derive_image_streams.calls", "count", "lower"),
    ("rng.derive_image_streams.ms", "ms", "lower"),
    ("image.noise_bytes.us_p50", "us", "lower"),
    ("image.noise_bytes.us_p99", "us", "lower"),
    ("image.noise_bytes.bytes_per_call", "B", "lower"),
    ("image.noise_bytes.ms", "ms", "lower"),
    ("augment.apply_augmentation.us_p50", "us", "lower"),
    ("augment.apply_augmentation.us_p99", "us", "lower"),
    ("augment.apply_augmentation.noop_share", "ratio", "higher"),
    ("augment.apply_augmentation.ms", "ms", "lower"),
    ("compositor.yona_apply.us_p50", "us", "lower"),
    ("compositor.yona_apply.us_p99", "us", "lower"),
    ("compositor.yona_apply.longlived_us_p50", "us", "lower"),
    ("compositor.yona_apply_traced.us_p50", "us", "lower"),
    ("compositor.yona_apply_traced.us_p99", "us", "lower"),
    ("compositor.self_us_p50", "us", "lower"),
    ("compositor.self.ms", "ms", "lower"),
    ("evalstats.collect_stats.ms", "ms", "lower"),
    ("evalstats.train_linear_probe.ms", "ms", "lower"),
    ("evalstats.train_linear_probe.clean_ms", "ms", "lower"),
    ("evalstats.train_linear_probe.feed_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
)


class Tracer:
    """In-memory spans of one pass; span 0 is the pass's root."""

    def __init__(self, root: str):
        self.spans = [[root, time.perf_counter_ns(), 0, -1, -1]]

    def call(self, name, request, fn, *args):
        """``fn(*args)`` inside a span that is a child of the root."""
        start = time.perf_counter_ns()
        result = fn(*args)
        self.spans.append((name, start, time.perf_counter_ns(), 0, request))
        return result

    def close(self) -> None:
        self.spans[0][2] = time.perf_counter_ns()

    def wall_ns(self) -> int:
        return self.spans[0][2] - self.spans[0][1]

    def durations(self, name: str) -> np.ndarray:
        """Nanoseconds of every span named ``name``, in call order."""
        return np.array([end - start for n, start, end, _, _ in self.spans
                         if n == name], dtype=np.int64)

    def unattributed_ns(self) -> int:
        return self.wall_ns() - sum(end - start for _, start, end, parent, _
                                    in self.spans if parent == 0)


def write_spans(path: Path, tracers) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
        offset = 0
        for tracer in tracers:
            for i, (name, start, end, parent, request) in \
                    enumerate(tracer.spans):
                parent = parent + offset if parent >= 0 else -1
                fh.write(f"{i + offset}\t{name}\t{start}\t{end}\t{parent}\t"
                         f"{request}\n")
            offset += len(tracer.spans)


# --------------------------------------------------------------------------
# Replays: each returns True when its output equals the command's

def _replay_augment(t: Tracer, s: Session) -> bool:
    w = s.w
    records = t.call("dataset.read_cifar", -1, read_cifar, s.input,
                     w.variant)
    emitted, parts = [], []
    for i, record in enumerate(records):
        streams = t.call(DERIVE, i, derive_image_streams, s.seed, i)
        image = t.call("compositor.yona_apply", i, yona_apply, record.image,
                       w.spec, w.config, *streams)
        parts.append(bytes((record.fine_label,)))
        parts.append(t.call("image.to_bytes", i, image.to_bytes))
        emitted.append(CifarRecord(record.fine_label, image,
                                   record.coarse_label))
    t.call("dataset.fnv1a_64", -1, fnv1a_64, b"".join(parts))
    path = s.work / "replay.bin"
    t.call("dataset.write_cifar", -1, write_cifar, emitted, path, w.variant)
    t.close()
    return file_sha256(path) == s.oracle


def _replay_probe(t: Tracer, s: Session) -> bool:
    records = t.call("dataset.read_cifar", -1, read_cifar, s.input,
                     s.w.variant)
    model, losses = t.call(
        "evalstats.train_linear_probe", -1, train_linear_probe, records,
        s.w.spec, s.w.config, PROBE_EPOCHS, PROBE_LR, PROBE_MOMENTUM,
        PROBE_BATCH, s.seed)
    t.call("evalstats.evaluate_probe", -1, evaluate_probe, model, records)
    t.close()
    history = {f"epoch_loss_{e}": repr(loss) for e, loss in enumerate(losses)}
    return same_report(history, s.reference)


def _replay_stats(t: Tracer, s: Session) -> bool:
    records = t.call("dataset.read_cifar", -1, read_cifar, s.input,
                     s.w.variant)
    report = t.call("evalstats.collect_stats", -1, collect_stats, records,
                    s.w.spec, s.w.config, s.seed, s.w.images)
    t.close()
    return same_report(parse_kv(report.to_text()), s.reference)


REPLAYS = {"augment": _replay_augment, "probe": _replay_probe,
           "stats": _replay_stats}


# --------------------------------------------------------------------------
# Attribution

def attribute(t: Tracer, s: Session) -> tuple[int, int, int]:
    """Per-image layer calls on identical inputs; returns (images whose
    pieces differ from the composition, augmentations that were no-ops,
    noise bytes drawn)."""
    w = s.w
    records = read_cifar(s.input, w.variant)
    mismatched = noops = noise_total = 0
    for k in range(w.images):
        image = records[k % len(records)].image
        streams = t.call(DERIVE, k, derive_image_streams, s.seed, k)
        if w.command == "stats":
            out, trace = t.call("compositor.yona_apply_traced", k,
                                yona_apply_traced, image, w.spec, w.config,
                                *streams)
            # collect_stats derives the streams again to replay the noise
            _, augment, noise = t.call(DERIVE, k, derive_image_streams,
                                       s.seed, k)
        else:
            # an untimed traced twin gives the geometry and cross-checks
            # the fused path
            fresh = [stream.clone() for stream in streams]
            augment, noise = streams[1].clone(), streams[2].clone()
            out = t.call("compositor.yona_apply", k, yona_apply, image,
                         w.spec, w.config, *streams)
            traced_out, trace = yona_apply_traced(image, w.spec, w.config,
                                                  *fresh)
            mismatched += traced_out != out
        tape = t.call("image.noise_bytes", k, noise_bytes, w.config.noise,
                      trace.masked_byte_count, noise)
        first, second = cut_at(image, trace.axis, trace.boundary)
        kept = (second if trace.masked_first else first).image.copy()
        augmented = t.call("augment.apply_augmentation", k,
                           apply_augmentation, w.spec, kept, augment)
        first, second = cut_at(out, trace.axis, trace.boundary)
        masked, composed = (first, second) if trace.masked_first \
            else (second, first)
        mismatched += not (
            np.array_equal(masked.image.array.reshape(-1), tape)
            and composed.image == augmented)
        noops += augmented == kept
        noise_total += tape.size
    if w.command == "probe":
        t.call("evalstats.train_linear_probe.clean", -1, train_linear_probe,
               records, None, None, PROBE_EPOCHS, PROBE_LR, PROBE_MOMENTUM,
               PROBE_BATCH, s.seed)
    t.close()
    return mismatched, noops, noise_total


# --------------------------------------------------------------------------
# Traced measurement

def _us(ns: np.ndarray, q: float) -> float:
    return float(np.percentile(ns, q)) / 1e3 if ns.size else 0.0


def _ms(ns) -> float:
    return float(np.sum(ns)) / 1e6


def measure_traced(s: Session, seconds: float, spans_path: Path
                   ) -> tuple[dict, list]:
    """Alternate untraced commands with traced replays for ``seconds``
    (at least one of each), then attribute once."""
    w = s.w
    s.setup(repeats=1)
    s.command()  # warm-up, and the reference the replay must match
    untraced, replays = [], []
    started = time.perf_counter()
    while not replays or time.perf_counter() - started < seconds:
        wall, ok = s.command()
        if ok:
            untraced.append(wall)
        gc.collect()  # as before each command
        tracer = Tracer("replay")
        s.record(REPLAYS[w.command](tracer, s),
                 "replay output differs from the command's")
        replays.append(tracer)

    attribution = Tracer("attribution")
    mismatched, noops, noise_total = attribute(attribution, s)
    s.record(mismatched == 0, f"{mismatched} images whose layer calls do "
             f"not reproduce the composition")
    longlived = benchmark_throughput(w.spec, w.config,
                                     n_iterations=LONGLIVED_ITERATIONS,
                                     seed=s.seed)
    write_spans(spans_path, [replays[-1], attribution])

    def replay_ms(name):
        return statistics.median(_ms(r.durations(name)) for r in replays)

    traced_s = statistics.median(r.wall_ns() for r in replays) / 1e9
    untraced_s = statistics.median(untraced) if untraced else traced_s
    a = attribution.durations
    derive = a(DERIVE)
    noise = a("image.noise_bytes")
    augment = a("augment.apply_augmentation")
    compose = np.concatenate([a("compositor.yona_apply"),
                              a("compositor.yona_apply_traced")])
    self_ns = compose - noise - augment
    fnv_ms = replay_ms("dataset.fnv1a_64")
    train_ms = replay_ms("evalstats.train_linear_probe")
    clean_ms = _ms(a("evalstats.train_linear_probe.clean"))
    values = {
        "dataset.read_cifar.ms": replay_ms("dataset.read_cifar"),
        "dataset.fnv1a_64.ms": fnv_ms,
        "dataset.fnv1a_64.ns_per_byte":
            fnv_ms * 1e6 / (w.records * w.record_bytes())
            if fnv_ms else 0.0,
        "dataset.write_cifar.ms": replay_ms("dataset.write_cifar"),
        "image.to_bytes.us_p50": _us(np.concatenate(
            [r.durations("image.to_bytes") for r in replays]), 50),
        "rng.derive_image_streams.us_p50": _us(derive, 50),
        "rng.derive_image_streams.us_p99": _us(derive, 99),
        "rng.derive_image_streams.calls": int(derive.size),
        "rng.derive_image_streams.ms": _ms(derive),
        "image.noise_bytes.us_p50": _us(noise, 50),
        "image.noise_bytes.us_p99": _us(noise, 99),
        "image.noise_bytes.bytes_per_call": noise_total / noise.size,
        "image.noise_bytes.ms": _ms(noise),
        "augment.apply_augmentation.us_p50": _us(augment, 50),
        "augment.apply_augmentation.us_p99": _us(augment, 99),
        "augment.apply_augmentation.noop_share": noops / w.images,
        "augment.apply_augmentation.ms": _ms(augment),
        "compositor.yona_apply.us_p50": _us(a("compositor.yona_apply"), 50),
        "compositor.yona_apply.us_p99": _us(a("compositor.yona_apply"), 99),
        "compositor.yona_apply.longlived_us_p50":
            longlived.yona_ns_per_image / 1e3,
        "compositor.yona_apply_traced.us_p50":
            _us(a("compositor.yona_apply_traced"), 50),
        "compositor.yona_apply_traced.us_p99":
            _us(a("compositor.yona_apply_traced"), 99),
        "compositor.self_us_p50": _us(self_ns, 50),
        "compositor.self.ms": _ms(self_ns),
        "evalstats.collect_stats.ms": replay_ms("evalstats.collect_stats"),
        "evalstats.train_linear_probe.ms": train_ms,
        "evalstats.train_linear_probe.clean_ms": clean_ms,
        "evalstats.train_linear_probe.feed_share":
            (train_ms - clean_ms) / train_ms if train_ms else 0.0,
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "trace.unattributed_ms":
            statistics.median(r.unattributed_ns() for r in replays) / 1e6,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    notes = [f"{len(replays)} traced replays against {len(untraced)} "
             f"untraced commands: {traced_s:.3f} s vs {untraced_s:.3f} s",
             f"attribution over {w.images} images; spans in {spans_path}",
             f"error_rate = {s.failed}/{s.attempted} checked runs"]
    return metrics, notes
