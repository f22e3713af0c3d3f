"""Workloads, input synthesis, command runs and output checks.

Each workload is one ``yona`` command run in this process through the
public entry ``yona.cli.main(argv)``, with the default single worker.  The
input is a CIFAR-layout batch synthesised from the workload seed; the
program sees only the file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from yona import (AugmentationSpec, GaussianNoise, YonaConfig, cli,
                  default_spec, derive_image_streams, read_cifar, yona_apply)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PIXELS = 3072
SETUP_REPEATS = 5

# probe hyperparameters, passed as flags so the replay can use the same ones
PROBE_EPOCHS, PROBE_LR, PROBE_MOMENTUM, PROBE_BATCH = 10, 0.01, 0.9, 100


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str             # CIFAR layout of the synthetic input
    records: int             # records in the input file
    classes: int
    flags: tuple[str, ...]   # command and flags, less --dataset/--out/--seed
    images: int              # images one command completes
    spec: AugmentationSpec   # what the flags select, for replays
    config: YonaConfig

    @property
    def command(self) -> str:
        return self.flags[0]

    def record_bytes(self) -> int:
        return PIXELS + (2 if self.variant == "cifar100" else 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        "augment-hflip", "cifar10", 10_000, 10,
        ("augment", "--variant", "cifar10", "--aug", "hflip"),
        images=10_000, spec=default_spec("hflip"), config=YonaConfig()),
    Workload(
        "probe-randaug", "cifar100", 1_000, 100,
        ("probe", "--variant", "cifar100", "--train-count", "1000",
         "--eval-count", "0", "--epochs", str(PROBE_EPOCHS),
         "--lr", str(PROBE_LR), "--momentum", str(PROBE_MOMENTUM),
         "--batch-size", str(PROBE_BATCH), "--aug", "randaug", "--yona",
         "--gate-loss-decrease"),
        images=PROBE_EPOCHS * 1_000, spec=default_spec("randaug"),
        config=YonaConfig()),
    Workload(
        "stats-gauss", "cifar10", 10_000, 10,
        ("stats", "--variant", "cifar10", "--n", "10000", "--aug", "cutout",
         "--noise", "gaussian:127.5,32"),
        images=10_000, spec=default_spec("cutout"),
        config=YonaConfig(noise=GaussianNoise(127.5, 32.0))),
)}


def synthesise(w: Workload, seed: int, path: Path) -> np.ndarray:
    """Write the workload's input batch drawn from ``seed``; returns the
    fine labels.  Pixels are half a per-class template and half noise, so
    the probe has something to learn.  Written in chunks to keep memory
    small next to the command's own."""
    rng = np.random.default_rng(seed)
    templates = rng.integers(0, 256, (w.classes, PIXELS), dtype=np.uint16)
    labels = rng.integers(0, w.classes, w.records, dtype=np.uint8)
    with open(path, "wb") as fh:
        for start in range(0, w.records, 1000):
            chunk = labels[start:start + 1000, None]
            noise = rng.integers(0, 256, (chunk.size, PIXELS),
                                 dtype=np.uint16)
            pixels = ((templates[chunk[:, 0]] + noise) >> 1).astype(np.uint8)
            head = [chunk // 5, chunk] if w.variant == "cifar100" else [chunk]
            fh.write(np.concatenate(head + [pixels], axis=1).tobytes())
    return labels


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import yona; "
                 "print(time.perf_counter() - t, yona.__file__)")


def time_import() -> float:
    """Seconds a fresh interpreter spends in ``import yona``."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, check=True)
    seconds, origin = proc.stdout.split()
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported yona from {origin}, not {SRC}")
    return float(seconds)


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def parse_kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines()
                if "=" in line)


def same_report(expected: dict[str, str], got: dict[str, str]) -> bool:
    """Every expected key is present with the same value; loss values may
    differ only below the printed precision."""
    for key, value in expected.items():
        if key not in got:
            return False
        if key.startswith("epoch_loss_"):
            if abs(float(value) - float(got[key])) > 1e-6:
                return False
        elif value != got[key]:
            return False
    return True


def augment_oracle(w: Workload, seed: int, input_path: Path) -> str:
    """sha256 of the bytes ``augment`` must emit, replayed record by record
    through ``derive_image_streams`` and ``yona_apply``."""
    h = hashlib.sha256()
    for i, record in enumerate(read_cifar(input_path, w.variant)):
        structure, augment, noise = derive_image_streams(seed, i)
        image = yona_apply(record.image, w.spec, w.config, structure,
                           augment, noise)
        h.update(bytes((record.fine_label,)))
        h.update(image.to_bytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """One workload at one seed in a scratch directory of the checkout.
    Counts every command attempted and every one that failed."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.input = work / "input.bin"
        self.out = work / "out"
        self.labels = None
        self.oracle = None       # augment: sha256 of the expected file
        self.reference = None    # probe/stats: first command's report
        self.first_rss_mib = None
        self.attempted = 0
        self.failed = 0

    def argv(self) -> list[str]:
        argv = [self.w.command, "--dataset", str(self.input)]
        if self.w.command == "augment":
            argv += ["--out", str(self.out)]
        return argv + list(self.w.flags[1:]) + ["--seed", str(self.seed)]

    def setup(self, repeats: int = SETUP_REPEATS) -> float:
        """Median over repeats of import time plus input synthesis time."""
        totals = []
        for _ in range(repeats):
            imported = time_import()
            t0 = time.perf_counter()
            self.labels = synthesise(self.w, self.seed, self.input)
            totals.append(imported + time.perf_counter() - t0)
        return statistics.median(totals)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.w.name} seed {self.seed}: {what}",
                  file=sys.stderr)
        return ok

    def command(self) -> tuple[float, bool]:
        """Run the command once; returns (wall seconds, passed)."""
        data = self.out / "augmented.bin"
        data.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = cli.main(self.argv())
            except Exception:  # a crash is a failed command, not a stop
                code = traceback.format_exc()
            wall = time.perf_counter() - t0
        if self.first_rss_mib is None:
            self.first_rss_mib = peak_rss_mib()
        if code != 0:
            return wall, self.record(False, f"exit {code}: "
                                     f"{stderr.getvalue().strip()}")
        return wall, self.record(*self.check(stdout.getvalue(), data))

    def check(self, text: str, data: Path) -> tuple[bool, str]:
        w = self.w
        if w.command == "augment":
            if self.oracle is None:
                self.oracle = augment_oracle(w, self.seed, self.input)
            if not data.is_file() \
                    or data.stat().st_size != w.records * w.record_bytes():
                return False, "augmented.bin missing or of the wrong size"
            table = np.fromfile(data, dtype=np.uint8).reshape(
                w.records, w.record_bytes())
            if not np.array_equal(table[:, 0], self.labels):
                return False, "labels differ from the input's"
            if file_sha256(data) != self.oracle:
                return False, "bytes differ from the per-record replay"
            return True, ""
        report = parse_kv(text)
        if w.command == "probe":
            losses = [k for k in report if k.startswith("epoch_loss_")]
            if len(losses) != PROBE_EPOCHS + 1:
                return False, f"{len(losses)} loss values in the history"
        elif report.get("sample_count") != str(w.images):
            return False, "stats sample_count differs from --n"
        if self.reference is None:
            self.reference = report
        if report != self.reference:
            return False, "report differs from the first repetition"
        return True, ""


def measure_end_to_end(s: Session, seconds: float) -> tuple[dict, list]:
    """Tracing off: commands until ``seconds`` have been measured, at least
    three.  Peak memory is read after the first command, before the
    allocator can reuse buffers freed by earlier repetitions."""
    setup_s = s.setup()
    rates, runs = [], 0
    started = time.perf_counter()
    while runs < 3 or time.perf_counter() - started < seconds:
        wall, ok = s.command()
        runs += 1
        if ok:
            rates.append(s.w.images / wall)
    metrics = {
        "images_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (s.first_rss_mib, "MiB"),
    }
    notes = [f"images_per_s is the median of {len(rates)} commands of "
             f"{s.w.images} images each: "
             + " ".join(f"{r:.1f}" for r in rates),
             f"setup_s is the median of {SETUP_REPEATS} imports plus input "
             f"syntheses",
             f"error_rate = {s.failed}/{s.attempted} commands"]
    return metrics, notes
