"""Shared fixtures: synthetic CIFAR-layout datasets and image helpers.

No real dataset ships with the repository; tests synthesize format-valid
binary batch files.  Pixel content carries a per-class mean pattern plus
noise so the linear probe has genuine signal to learn.
"""

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and take no deadline,
# so a slow machine or a newly drawn example cannot fail the suite
settings.register_profile("yona", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("yona")

from yona.dataset import CifarRecord, write_cifar
from yona.image import ImageTensor


def make_image(rng: np.random.Generator, channels=3, height=32, width=32,
               low=0, high=256) -> ImageTensor:
    return ImageTensor(rng.integers(low, high, (channels, height, width),
                                    dtype=np.uint8))


def make_records(n: int, seed: int, num_classes: int = 10,
                 learnable: bool = True) -> list[CifarRecord]:
    """Synthetic 3x32x32 records; labels in [0, num_classes)."""
    rng = np.random.default_rng(seed)
    bases = rng.integers(30, 226, (num_classes, 3, 32, 32))
    records = []
    for _ in range(n):
        label = int(rng.integers(0, num_classes))
        if learnable:
            pixels = bases[label] + rng.integers(-25, 26, (3, 32, 32))
            pixels = np.clip(pixels, 0, 255).astype(np.uint8)
        else:
            pixels = rng.integers(0, 256, (3, 32, 32), dtype=np.uint8)
        records.append(CifarRecord(fine_label=label,
                                   image=ImageTensor(pixels)))
    return records


@pytest.fixture(scope="session")
def small_records():
    return make_records(60, seed=11)


@pytest.fixture(scope="session")
def small_batch_file(tmp_path_factory, small_records):
    path = tmp_path_factory.mktemp("data") / "small_batch.bin"
    write_cifar(small_records, path, "cifar10")
    return path


@pytest.fixture(scope="session")
def cifar10k_file(tmp_path_factory):
    """A full-size 10,000-record CIFAR-10-layout batch file."""
    path = tmp_path_factory.mktemp("data10k") / "batch_10k.bin"
    rng = np.random.default_rng(2024)
    labels = rng.integers(0, 10, 10_000, dtype=np.uint8)
    pixels = rng.integers(0, 256, (10_000, 3072), dtype=np.uint8)
    table = np.concatenate([labels[:, None], pixels], axis=1)
    path.write_bytes(table.tobytes())
    return path


@pytest.fixture(scope="session")
def probe_records():
    return make_records(1000, seed=5)
