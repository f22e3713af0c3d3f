"""Binary ingestion/emission, manifests, digests, and the PNG codec."""

import hashlib
import os
import struct
import threading
import time
import tracemalloc
import types
import zlib

import numpy as np
import pytest

import yona.compositor as comp
import yona.dataset as ds
from yona.augment import default_cifar10_policy, default_spec, parse_policy
from yona.cli import main
from yona.compositor import YonaConfig, yona_apply
from yona.dataset import (CIFAR10, CIFAR100, FNV_OFFSET, CifarRecord,
                          DatasetManifest, describe_augmentation,
                          describe_yona, fnv1a_64, read_cifar, read_png,
                          write_augmented_dataset, write_cifar, write_png)
from yona.errors import CorruptRecordError, FormatError
from yona.image import (ConstantNoise, GaussianNoise, ImageTensor,
                        UniformNoise)
from yona.rng import derive_image_streams

from conftest import make_image, make_records


def test_fnv1a_reference_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


# FNV-1a of 0..n random bytes (default_rng(n)) from FNV_OFFSET, as a
# vectorised implementation computed them independently of the loop
_FNV_PINS = {0: 0xCBF29CE484222325, 1: 0xAF64724C8602EB6E,
             63: 0xB11A82E3268EB892, 64: 0xD6528B4AD9771E1B,
             65: 0x3DD7220D822E0E31, 65535: 0x462F9ADCE53E4E8F,
             65536: 0x14AB4C591EB80BEA, 65537: 0xA59487D6F5761AB3,
             196625: 0x7D7A6F603ABFECA2}


@pytest.mark.parametrize("n", sorted(_FNV_PINS))
def test_fnv1a_matches_scalar_loop(n):
    rng = np.random.default_rng(n)
    data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    assert fnv1a_64(data) == _FNV_PINS[n]
    for data in (data, bytes(n), b"\xff" * n):
        for value in (FNV_OFFSET, 0, 12345, 2**64 - 1):
            expected = fnv1a_64(data, value)
            assert fnv1a_64(bytearray(data), value) == expected
            assert fnv1a_64(memoryview(data), value) == expected
            assert fnv1a_64(np.frombuffer(data, np.uint8), value) == expected


def test_fnv1a_chains_across_splits():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, 131172, dtype=np.uint8).tobytes()
    whole = fnv1a_64(data)
    for cut in (0, 1, 64, 1000, 65535, 65536, 65539, len(data) - 1,
                len(data)):
        assert fnv1a_64(data[cut:], fnv1a_64(data[:cut])) == whole


def test_read_small_batch(small_batch_file, small_records):
    records = read_cifar(small_batch_file, CIFAR10)
    assert len(records) == len(small_records)
    assert all(0 <= r.fine_label <= 9 for r in records)
    assert records[7].image == small_records[7].image
    assert records[7].coarse_label is None
    with pytest.raises(ValueError):  # the images are read-only views
        records[7].image.array[0, 0, 0] = 1


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert read_cifar(path, CIFAR10) == []


def test_truncated_single_record(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)  # one byte short of a record
    with pytest.raises(FormatError) as err:
        read_cifar(path, CIFAR10)
    assert err.value.offset == 0


def test_truncation_offset_mid_file(tmp_path):
    records = make_records(3, seed=1)
    path = tmp_path / "trunc.bin"
    write_cifar(records, path, CIFAR10)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError) as err:
        read_cifar(path, CIFAR10)
    assert err.value.offset == 2 * 3073


def _read_table_as(source, path, blob, monkeypatch, count=None):
    """`read_cifar_table` of the first ``count`` records of ``blob`` written
    to ``path`` as a regular file, a FIFO, or a file that grew after its
    size was read (``fstat`` reads 1,000 bytes)."""
    if source == "fifo":
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as fh:
                fh.write(blob)

        threading.Thread(target=feed, daemon=True).start()
    else:
        path.write_bytes(blob)
    with monkeypatch.context() as patch:
        if source == "grown":
            patch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
                st_size=1000))
        return ds.read_cifar_table(path, CIFAR10, count)


@pytest.mark.parametrize("source", ["fifo", "grown"])
def test_read_cifar_table_same_from_a_file_and_a_stream(tmp_path, source,
                                                         monkeypatch):
    # 100 records: past one 256 KiB read of the stream loop
    path = tmp_path / "batch.bin"
    write_cifar(make_records(100, seed=4), path, CIFAR10)
    blob = path.read_bytes()
    table = _read_table_as("file", tmp_path / "file.bin", blob, monkeypatch)
    other = _read_table_as(source, tmp_path / "other.bin", blob, monkeypatch)
    assert table.shape == (100, 3073) and table.flags.writeable
    assert np.array_equal(other, table) and other.flags.writeable
    assert table.tobytes() == blob
    errors = []
    for where in ("file", source):
        with pytest.raises(FormatError) as err:
            _read_table_as(where, tmp_path / f"short_{where}.bin",
                           blob[:-10], monkeypatch)
        errors.append((err.value.offset, str(err.value).split(": ", 1)[1]))
    assert errors[0] == errors[1] == (99 * 3073, (
        "file length 307290 is not a multiple of the 3073-byte record size"))


@pytest.mark.parametrize("source", ["file", "fifo", "grown"])
@pytest.mark.parametrize("count", [0, 1, 20, 99, 100, 101])
def test_read_cifar_table_holds_its_first_count_records(tmp_path, source,
                                                        count, monkeypatch):
    # 16-record chunks: the records past ``count`` are read through one
    # reused table, and every label of them and the length still checked
    monkeypatch.setattr(comp, "_LANES", 16)
    path = tmp_path / "batch.bin"
    write_cifar(make_records(100, seed=4), path, CIFAR10)
    blob = path.read_bytes()
    table = _read_table_as(source, tmp_path / "in.bin", blob, monkeypatch,
                           count)
    held = min(count, 100)
    assert table.shape == (held, 3073) and table.flags.writeable
    assert table.tobytes() == blob[:held * 3073]
    if source == "file" and held:  # one table of the records it holds
        assert table.base.shape == table.shape
    bad = bytearray(blob)
    bad[99 * 3073] = 10
    for name, faulty in (("label", bad), ("cut", blob[:-10])):
        with pytest.raises(FormatError) as err:
            _read_table_as(source, tmp_path / f"{name}.bin", bytes(faulty),
                           monkeypatch, count)
        assert err.value.offset == 99 * 3073


def test_bad_label_rejected(tmp_path):
    records = make_records(2, seed=2)
    path = tmp_path / "bad.bin"
    write_cifar(records, path, CIFAR10)
    blob = bytearray(path.read_bytes())
    blob[3073] = 10  # second record's label out of range
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptRecordError) as err:
        read_cifar(path, CIFAR10)
    assert err.value.offset == 3073


def test_cifar100_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    records = [CifarRecord(fine_label=int(rng.integers(0, 100)),
                           image=make_image(rng),
                           coarse_label=int(rng.integers(0, 20)))
               for _ in range(5)]
    path = tmp_path / "c100.bin"
    write_cifar(records, path, CIFAR100)
    assert path.stat().st_size == 5 * 3074
    back = read_cifar(path, CIFAR100)
    assert [r.coarse_label for r in back] == [r.coarse_label for r in records]
    assert back[2].image == records[2].image


def test_write_cifar_rejects_other_shapes(tmp_path):
    # 1x32x96 has the 3072 pixel bytes of a record, but not its layout
    records = make_records(3, seed=5)
    records[1] = CifarRecord(fine_label=1, image=make_image(
        np.random.default_rng(5), channels=1, height=32, width=96))
    path = tmp_path / "odd.bin"
    with pytest.raises(FormatError, match=r"record 1 .*\(1, 32, 96\)"):
        write_cifar(records, path, CIFAR10)
    assert not path.exists()


def test_write_cifar_checks_labels_and_keeps_the_old_file(tmp_path,
                                                          monkeypatch):
    # label 300 at record 2 is no byte at all, label 200 a byte that
    # read_cifar rejects: both raise its CorruptRecordError, naming the
    # record and the label, and the file already at the path stays whole
    path = tmp_path / "batch.bin"
    write_cifar(make_records(4, seed=6), path, CIFAR10)
    before = path.read_bytes()
    for label in (300, 200, 10, -1):
        records = make_records(4, seed=7)
        records[2] = CifarRecord(fine_label=label, image=records[2].image)
        with pytest.raises(CorruptRecordError,
                           match=rf"^record 2 has fine label {label}, "
                                 r"valid range is \[0, 9\]$") as err:
            write_cifar(records, path, CIFAR10)
        assert err.value.offset == 2 * 3073
        assert path.read_bytes() == before
    records[2] = CifarRecord(fine_label=2.0, image=records[2].image)
    with pytest.raises(TypeError):  # a label is an int, not a float
        write_cifar(records, path, CIFAR10)
    assert path.read_bytes() == before
    # a write that fails after the checks leaves no partial file either

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_cifar(make_records(9, seed=8), path, CIFAR10)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.bin"]


def test_writers_apply_the_label_rule_of_read_cifar(tmp_path):
    rng = np.random.default_rng(8)
    for variant, coarse, fine, message in (
            (CIFAR10, None, 10, "fine label 10, valid range is [0, 9]"),
            (CIFAR100, 0, 100, "fine label 100, valid range is [0, 99]"),
            (CIFAR100, 20, 5, "coarse label 20, valid range is [0, 19]")):
        records = [CifarRecord(fine_label=1, image=make_image(rng),
                               coarse_label=None if coarse is None else 1)
                   for _ in range(3)]
        records[1] = CifarRecord(fine_label=fine, image=records[1].image,
                                 coarse_label=coarse)
        out_dir = tmp_path / f"{variant}-{fine}"
        for write in (
                lambda: write_cifar(records, tmp_path / "x.bin", variant),
                lambda: write_augmented_dataset(
                    records, default_spec("cutout"), YonaConfig(), 0,
                    out_dir, variant)):
            with pytest.raises(CorruptRecordError) as err:
                write()
            assert str(err.value) == f"record 1 has {message}"
        assert not out_dir.exists() and not (tmp_path / "x.bin").exists()
        # read_cifar raises the same message on the bytes those labels make
        blob = bytearray(3 * (3073 if variant == CIFAR10 else 3074))
        blob[len(blob) // 3:len(blob) // 3 + (1 if coarse is None else 2)] \
            = bytes([fine] if coarse is None else [coarse, fine])
        raw = tmp_path / "raw.bin"
        raw.write_bytes(blob)
        with pytest.raises(CorruptRecordError) as err:
            read_cifar(raw, variant)
        assert str(err.value) == f"{raw}: record 1 has {message}"


def test_cifar100_bad_coarse_label(tmp_path):
    rng = np.random.default_rng(4)
    records = [CifarRecord(fine_label=1, image=make_image(rng),
                           coarse_label=0)]
    path = tmp_path / "c100bad.bin"
    write_cifar(records, path, CIFAR100)
    blob = bytearray(path.read_bytes())
    blob[0] = 20
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptRecordError):
        read_cifar(path, CIFAR100)


def test_cifar100_writers_need_every_coarse_label(tmp_path):
    # a missing coarse label is not coarse label 0
    records = make_records(3, seed=9)
    for i, record in enumerate(records):
        record.coarse_label = None if i == 1 else 4
    path = tmp_path / "batch.bin"
    with pytest.raises(CorruptRecordError,
                       match=r"^record 1 has no coarse label") as err:
        write_cifar(records, path, CIFAR100)
    assert err.value.offset == 3074
    assert not path.exists()
    with pytest.raises(CorruptRecordError, match=r"^record 1 has no coarse"):
        write_augmented_dataset(records, default_spec("hflip"), None, 0,
                                tmp_path / "out", CIFAR100)
    assert not (tmp_path / "out").exists()


def test_emission_picks_the_layout_from_every_record(tmp_path):
    records = make_records(3, seed=10)
    for labels, variant in (((None, None, None), CIFAR10),
                            ((3, 0, 19), CIFAR100)):
        for record, coarse in zip(records, labels):
            record.coarse_label = coarse
        manifest = write_augmented_dataset(records, default_spec("identity"),
                                           None, 0, tmp_path / variant)
        assert manifest.dataset == variant
        back = read_cifar(tmp_path / variant / "augmented.bin", variant)
        assert [(r.coarse_label, r.fine_label) for r in back] == \
            [(r.coarse_label, r.fine_label) for r in records]
    # a mix is neither layout, whichever record comes first
    for labels in ((3, None, 7), (None, 5, None)):
        for record, coarse in zip(records, labels):
            record.coarse_label = coarse
        with pytest.raises(FormatError, match="records 0 and 1 disagree"):
            write_augmented_dataset(records, default_spec("identity"), None,
                                    0, tmp_path / "mixed")
        assert not (tmp_path / "mixed").exists()


def test_unknown_variant_rejected(small_batch_file):
    with pytest.raises(ValueError):
        read_cifar(small_batch_file, "cifar1000")


# --------------------------------------------------------------------------
# Augmented emission

def test_identity_emission_preserves_bytes(tmp_path, small_records,
                                           small_batch_file):
    manifest = write_augmented_dataset(
        small_records, default_spec("identity"), None, 0, tmp_path / "out")
    emitted = (tmp_path / "out" / "augmented.bin").read_bytes()
    original = small_batch_file.read_bytes()
    assert emitted == original
    assert manifest.digest == "sha256:" + hashlib.sha256(original).hexdigest()
    assert manifest.count == len(small_records)
    assert manifest.yona == "off"


def test_emission_replay_and_seed_sensitivity(tmp_path, small_records):
    spec = default_spec("hflip")
    config = YonaConfig()
    a = write_augmented_dataset(small_records, spec, config, 7,
                                tmp_path / "a")
    b = write_augmented_dataset(small_records, spec, config, 7,
                                tmp_path / "b")
    c = write_augmented_dataset(small_records, spec, config, 8,
                                tmp_path / "c")
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert (tmp_path / "a" / "augmented.bin").read_bytes() == \
        (tmp_path / "b" / "augmented.bin").read_bytes()


def test_emission_replays_each_record(tmp_path, small_records):
    # record i depends only on (seed, i): composing it alone, in any order,
    # reproduces its emitted bytes
    spec = default_spec("randaug")
    config = YonaConfig()
    write_augmented_dataset(small_records, spec, config, 3, tmp_path / "r")
    back = read_cifar(tmp_path / "r" / "augmented.bin", CIFAR10)
    assert len(back) == len(small_records)
    for i in reversed(range(len(small_records))):
        expected = yona_apply(small_records[i].image, spec, config,
                              *derive_image_streams(3, i))
        assert back[i].image == expected, i
        assert back[i].fine_label == small_records[i].fine_label


def test_emission_never_touches_labels(tmp_path, small_records):
    write_augmented_dataset(small_records, default_spec("cutout"),
                            YonaConfig(), 5, tmp_path / "labels")
    back = read_cifar(tmp_path / "labels" / "augmented.bin", CIFAR10)
    assert [r.fine_label for r in back] == \
        [r.fine_label for r in small_records]


def _failed_emissions_leave_no_partial_output(tmp_path, records,
                                              break_step, message):
    """Emit into a fresh directory and over an earlier pair after
    ``break_step()`` makes a step raise RuntimeError(``message``)."""
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    earlier = write_augmented_dataset(records, default_spec("hflip"),
                                      YonaConfig(), 1, rerun)
    before = {p.name: p.read_bytes() for p in rerun.iterdir()}
    break_step()
    threads = threading.active_count()
    for out_dir in (fresh, rerun):
        with pytest.raises(RuntimeError, match=message):
            write_augmented_dataset(records, default_spec("vflip"),
                                    YonaConfig(), 2, out_dir)
        assert threading.active_count() == threads  # the helper was joined
    # nothing is left behind, not even the directory the run created, and
    # an earlier pair stays whole
    assert not fresh.exists()
    assert {p.name: p.read_bytes() for p in rerun.iterdir()} == before
    assert DatasetManifest.from_text(before["manifest.txt"].decode()) == \
        earlier


def test_failed_emission_leaves_no_partial_output(tmp_path, small_records,
                                                  monkeypatch):
    # the digest fails on the helper thread that hashes and writes chunk 0,
    # while the caller's thread composes chunk 1
    class Broken:
        def update(self, data):
            raise RuntimeError("digest failed")

    monkeypatch.setattr(comp, "_LANES", 16)
    _failed_emissions_leave_no_partial_output(
        tmp_path, small_records, lambda: monkeypatch.setattr(
            ds, "hashlib", types.SimpleNamespace(sha256=Broken)),
        "digest failed")


def _compose_chunk_0(out, first_index, *args):
    if first_index > 0:
        raise RuntimeError("compose failed")
    return comp.compose_batch(out, first_index, *args)


def test_emission_failing_on_a_later_chunk_leaves_no_partial_output(
        tmp_path, small_records, monkeypatch):
    # composing chunk 1 fails while the helper is still hashing chunk 0
    class SlowDigest:
        def __init__(self):
            self.digest = hashlib.sha256()

        def update(self, data):
            time.sleep(0.1)
            self.digest.update(data)

    def break_step():
        monkeypatch.setattr(ds, "hashlib",
                            types.SimpleNamespace(sha256=SlowDigest))
        monkeypatch.setattr(ds, "compose_batch", _compose_chunk_0)

    monkeypatch.setattr(comp, "_LANES", 16)
    _failed_emissions_leave_no_partial_output(
        tmp_path, small_records, break_step, "compose failed")


def test_emission_failing_in_both_threads_raises_the_callers_error(
        tmp_path, small_records, monkeypatch):
    # the helper's digest of chunk 0 fails, then the compose of chunk 1
    failed = []

    class Broken:
        def update(self, data):
            failed.append(threading.current_thread())
            raise RuntimeError("digest failed")

    def break_step():
        monkeypatch.setattr(ds, "hashlib",
                            types.SimpleNamespace(sha256=Broken))
        monkeypatch.setattr(ds, "compose_batch", _compose_chunk_0)

    monkeypatch.setattr(comp, "_LANES", 16)
    _failed_emissions_leave_no_partial_output(
        tmp_path, small_records, break_step, "compose failed")
    # one failed helper per emission, neither on the caller's thread
    assert len(failed) == 2 and threading.main_thread() not in failed


def test_emission_hashes_every_chunk_on_one_helper_thread(tmp_path,
                                                         monkeypatch):
    # 2,100 records cross two chunk borders at the default chunk size
    hashers = []

    class SpyDigest:
        def __init__(self):
            self.digest = hashlib.sha256()

        def update(self, data):
            hashers.append(threading.current_thread())
            self.digest.update(data)

        def hexdigest(self):
            return self.digest.hexdigest()

    monkeypatch.setattr(ds, "hashlib",
                        types.SimpleNamespace(sha256=SpyDigest))
    table = np.random.default_rng(8).integers(0, 256, (2100, 3073),
                                              dtype=np.uint8)
    table[:, 0] %= 10
    threads = threading.active_count()
    manifest = ds.write_augmented_table(table, CIFAR10, default_spec("hflip"),
                                        YonaConfig(), 3, tmp_path / "out")
    assert threading.active_count() == threads
    assert len(hashers) == -(-2100 // comp._LANES) > 1
    assert len(set(hashers)) == 1
    assert hashers[0] is not threading.main_thread()
    assert manifest.digest == "sha256:" + hashlib.sha256(
        (tmp_path / "out" / "augmented.bin").read_bytes()).hexdigest()


def test_rerun_replaces_the_earlier_pair(tmp_path, small_records):
    out_dir = tmp_path / "out"
    write_augmented_dataset(small_records, default_spec("hflip"),
                            YonaConfig(), 1, out_dir)
    later = write_augmented_dataset(small_records[:7], default_spec("cutout"),
                                    None, 2, out_dir)
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["augmented.bin", "manifest.txt"]
    data = (out_dir / "augmented.bin").read_bytes()
    assert len(data) == 7 * 3073
    assert later.digest == "sha256:" + hashlib.sha256(data).hexdigest()
    assert DatasetManifest.from_text(
        (out_dir / "manifest.txt").read_text()) == later


def test_manifest_text_round_trip(tmp_path, small_records):
    manifest = write_augmented_dataset(
        small_records, default_spec("jitter"),
        YonaConfig(mask_fraction=0.25), 9, tmp_path / "m")
    text = (tmp_path / "m" / "manifest.txt").read_text()
    parsed = DatasetManifest.from_text(text)
    assert parsed == manifest
    assert "fraction:0.25" in parsed.yona
    # splitlines splits on "\r\n": a CRLF copy reads the same
    assert DatasetManifest.from_text(text.replace("\n", "\r\n")) == manifest


def test_manifest_rejects_old_incomplete_and_malformed_text(
        tmp_path, small_records):
    text = write_augmented_dataset(small_records, default_spec("hflip"),
                                   None, 4, tmp_path / "m").to_text()
    assert text.startswith("format=2\nengine=yona-")
    lines = text.splitlines(keepends=True)
    format1 = ("dataset=cifar10\ncount=24\nseed=4\naugmentation=hflip,p:0.5"
               "\nyona=off\ndigest=111be8bb652441c1\n")
    with pytest.raises(FormatError, match="re-emit the dataset"):
        DatasetManifest.from_text(format1)
    for key in ("engine", "rng", "dataset", "count", "seed", "augmentation",
                "yona", "digest"):
        partial = "".join(x for x in lines if not x.startswith(key + "="))
        with pytest.raises(FormatError, match=f"'{key}' is missing"):
            DatasetManifest.from_text(partial)
    bad_values = {"digest": ["111be8bb652441c1", "sha256:" + "0" * 63,
                             "sha256:" + "A" * 64, "fnv1a:" + "0" * 64],
                  "count": ["twelve"], "seed": ["0x10"],
                  "format": ["3"]}
    for key, values in bad_values.items():
        for value in values:
            changed = "".join(f"{key}={value}\n" if x.startswith(key + "=")
                              else x for x in lines)
            with pytest.raises(FormatError, match=f"'{key}'"):
                DatasetManifest.from_text(changed)


def test_manifest_refuses_values_no_run_writes(tmp_path, small_records):
    text = write_augmented_dataset(small_records, default_spec("hflip"),
                                   None, 4, tmp_path / "m").to_text()

    def changed(key, value):
        return "".join(f"{key}={value}\n" if line.startswith(key + "=")
                       else line for line in text.splitlines(keepends=True))

    # int() reads each spelling (U+0665 is an Arabic-Indic five), but
    # to_text would give back other text
    spellings = [(key, value) for key in ("count", "seed")
                 for value in ("+5", "05", "1_0", "\u0665", "-0", " 5",
                               "5 \t")]
    for key, value in (("count", "-3"), ("seed", "-1"),
                       ("seed", str(2**64)), ("dataset", "imagenet"),
                       *spellings):
        with pytest.raises(FormatError, match=f"^manifest key '{key}'"):
            DatasetManifest.from_text(changed(key, value))
    # the bounds themselves parse
    for key, value in (("count", "0"), ("seed", str(2**64 - 1)),
                       ("dataset", "cifar100")):
        assert str(getattr(DatasetManifest.from_text(changed(key, value)),
                           key)) == value


def test_manifest_refuses_a_repeated_or_unknown_key(tmp_path, small_records):
    text = write_augmented_dataset(small_records, default_spec("hflip"),
                                   None, 4, tmp_path / "m").to_text()
    for extra, message in (("count=6\n", "'count' is repeated"),
                           ("format=2\n", "'format' is repeated"),
                           ("colour=red\n", "'colour' is unknown"),
                           ("  count=5 \t\n", "'  count' is unknown"),
                           ("digest\n", "'digest' is repeated"),
                           ("no equals sign\n", "'no equals sign' is "
                                                "unknown")):
        with pytest.raises(FormatError, match=f"^manifest key {message}$"):
            DatasetManifest.from_text(text + extra)
    assert DatasetManifest.from_text(text + "\n\n").to_text() == text


def test_every_pinned_manifest_parses_and_round_trips():
    from emit_corpus import pinned
    texts = {name: "".join(line.removeprefix("manifest ") + "\n"
                           for line in lines if line.startswith("manifest "))
             for name, lines in pinned().items()}
    texts = {name: text for name, text in texts.items() if text}
    assert len(texts) > 20
    for name, text in texts.items():
        manifest = DatasetManifest.from_text(text)
        assert manifest.to_text() == text, name
        assert DatasetManifest.from_text(manifest.to_text()) == manifest


def test_gaussian_manifest_names_its_sampler(tmp_path, small_records):
    manifest = write_augmented_dataset(
        small_records, default_spec("hflip"),
        YonaConfig(noise=GaussianNoise(127.5, 32.0)), 4, tmp_path / "g")
    assert manifest.yona == ("fraction:0.5,axis:random,side:random,"
                             "noise:GaussianNoise:127.5:32:cdf32,region:piece")
    text = manifest.to_text()
    assert DatasetManifest.from_text(text) == manifest
    # an emit of the Box-Muller law named no sampler
    with pytest.raises(FormatError, match="re-emit the dataset with `yona "
                                          "augment`"):
        DatasetManifest.from_text(text.replace(":cdf32", ""))


@pytest.mark.parametrize("noise, line", [
    (UniformNoise(), "noise:UniformNoise"),
    (ConstantNoise(200), "noise:ConstantNoise:200")])
def test_uniform_and_constant_manifests_name_no_sampler(tmp_path,
                                                        small_records, noise,
                                                        line):
    manifest = write_augmented_dataset(
        small_records, default_spec("hflip"), YonaConfig(noise=noise), 4,
        tmp_path / "m")
    assert manifest.yona == ("fraction:0.5,axis:random,side:random,"
                             f"{line},region:piece")
    assert DatasetManifest.from_text(manifest.to_text()) == manifest


def test_custom_policy_tag_is_sha256_of_the_exact_table():
    # two tables one float apart get different tags, each the SHA-256 of
    # the table's exact repr
    tags = []
    for prob in ("0.1", "0.1000001"):
        policy = parse_policy(f"Invert 0.5 0 ; Rotate {prob} 3\n")
        table = repr(policy.sub_policies).encode()
        header = describe_augmentation(default_spec("autoaug", policy=policy))
        tag = "policy:sha256:" + hashlib.sha256(table).hexdigest()
        assert header.split(",")[-1] == tag
        tags.append(tag)
    assert tags[0] != tags[1]


def test_manifest_lines_tell_one_setting_apart():
    # each pair differs in one setting that changes the emitted bytes
    yona_pairs = [
        (YonaConfig(noise=GaussianNoise(10, 5)),
         YonaConfig(noise=GaussianNoise(200, 50))),
        (YonaConfig(noise=ConstantNoise(0)),
         YonaConfig(noise=ConstantNoise(255))),
        (YonaConfig(region_reference="image"),
         YonaConfig(region_reference="piece")),
        (YonaConfig(mask_fraction=0.25), YonaConfig()),
        (YonaConfig(mask_fraction=0.3), YonaConfig(mask_fraction=0.3000001)),
        (YonaConfig(axis_policy="height"), YonaConfig()),
        (YonaConfig(masked_piece_policy="first"), YonaConfig()),
    ]
    for a, b in yona_pairs:
        assert describe_yona(a) != describe_yona(b), (a, b)
    policy = parse_policy("Invert 0.5 0 ; Rotate 0.1 3\n")
    aug_pairs = [
        (default_spec("autoaug"), default_spec("autoaug", policy=policy)),
        (default_spec("jitter", brightness=0.4),
         default_spec("jitter", brightness=0.4000001)),
        (default_spec("autoaug", policy=policy),
         default_spec("autoaug", policy=parse_policy(
             "Invert 0.5 0 ; Rotate 0.1000001 3\n"))),
    ]
    for a, b in aug_pairs:
        assert describe_augmentation(a) != describe_augmentation(b), (a, b)
    # numbers that :g prints exactly keep their short form
    assert describe_augmentation(default_spec("hflip")) == "hflip,p:0.5"
    assert describe_augmentation(default_spec("jitter")) == \
        "jitter,p:0.5,bcsh:0.4/0.4/0.4/0.1"
    assert describe_yona(YonaConfig(mask_fraction=0.25,
                                    noise=ConstantNoise(7))) == \
        ("fraction:0.25,axis:random,side:random,noise:ConstantNoise:7,"
         "region:piece")
    assert "bcsh:0.4000001/0.4/0.4/0.1" in describe_augmentation(
        default_spec("jitter", brightness=0.4000001))
    # the bundled table named explicitly is the same run as the default
    assert describe_augmentation(default_spec("autoaug")) == \
        describe_augmentation(default_spec(
            "autoaug", policy=default_cifar10_policy()))


# --------------------------------------------------------------------------
# PNG codec

def test_png_round_trip_rgb(tmp_path):
    rng = np.random.default_rng(5)
    img = make_image(rng)
    path = tmp_path / "rgb.png"
    write_png(img, path)
    assert read_png(path) == img


def test_png_round_trip_grayscale(tmp_path):
    rng = np.random.default_rng(6)
    img = make_image(rng, channels=1)
    path = tmp_path / "gray.png"
    write_png(img, path)
    back = read_png(path)
    assert back == img
    assert back.channels == 1


@pytest.mark.parametrize("channels", [1, 3])
def test_png_writer_emits_filter_0_scanlines(tmp_path, channels):
    img = make_image(np.random.default_rng(9), channels, 5, 7)
    path = tmp_path / "rows.png"
    write_png(img, path)
    blob = path.read_bytes()
    # the signature, the 25-byte IHDR chunk, then the one IDAT chunk
    length = struct.unpack(">I", blob[33:37])[0]
    assert blob[37:41] == b"IDAT"
    rows = img.array.transpose(1, 2, 0).reshape(5, 7 * channels)
    assert zlib.decompress(blob[41:41 + length]) == b"".join(
        b"\0" + row.tobytes() for row in rows)


def test_png_rejects_four_channels(tmp_path):
    img = ImageTensor(np.zeros((4, 4, 4), dtype=np.uint8))
    with pytest.raises(FormatError):
        write_png(img, tmp_path / "x.png")


def test_png_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.png"
    path.write_bytes(b"not a png at all")
    with pytest.raises(FormatError):
        read_png(path)


def test_png_detects_crc_corruption(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "crc.png"
    write_png(make_image(rng), path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF  # flip a byte inside IDAT
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_png(path)


def _encode_with_filters(img: ImageTensor, filter_types) -> bytes:
    """Independent scanline encoder covering all five standard filters."""
    arr = np.ascontiguousarray(img.array.transpose(1, 2, 0))
    height, width, channels = arr.shape
    stride = width * channels
    flat = arr.reshape(height, stride).astype(np.int32)
    raw = bytearray()
    for y in range(height):
        f = filter_types[y % len(filter_types)]
        raw.append(f)
        row = flat[y]
        prev = flat[y - 1] if y > 0 else np.zeros(stride, dtype=np.int32)
        for x in range(stride):
            left = int(row[x - channels]) if x >= channels else 0
            up = int(prev[x])
            diag = int(prev[x - channels]) if (y > 0 and x >= channels) else 0
            if f == 0:
                value = row[x]
            elif f == 1:
                value = row[x] - left
            elif f == 2:
                value = row[x] - up
            elif f == 3:
                value = row[x] - (left + up) // 2
            else:
                p = left + up - diag
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - diag)
                if pa <= pb and pa <= pc:
                    predictor = left
                elif pb <= pc:
                    predictor = up
                else:
                    predictor = diag
                value = row[x] - predictor
            raw.append(value & 0xFF)
    color_type = 0 if channels == 1 else 2
    header = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (_PNG_SIGNATURE + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
            + _png_chunk(b"IEND", b""))


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag, body):
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def _rgb_png(width, height, raw, ihdr_tail=b"\x08\x02\x00\x00\x00",
             iend=_png_chunk(b"IEND", b"")):
    header = struct.pack(">II", width, height) + ihdr_tail
    return (_PNG_SIGNATURE + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(raw)) + iend)


@pytest.mark.parametrize("blob", [
    pytest.param(_rgb_png(2, 2, bytes(14), ihdr_tail=b"\x08\x02\x00\x00"),
                 id="ihdr-of-12-bytes"),
    pytest.param(_rgb_png(2, 2, bytes(14), iend=_png_chunk(b"IEND", b"")[:8]),
                 id="final-chunk-without-crc"),
    # the header alone would size a 2**60-pixel allocation
    pytest.param(_rgb_png(2**30, 2**30, bytes(14)), id="2^30x2^30"),
    pytest.param(_rgb_png(0, 0, b""), id="0x0"),
    pytest.param(_rgb_png(2, 2, bytes(15)), id="pixel-data-too-long"),
    pytest.param(_PNG_SIGNATURE + _png_chunk(b"IEND", b""), id="no-ihdr"),
    pytest.param(_rgb_png(2, 2, bytes(14), ihdr_tail=b"\x10\x02\0\0\0"),
                 id="depth-16"),
    pytest.param(_rgb_png(2, 2, bytes(14), ihdr_tail=b"\x08\x02\0\0\x01"),
                 id="interlaced"),
    # the signature and IHDR, then an IDAT of 14 bytes that are not zlib
    pytest.param(_rgb_png(2, 2, bytes(14))[:33]
                 + _png_chunk(b"IDAT", bytes(14)) + _png_chunk(b"IEND", b""),
                 id="idat-not-zlib"),
])
def test_png_reader_boundary_is_a_format_error(tmp_path, capsys, blob):
    path = tmp_path / "bad.png"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        read_png(path)
    assert main(["preview", "--image", str(path), "--augs", "hflip",
                 "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error: ") and err.count("\n") == 1
    assert not (tmp_path / "p").exists()


def test_png_unknown_filter_type_is_a_format_error(tmp_path):
    path = tmp_path / "f5.png"
    path.write_bytes(_rgb_png(2, 2, bytes(7) + b"\x05" + bytes(6)))
    with pytest.raises(FormatError, match="unknown PNG filter type 5") as err:
        read_png(path)
    assert err.value.offset == 14  # the end of that row's scanline


def test_png_reader_inflates_no_more_than_its_header_declares(tmp_path):
    # 64 MiB of zeros deflate to ~64 KiB under a header declaring 4 bytes
    deflate = zlib.compressobj()
    idat = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(64)) \
        + deflate.flush()
    path = tmp_path / "long.png"
    path.write_bytes(_PNG_SIGNATURE + _png_chunk(b"IHDR", struct.pack(
        ">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)) + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="does not hold the 4 bytes"):
            read_png(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("filters", [(1,), (2,), (3,), (4,), (0, 1, 2, 3, 4)])
def test_png_decodes_all_filter_types(tmp_path, filters):
    rng = np.random.default_rng(sum(filters) + 8)
    img = make_image(rng, 3, 13, 11)
    path = tmp_path / f"f{'_'.join(map(str, filters))}.png"
    path.write_bytes(_encode_with_filters(img, filters))
    assert read_png(path) == img
