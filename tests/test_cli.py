"""Command-line behavior: determinism, exit codes, flag plumbing."""

import contextlib
import errno
import hashlib
import io
import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import yona
import yona.cli as cli
import yona.compositor as comp
import yona.dataset as ds
from yona.augment import default_spec, parse_policy
from yona.cli import build_parser, main
from yona.dataset import (CifarRecord, DatasetManifest, content_digest,
                          read_png, write_cifar, write_png)
from yona.errors import (CorruptRecordError, DivergenceError, FormatError,
                         GeometryError, ReplayMismatch,
                         UnsupportedAugmentationError)
from yona.image import ImageTensor
from yona.rng import NOISE_ROLE

from conftest import make_image, make_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(out_dir) -> DatasetManifest:
    return DatasetManifest.from_text((out_dir / "manifest.txt").read_text())


def test_augment_replay_identical_digests(tmp_path, small_batch_file, capsys):
    base = ["augment", "--dataset", str(small_batch_file), "--aug", "hflip",
            "--yona", "--seed", "7"]
    code1, out1, _ = run(capsys, *base, "--out", str(tmp_path / "r1"))
    code2, out2, _ = run(capsys, *base, "--out", str(tmp_path / "r2"))
    assert code1 == 0 and code2 == 0
    assert manifest_of(tmp_path / "r1").digest == \
        manifest_of(tmp_path / "r2").digest
    assert "digest=" in out1 and out1.split("digest=")[1] == \
        out2.split("digest=")[1]


def test_augment_identity_no_yona_matches_input(tmp_path, small_batch_file,
                                                capsys):
    code, out, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--aug", "identity", "--no-yona",
                       "--out", str(tmp_path / "idem"))
    assert code == 0
    digest = manifest_of(tmp_path / "idem").digest
    assert digest == \
        "sha256:" + hashlib.sha256(small_batch_file.read_bytes()).hexdigest()


def test_augment_prints_a_format_2_manifest(tmp_path, small_batch_file,
                                            capsys):
    code, out, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--aug", "vflip", "--seed", "12",
                       "--out", str(tmp_path / "m2"))
    assert code == 0
    assert out == (tmp_path / "m2" / "manifest.txt").read_text()
    assert out.splitlines()[:3] == [
        "format=2", f"engine=yona-{yona.__version__}",
        "rng=xoshiro256ss-splitmix64-tape8192"]
    manifest = DatasetManifest.from_text(out)
    data = (tmp_path / "m2" / "augmented.bin").read_bytes()
    # what `sha256sum augmented.bin` prints
    assert manifest.digest == "sha256:" + hashlib.sha256(data).hexdigest()
    assert (manifest.engine, manifest.rng) == (
        f"yona-{yona.__version__}", "xoshiro256ss-splitmix64-tape8192")


def test_augment_mask_fraction_recorded(tmp_path, small_batch_file, capsys):
    code, out, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--aug", "hflip", "--yona", "--mask-fraction", "0.25",
                       "--out", str(tmp_path / "quarter"))
    assert code == 0
    assert "fraction:0.25" in manifest_of(tmp_path / "quarter").yona


def test_augment_rejects_workers(tmp_path, small_batch_file, capsys):
    base = ["augment", "--dataset", str(small_batch_file), "--aug", "cutout",
            "--seed", "3", "--out", str(tmp_path / "w")]
    code, _, err = run(capsys, *base, "--workers", "4")
    assert code == 1 and "usage error" in err
    config = tmp_path / "workers.json"
    config.write_text(json.dumps({"workers": 4}))
    code, _, err = run(capsys, *base, "--config", str(config))
    assert code == 1 and "workers" in err
    assert not (tmp_path / "w").exists()


def test_augment_helper_write_error_is_io_error(tmp_path, small_batch_file,
                                                capsys, monkeypatch):
    # the second append, on the helper thread of chunk 1, hits a full disk
    writers = []

    class FullDisk(io.FileIO):
        def write(self, data):
            writers.append(threading.current_thread())
            if len(writers) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(data)

    def open_full(path, mode="r", *args, **kwargs):
        return FullDisk(path, mode) if mode == "wb" else \
            open(path, mode, *args, **kwargs)

    monkeypatch.setattr(comp, "_LANES", 16)
    monkeypatch.setattr(ds, "open", open_full, raising=False)
    out_dir = tmp_path / "full"
    threads = threading.active_count()
    code, out, err = run(capsys, "augment", "--dataset",
                         str(small_batch_file), "--out", str(out_dir))
    assert threading.active_count() == threads
    assert len(writers) == 2 and threading.main_thread() not in writers
    assert code == 3 and out == ""
    assert err.startswith("i/o error: [Errno 28]") and err.count("\n") == 1
    assert not out_dir.exists()  # no temp, and no directory, left


def test_augment_unhostable_mask_fraction_creates_nothing(
        tmp_path, small_batch_file, capsys):
    # 0.01 of 32 rows rounds to none: the first chunk raises before the
    # output directory or a temp exists
    out_dir = tmp_path / "none"
    threads = threading.active_count()
    code, out, err = run(capsys, "augment", "--dataset",
                         str(small_batch_file), "--mask-fraction", "0.01",
                         "--out", str(out_dir))
    assert threading.active_count() == threads
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def _serve(path, blob, source) -> None:
    """Put ``blob`` at ``path`` as a regular file, or behind a FIFO that a
    thread feeds once (a reader that stops early breaks its pipe)."""
    if source == "file":
        path.write_bytes(blob)
        return
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(blob)

    threading.Thread(target=feed, daemon=True).start()


@pytest.mark.parametrize("source, fault", [
    ("file", "label"), ("fifo", "label"), ("file", "cut"), ("fifo", "cut"),
    ("file", "both")])
def test_augment_fault_in_a_later_chunk_leaves_nothing(
        tmp_path, small_batch_file, monkeypatch, capsys, source, fault):
    # 16-record chunks: record 40 is in chunk 2, read after chunks 0 and 1
    # were composed and handed to the writer, and the cut is in chunk 3
    monkeypatch.setattr(comp, "_LANES", 16)
    blob = bytearray(small_batch_file.read_bytes())
    if fault in ("label", "both"):
        blob[40 * 3073] = 10
    if fault in ("cut", "both"):
        blob = blob[:-10]
    earlier = tmp_path / "earlier"
    assert run(capsys, "augment", "--dataset", str(small_batch_file),
               "--out", str(earlier))[0] == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    fresh = tmp_path / "new" / "out"  # both levels made by the run
    for i, out_dir in enumerate((fresh, earlier)):
        path = tmp_path / f"input{i}.bin"
        _serve(path, bytes(blob), source)
        code, out, err = run(capsys, "augment", "--dataset", str(path),
                             "--out", str(out_dir))
        assert (code, out) == (2, "")
        # a bad label is met before the end of the file, so it is reported
        # first when the file has both faults
        assert err == (f"format error: {path}: record 40 has fine label 10"
                       f", valid range is [0, 9]\n" if fault != "cut" else
                       f"format error: {path}: file length {60 * 3073 - 10}"
                       f" is not a multiple of the 3073-byte record size\n")
    assert not (tmp_path / "new").exists()
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before


@pytest.mark.parametrize("source", ["file", "fifo"])
def test_augment_of_no_records_emits_an_empty_pair(tmp_path, capsys, source):
    # the reader yields no chunk; the pair is still written
    path, out_dir = tmp_path / "empty.bin", tmp_path / "new" / "out"
    _serve(path, b"", source)
    code, out, err = run(capsys, "augment", "--dataset", str(path),
                         "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert (out_dir / "augmented.bin").read_bytes() == b""
    assert manifest_of(out_dir).count == 0
    assert manifest_of(out_dir).digest == content_digest(b"")


def test_augment_peak_memory_is_flat_in_the_batch_size(tmp_path, capsys):
    # the input streams through two reused chunk tables: 6,000 more records
    # (18 MB) raise the traced peak by less than one chunk
    rng = np.random.default_rng(21)
    peaks = []
    for count in (2000, 8000):
        table = rng.integers(0, 256, (count, 3073), dtype=np.uint8)
        table[:, 0] %= 10
        path = tmp_path / f"batch{count}.bin"
        path.write_bytes(table.tobytes())
        del table
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "augment", "--dataset", str(path),
                               "--out", str(tmp_path / f"out{count}"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert abs(peaks[1] - peaks[0]) < comp._LANES * 3073, peaks


@pytest.mark.parametrize("flags, code", [
    (["--grid-cols", "20"], 1),  # the kept pieces are 32x16 and 16x32
    (["--grid-cols", "20", "--axis-policy", "height"], 0),  # 16x32 only
    (["--grid-cols", "33", "--no-yona"], 1)])  # the whole 32x32 image
def test_augment_grid_fit_does_not_depend_on_the_seed(tmp_path, capsys,
                                                      flags, code):
    # at seeds 2 and 3 no record of a 3-record batch both cuts the width
    # and gates the grid in; the fit is checked against every kept piece
    # the run may cut, before any work
    batch = tmp_path / "three.bin"
    write_cifar(make_records(3, seed=2), batch, "cifar10")
    for seed in range(6):
        out_dir = tmp_path / f"grid{seed}"
        got, out, err = run(capsys, "augment", "--dataset", str(batch),
                            "--aug", "grid", *flags, "--seed", str(seed),
                            "--out", str(out_dir))
        assert got == code, seed
        if code:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("usage error: grid ")
            assert not out_dir.exists()


def test_preview_counts_and_identity_column(tmp_path, capsys):
    rng = np.random.default_rng(0)
    img = make_image(rng)
    source = tmp_path / "input.png"
    write_png(img, source)
    out_dir = tmp_path / "grid"
    code, _, _ = run(capsys, "preview", "--image", str(source),
                     "--out", str(out_dir), "--seed", "5",
                     "--augs", "identity", "hflip", "cutout")
    assert code == 0
    pngs = sorted(p.name for p in out_dir.glob("*.png"))
    assert len(pngs) == 9  # 1 image x 3 augs x 3 columns
    assert (out_dir / "index.txt").exists()
    identity_bytes = (out_dir / "img000_identity_augmented.png").read_bytes()
    assert identity_bytes == source.read_bytes()
    assert read_png(out_dir / "img000_hflip_original.png") == img


def test_preview_default_aug_count(tmp_path, small_batch_file, capsys):
    out_dir = tmp_path / "grid8"
    code, out, _ = run(capsys, "preview", "--dataset", str(small_batch_file),
                       "--count", "1", "--out", str(out_dir))
    assert code == 0
    assert len(list(out_dir.glob("*.png"))) == 24  # 8 augmentations x 3


def test_preview_replay_identical_bytes(tmp_path, small_batch_file, capsys):
    args = ["preview", "--dataset", str(small_batch_file), "--count", "1",
            "--seed", "9", "--augs", "randaug"]
    run(capsys, *args, "--out", str(tmp_path / "p1"))
    run(capsys, *args, "--out", str(tmp_path / "p2"))
    for name in ("img000_randaug_yona.png", "img000_randaug_augmented.png"):
        assert (tmp_path / "p1" / name).read_bytes() == \
            (tmp_path / "p2" / name).read_bytes()


def test_failed_preview_leaves_no_temp_file(tmp_path, small_batch_file,
                                            capsys, monkeypatch):
    # the fifth rename fails: files renamed before it are whole, and no
    # temp name is left in the directory
    replace = os.replace
    calls = []

    def failing(src, dst):
        calls.append(dst)
        if len(calls) == 5:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    out_dir = tmp_path / "partial"
    code, _, err = run(capsys, "preview", "--dataset", str(small_batch_file),
                       "--count", "1", "--augs", "hflip", "cutout",
                       "--out", str(out_dir))
    assert code == 3 and "disk full" in err
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(os.path.basename(d) for d in calls[:4])
    for name in names:
        read_png(out_dir / name)


def test_preview_requires_input(tmp_path, capsys):
    code, _, err = run(capsys, "preview", "--out", str(tmp_path / "none"))
    assert code == 1
    assert "usage error" in err


def test_preview_negative_count_is_usage_error(tmp_path, small_batch_file,
                                               capsys):
    code, _, err = run(capsys, "preview", "--dataset", str(small_batch_file),
                       "--count", "-1", "--out", str(tmp_path / "neg"))
    assert code == 1
    assert "usage error" in err
    assert not (tmp_path / "neg").exists()


def test_preview_count_above_the_dataset_is_usage_error(
        tmp_path, small_batch_file, capsys):
    out_dir = tmp_path / "over"
    code, out, err = run(capsys, "preview", "--dataset",
                         str(small_batch_file), "--count", "61",
                         "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == "usage error: dataset holds 60 records, need 61\n"
    assert not out_dir.exists()


def test_failed_preview_creates_nothing(tmp_path, capsys):
    # the 8x8 image composes every kind; the 1x5 one after it cannot be cut
    rng = np.random.default_rng(4)
    small, tiny = tmp_path / "small.png", tmp_path / "tiny.png"
    write_png(make_image(rng, height=8, width=8), small)
    write_png(make_image(rng, height=1, width=5), tiny)
    out_dir = tmp_path / "pv"
    code, out, err = run(capsys, "preview", "--image", str(small),
                         "--image", str(tiny), "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_preview_checks_its_flags_before_reading(tmp_path, capsys):
    # a bad flag value is a usage error even when the input is missing
    out_dir = tmp_path / "pv"
    code, out, err = run(capsys, "preview", "--dataset",
                         str(tmp_path / "missing.bin"), "--mask-fraction",
                         "2", "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_preview_of_an_unhostable_axis_fails_at_every_seed(tmp_path,
                                                           capsys):
    # 0.1 of 4 columns rounds to 0: the random axis policy may cut them
    source = tmp_path / "tall.png"
    write_png(make_image(np.random.default_rng(6), height=40, width=4),
              source)
    argv = ["preview", "--image", str(source), "--augs", "hflip",
            "--mask-fraction", "0.1"]
    for seed in range(8):
        out_dir = tmp_path / f"pv{seed}"
        code, out, err = run(capsys, *argv, "--seed", str(seed),
                             "--out", str(out_dir))
        assert code == 1 and out == "", seed
        assert err == "usage error: mask fraction 0.1 of extent 4 leaves " \
            "no pixels on one side\n"
        assert not out_dir.exists()
        code, _, _ = run(capsys, *argv, "--seed", str(seed), "--axis-policy",
                         "height", "--out", str(out_dir))
        assert code == 0, seed


def test_preview_refuses_a_repeated_kind(tmp_path, capsys):
    # one kind twice would write two rows to the same three PNG names
    source = tmp_path / "sq.png"
    write_png(make_image(np.random.default_rng(7), height=8, width=8),
              source)
    out_dir = tmp_path / "pvd"
    for image in (source, tmp_path / "missing.png"):  # before any read
        code, out, err = run(capsys, "preview", "--image", str(image),
                             "--augs", "hflip", "hflip", "--out",
                             str(out_dir), "--seed", "3")
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out_dir.exists()


def test_stats_reports_and_gates(small_batch_file, capsys):
    code, out, _ = run(capsys, "stats", "--dataset", str(small_batch_file),
                       "--n", "400", "--seed", "1")
    assert code == 0
    assert "axis_height_frequency=" in out
    code, _, err = run(capsys, "stats", "--dataset", str(small_batch_file),
                       "--n", "400", "--seed", "1",
                       "--gate-axis-low", "0.99")
    assert code == 4
    assert "gate violated" in err
    code, out, err = run(capsys, "stats", "--dataset", str(small_batch_file),
                         "--n", "400", "--seed", "1",
                         "--gate-axis-high", "0.01")
    assert code == 4 and "axis_height_frequency=" in out
    assert err.startswith("gate violated: axis_height_frequency=") \
        and "above bound 0.01" in err and err.count("\n") == 1


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_stats_of_an_empty_batch_is_one_usage_line(tmp_path, capsys, source):
    # the library's own message once named `collect_stats`
    path = tmp_path / "empty.bin"
    if source == "file":
        path.write_bytes(b"")
    else:
        os.mkfifo(path)
        writer = threading.Thread(target=lambda: open(path, "wb").close(),
                                  daemon=True)
        writer.start()
    code, out, err = run(capsys, "stats", "--dataset", str(path), "--n", "5")
    assert (code, out) == (1, "")
    assert err == "usage error: dataset holds 0 records, need at least 1\n"


def test_stats_replay_mismatch_is_one_line_and_no_report(
        tmp_path, small_batch_file, monkeypatch, capsys):
    # noise lane 7 seeded with lane 8's state: its mask does not replay
    law = comp.lane_states

    def swapped(seed, first, lanes, role):
        states = law(seed, first, lanes, role)
        if role == NOISE_ROLE:
            states[:, 7] = states[:, 8]
        return states

    monkeypatch.setattr(comp, "lane_states", swapped)
    report = tmp_path / "report.txt"
    code, out, err = run(capsys, "stats", "--dataset", str(small_batch_file),
                         "--n", "50", "--seed", "3", "--report", str(report))
    assert (code, out) == (4, "")
    assert err == ("replay mismatch: sample 7: masked region does not "
                   "replay from the noise stream\n")
    assert not report.exists()


def test_stats_builds_no_records(small_batch_file, monkeypatch, capsys):
    # `stats` composes from the pixel view of the table it read
    argv = ["stats", "--dataset", str(small_batch_file), "--n", "300",
            "--aug", "cutout", "--noise", "gaussian:127.5,32"]
    code, report, _ = run(capsys, *argv)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("stats built a record list")

    monkeypatch.setattr(ds, "read_cifar", refuse)
    assert run(capsys, *argv) == (0, report, "")


def test_preview_builds_no_records(tmp_path, small_batch_file, monkeypatch,
                                   capsys):
    # `preview` wraps the pixel rows of the table it read
    argv = ["preview", "--dataset", str(small_batch_file), "--count", "3",
            "--augs", "hflip", "cutout", "--seed", "5"]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "records"))
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("preview built a record list")

    monkeypatch.setattr(ds, "read_cifar", refuse)
    table_dir = tmp_path / "table"
    assert run(capsys, *argv, "--out", str(table_dir)) == (
        0, out.replace(str(tmp_path / "records"), str(table_dir)), "")
    names = sorted(p.name for p in (tmp_path / "records").iterdir())
    assert names == sorted(p.name for p in table_dir.iterdir())
    for name in names:
        assert (table_dir / name).read_bytes() == \
            (tmp_path / "records" / name).read_bytes()


def test_bench_gate_pass_and_fail(capsys):
    code, out, _ = run(capsys, "bench", "--aug", "hflip",
                       "--iterations", "300", "--gate-ratio", "1000")
    assert code == 0
    assert "ratio=" in out
    code, _, err = run(capsys, "bench", "--aug", "hflip",
                       "--iterations", "300", "--gate-ratio", "0.0001")
    assert code == 4


@pytest.mark.parametrize("source", ["flag", "config", "config-text"])
@pytest.mark.parametrize("command, gate, value", [
    ("stats", "gate-axis-low", "nan"), ("stats", "gate-axis-high", "nan"),
    ("stats", "gate-masked-low", "-inf"), ("stats", "gate-masked-high", "inf"),
    ("bench", "gate-ratio", "nan"), ("bench", "gate-ratio", "inf")])
def test_non_finite_gate_is_usage_error(tmp_path, small_batch_file, capsys,
                                        monkeypatch, command, gate, value,
                                        source):
    # a NaN bound never fires, so it is refused before any work
    import yona.evalstats as ev

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the gate check")

    monkeypatch.setattr(ev, "collect_stats", refuse)
    monkeypatch.setattr(ev, "benchmark_throughput", refuse)
    argv = [command, "--iterations", "300"] if command == "bench" else [
        command, "--dataset", str(small_batch_file), "--n", "50"]
    if source == "flag":
        argv.append(f"--{gate}={value}")
    else:  # JSON NaN/Infinity literals, or a string argparse converts
        config = tmp_path / "gates.json"
        config.write_text(json.dumps({gate.replace("-", "_"): float(value)
                                      if source == "config" else value}))
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"usage error: --{gate} must be finite, got " \
        f"{float(value)}\n"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("gate", ["axis", "masked"])
def test_inverted_gate_pair_is_usage_error(tmp_path, capsys, gate, source):
    # no value lies in [0.9, 0.1]: refused before the dataset is read
    bounds = {f"gate_{gate}_low": 0.9, f"gate_{gate}_high": 0.1}
    argv = ["stats", "--dataset", str(tmp_path / "missing.bin")]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}={value}"
                 for key, value in bounds.items()]
    else:
        config = tmp_path / "gates.json"
        config.write_text(json.dumps(bounds))
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: --gate-{gate}-low 0.9 is above " \
        f"--gate-{gate}-high 0.1\n"
    # equal bounds stay legal: the run goes on to read the dataset
    code, _, err = run(capsys, "stats", "--dataset",
                       str(tmp_path / "missing.bin"), f"--gate-{gate}-low",
                       "0.5", f"--gate-{gate}-high", "0.5")
    assert code == 3 and err.startswith("i/o error: ")


def test_bench_rejects_bad_dims(capsys):
    # one usage line before any work, for negative and zero extents too
    for dims in ["not-dims", "3x32", "3x32x32x1", "3x-32x32", "3x-32x-32",
                 "0x32x32", "3x32x0", "3xx32"]:
        code, out, err = run(capsys, "bench", "--dims", dims)
        assert code == 1 and out == ""
        assert err == "usage error: --dims must be CxHxW, three integers " \
            f">= 1, got {dims!r}\n"


def test_bench_rejects_dims_above_the_byte_limit(capsys, monkeypatch):
    # 10**10 bytes would not fit in memory: refused before any allocation
    import yona.evalstats as ev

    def refuse(*args, **kwargs):
        raise AssertionError("bench started before the dims check")

    monkeypatch.setattr(ev, "benchmark_throughput", refuse)
    for dims, size in (("1x100000x100000", 10**10),
                       ("1x4097x4096", 2**24 + 4096)):
        code, out, err = run(capsys, "bench", "--dims", dims,
                             "--iterations", "100")
        assert (code, out) == (1, "")
        assert err == f"usage error: --dims {dims} is {size} bytes, above " \
            f"the {2**24}-byte limit\n"


def test_bench_rejects_tiny_iteration_count(capsys):
    code, _, err = run(capsys, "bench", "--iterations", "10")
    assert code == 1
    assert "usage error" in err


def test_bench_yona_flags_reach_the_benchmark(capsys, monkeypatch):
    import yona.evalstats as ev
    configs = []
    measure = ev.benchmark_throughput

    def spy(spec, config, **kwargs):
        configs.append(config)
        return measure(spec, config, **kwargs)

    monkeypatch.setattr(ev, "benchmark_throughput", spy)
    code, _, _ = run(capsys, "bench", "--aug", "hflip", "--iterations", "100",
                     "--mask-fraction", "0.25", "--axis-policy", "height")
    assert code == 0
    assert (configs[0].mask_fraction, configs[0].axis_policy) == \
        (0.25, "height")


def test_preview_yona_flags_reach_the_composition(tmp_path, capsys):
    img = make_image(np.random.default_rng(2))
    source = tmp_path / "input.png"
    write_png(img, source)
    code, _, _ = run(capsys, "preview", "--image", str(source),
                     "--augs", "identity", "--mask-fraction", "0.25",
                     "--axis-policy", "height", "--masked-piece", "first",
                     "--noise", "constant:7", "--out", str(tmp_path / "q"))
    assert code == 0
    composed = read_png(tmp_path / "q" / "img000_identity_yona.png").array
    assert (composed[:, :8] == 7).all()  # 0.25 of 32 rows, masked first
    assert np.array_equal(composed[:, 8:], img.array[:, 8:])


@pytest.mark.parametrize("command", ["preview", "bench"])
def test_preview_and_bench_have_no_yona_switch(tmp_path, small_batch_file,
                                               capsys, command):
    # both always compose, so their yona flags always apply
    argv = [command, "--iterations", "100"] if command == "bench" else [
        command, "--dataset", str(small_batch_file),
        "--out", str(tmp_path / "p")]
    for flag in ("--no-yona", "--yona"):
        code, out, err = run(capsys, *argv, flag)
        assert code == 1 and "usage error" in err and out == ""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"yona": False}))
    code, _, err = run(capsys, *argv, "--config", str(config))
    assert code == 1 and "unknown config keys ['yona']" in err
    assert not (tmp_path / "p").exists()


def test_probe_zero_train_count_is_usage_error(small_batch_file, capsys):
    code, _, err = run(capsys, "probe", "--dataset", str(small_batch_file),
                       "--train-count", "0")
    assert code == 1
    assert "usage error" in err


def test_probe_negative_epochs_is_usage_error(small_batch_file, capsys):
    code, out, err = run(capsys, "probe", "--dataset", str(small_batch_file),
                         "--train-count", "10", "--epochs", "-3")
    assert code == 1
    assert "usage error" in err
    assert out == ""


def test_probe_negative_eval_count_is_usage_error(small_batch_file, capsys):
    code, out, err = run(capsys, "probe", "--dataset", str(small_batch_file),
                         "--train-count", "10", "--eval-count", "-2")
    assert code == 1
    assert "usage error" in err
    assert out == ""


@pytest.mark.parametrize("flags, message", [
    (["--batch-size", "-5"], "usage error: --batch-size"),
    (["--batch-size", "0"], "usage error: --batch-size"),
    (["--lr", "nan"], "usage error: --lr"),
    (["--lr", "inf"], "usage error: --lr"),
    (["--lr", "1e308"], "training diverged: "),
    (["--eval-count", "21"],
     "usage error: dataset holds 60 records, need 61")])
def test_probe_bad_hyperparameters_exit_1(small_batch_file, capsys, flags,
                                          message):
    code, out, err = run(capsys, "probe", "--dataset", str(small_batch_file),
                         "--train-count", "40", "--epochs", "2", *flags)
    assert code == 1
    assert err.startswith(message) and err.count("\n") == 1
    assert "epoch_loss" not in out


def test_probe_of_no_epochs_fails_the_loss_gate(small_batch_file, capsys):
    # no epoch: the final loss is the initial one, so it did not decrease
    code, out, err = run(capsys, "probe", "--dataset", str(small_batch_file),
                         "--train-count", "40", "--epochs", "0",
                         "--gate-loss-decrease")
    assert code == 4 and "epoch_loss_0=" in out
    assert err.startswith("gate violated: final loss ") \
        and err.count("\n") == 1


def test_probe_end_to_end(small_batch_file, capsys):
    code, out, _ = run(capsys, "probe", "--dataset", str(small_batch_file),
                       "--train-count", "40", "--eval-count", "20",
                       "--epochs", "4", "--aug", "identity", "--no-yona",
                       "--calibration-bins", "5", "--gate-loss-decrease")
    assert code == 0
    assert "epoch_loss_0=" in out
    assert "eval_accuracy=" in out
    assert "rms_calibration_error_percent=" in out


def test_probe_composition_changes_training(small_batch_file, capsys):
    base = ["probe", "--dataset", str(small_batch_file), "--train-count",
            "30", "--epochs", "2", "--aug", "identity", "--seed", "4"]
    code, plain, _ = run(capsys, *base, "--no-yona")
    assert code == 0
    code, composed, _ = run(capsys, *base, "--yona")
    assert code == 0
    assert plain != composed  # masking reaches the trainer


def test_augment_cifar100_variant(tmp_path, capsys):
    import numpy as np
    from yona.dataset import CifarRecord, write_cifar, read_cifar
    from conftest import make_image
    rng = np.random.default_rng(50)
    records = [CifarRecord(fine_label=int(rng.integers(0, 100)),
                           image=make_image(rng),
                           coarse_label=int(rng.integers(0, 20)))
               for _ in range(10)]
    path = tmp_path / "c100.bin"
    write_cifar(records, path, "cifar100")
    code, out, _ = run(capsys, "augment", "--dataset", str(path),
                       "--variant", "cifar100", "--aug", "vflip",
                       "--out", str(tmp_path / "o100"))
    assert code == 0
    back = read_cifar(tmp_path / "o100" / "augmented.bin", "cifar100")
    assert [(r.coarse_label, r.fine_label) for r in back] == \
        [(r.coarse_label, r.fine_label) for r in records]


def test_noise_flag_parsing(tmp_path, small_batch_file, capsys):
    code, _, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                     "--aug", "identity", "--noise", "constant:0",
                     "--out", str(tmp_path / "n0"))
    assert code == 0
    assert "ConstantNoise" in manifest_of(tmp_path / "n0").yona
    code, _, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                     "--aug", "identity", "--noise", "gaussian:127.5,32",
                     "--out", str(tmp_path / "ng"))
    assert code == 0
    assert "GaussianNoise" in manifest_of(tmp_path / "ng").yona
    code, _, err = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--noise", "sparkles", "--out", str(tmp_path / "nx"))
    assert code == 1


@pytest.mark.parametrize("value", ["gaussian:1", "constant:", "gaussian:1,2,3",
                                   "gaussian:a,b", "constant:1.5"])
def test_malformed_noise_numbers_are_a_parse_error(tmp_path, small_batch_file,
                                                   capsys, value):
    # int() and float() once printed their own message, not the flag's
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "augment", "--dataset", str(small_batch_file),
                         "--noise", value, "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"usage error: cannot parse noise spec {value!r}\n"
    assert not out_dir.exists()


def test_unwritable_report_names_the_report(tmp_path, small_batch_file,
                                            monkeypatch, capsys):
    # the error once named the staged temp file, with a token new each run
    monkeypatch.chdir(tmp_path)
    errors = []
    for _ in range(2):
        code, _, err = run(capsys, "stats", "--dataset", str(small_batch_file),
                           "--n", "20", "--report", "missing/r.txt")
        assert code == 3 and err.count("\n") == 1
        assert "'missing/r.txt'" in err and ".tmp" not in err
        errors.append(err)
    assert errors[0] == errors[1]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags", [
    ["--aug", "jitter", "--apply-probability", "1",
     "--jitter-brightness", "nan"],
    ["--noise", "gaussian:127.5,nan"],
    ["--aug", "erasing", "--erase-ratio", "0.3", "inf"]])
def test_augment_rejects_non_finite_parameters(tmp_path, small_batch_file,
                                               capsys, flags):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "augment", "--dataset",
                         str(small_batch_file), "--out", str(out_dir), *flags)
    assert code == 1 and "usage error" in err and out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command, missing_dataset", [
    pytest.param(command, missing, id=command + "-missing" * missing)
    for missing in (False, True) for command in ("augment", "stats", "probe")])
def test_randaug_op_count_over_100_is_usage_error(tmp_path, small_batch_file,
                                                  capsys, command,
                                                  missing_dataset):
    # 10**8 ops once meant a 29.8 GiB word table; refused before any work,
    # the dataset's read included
    out_dir = tmp_path / "out"
    dataset = tmp_path / "missing.bin" if missing_dataset else small_batch_file
    outputs = {"augment": ["--out", str(out_dir)], "stats": [],
               "probe": ["--train-count", "10"]}[command]
    code, out, err = run(capsys, command, "--dataset", str(dataset),
                         "--aug", "randaug", "--randaug-n", "100000000",
                         *outputs)
    assert code == 1 and out == ""
    assert err.startswith("usage error: randaug_num_ops") \
        and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["augment", "stats", "probe"])
@pytest.mark.parametrize("flags, code, error", [
    (["--jitter-hue", "0.9"], 1, "usage error: "),
    (["--policy-file", "nope.txt"], 3, "i/o error: ")],
    ids=["bad-hue", "missing-policy"])
def test_identity_runs_check_their_augmentation_flags(
        tmp_path, small_batch_file, monkeypatch, capsys, command, flags,
        code, error):
    # probe once built no spec for --aug identity, so it ran on either
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "out"
    runs = {"augment": ["--out", str(out_dir)], "stats": ["--n", "10"],
            "probe": ["--train-count", "10", "--epochs", "1"]}[command]
    got, out, err = run(capsys, command, "--dataset", str(small_batch_file),
                        "--aug", "identity", *flags, *runs)
    assert (got, out) == (code, "")
    assert err.startswith(error) and err.count("\n") == 1
    assert not out_dir.exists()


# the RULE of each flag's `usage error: --FLAG must be RULE, got VALUE`
_FLAG_RULE_TEXTS = {
    "--seed": "in [0, 2**64)",
    **dict.fromkeys(["--n", "--count", "--train-count", "--batch-size",
                     "--calibration-bins"], ">= 1"),
    **dict.fromkeys(["--eval-count", "--epochs"], ">= 0"),
    "--iterations": ">= 100",
    **dict.fromkeys(["--lr", "--momentum", "--gate-axis-low",
                     "--gate-axis-high", "--gate-masked-low",
                     "--gate-masked-high", "--gate-ratio"], "finite"),
}


@pytest.mark.parametrize("missing_dataset", [False, True],
                         ids=["file", "missing"])
@pytest.mark.parametrize("command, flags", [
    ("stats", ["--n", "0"]),
    ("probe", ["--batch-size", "0"]),
    ("probe", ["--lr", "nan"]),
    ("probe", ["--momentum", "inf"]),
    ("probe", ["--calibration-bins", "0", "--eval-count", "50"]),
    ("preview", ["--count", "0"]),
    ("probe", ["--train-count", "0"]),
    ("probe", ["--eval-count", "-1"]),
    ("probe", ["--epochs", "-1"]),
    ("stats", ["--seed", "-1"]),
    ("stats", ["--gate-axis-low", "nan"]),
    ("stats", ["--gate-axis-high", "inf"]),
    ("stats", ["--gate-masked-low", "-inf"]),
    ("stats", ["--gate-masked-high", "nan"]),
    ("bench", ["--gate-ratio", "inf"]),
    ("bench", ["--iterations", "99"]),
    # the least values their rules allow
    ("probe", ["--epochs", "0"]),
    ("probe", ["--eval-count", "0"])])
def test_numeric_flags_are_checked_before_reading(tmp_path, small_batch_file,
                                                  monkeypatch, capsys,
                                                  command, flags,
                                                  missing_dataset):
    # each was once checked only after the read (exit 3 on a missing file),
    # and the bins only after the whole probe had trained
    import yona.evalstats as ev

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flag check")

    (flag, value), rest = flags[:2], flags[2:]
    dataset = str(tmp_path / "missing.bin" if missing_dataset
                  else small_batch_file)
    out_dir = tmp_path / "out"
    argv = [command] + {
        "stats": ["--dataset", dataset],
        "probe": ["--dataset", dataset] + (
            [] if flag == "--train-count" else ["--train-count", "10"]),
        "preview": ["--dataset", dataset, "--out", str(out_dir)],
        "bench": [] if flag == "--iterations" else ["--iterations", "100"]
    }[command] + rest
    config = tmp_path / "flag.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
    for given in ([f"{flag}={value}"], ["--config", str(config)]):
        if value == "0" and flag in ("--epochs", "--eval-count"):
            code, _, err = run(capsys, *argv, *given)
            assert code == (3 if missing_dataset else 0), err  # it read
            continue
        with monkeypatch.context() as patch:
            for name in ("read_cifar", "read_cifar_table",
                         "read_cifar_chunks"):
                patch.setattr(ds, name, refuse)
            patch.setattr(ev, "benchmark_throughput", refuse)
            code, out, err = run(capsys, *argv, *given)
        assert (code, out) == (1, "")
        assert err == (f"usage error: {flag} must be "
                       f"{_FLAG_RULE_TEXTS[flag]}, got {value}\n")
        assert not out_dir.exists()


# per command, the flags of a short run; each but probe writes "{out}"
_SHORT_RUNS = {
    "augment": ["--dataset", "{data}", "--out", "{out}"],
    "preview": ["--dataset", "{data}", "--augs", "hflip", "--out", "{out}"],
    "stats": ["--dataset", "{data}", "--n", "20", "--report", "{out}"],
    "bench": ["--iterations", "100", "--report", "{out}"],
    "probe": ["--dataset", "{data}", "--train-count", "20", "--epochs", "1"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("seed", [2**64, -1, 2**64 - 1])
@pytest.mark.parametrize("command", sorted(_SHORT_RUNS))
def test_seed_outside_64_bits_is_usage_error(tmp_path, small_batch_file,
                                             monkeypatch, capsys, command,
                                             seed, source):
    # the library takes a seed mod 2**64, so `--seed 2**64` once emitted
    # seed 0's bytes under a manifest naming another seed
    import yona.evalstats as ev

    out = tmp_path / "out"
    argv = [command] + [flag.format(data=small_batch_file, out=out)
                        for flag in _SHORT_RUNS[command]]
    if source == "flag":
        argv.append(f"--seed={seed}")
    else:
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"seed": seed}))
        argv += ["--config", str(config)]
    if seed == 2**64 - 1:
        assert run(capsys, *argv)[0] == 0
        assert command == "probe" or out.exists()
        return

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the seed check")

    for name in ("read_cifar", "read_cifar_table",
                 "read_cifar_chunks"):
        monkeypatch.setattr(ds, name, refuse)
    monkeypatch.setattr(ev, "benchmark_throughput", refuse)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == f"usage error: --seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["augment", "preview", "probe",
                                     "stats"])
def test_config_file_gives_required_flags(tmp_path, small_batch_file,
                                          monkeypatch, capsys, command):
    # argparse once checked --dataset and --out before the file was read,
    # so neither key could take effect
    writes = command in ("augment", "preview")
    required = {"augment": "--dataset, --out",
                "preview": "--out"}.get(command, "--dataset")
    rest = {"augment": [], "preview": ["--augs", "hflip"],
            "probe": ["--train-count", "20", "--epochs", "1"],
            "stats": ["--n", "20"]}[command]
    runs = {}
    for source in ("flags", "file", "both"):
        values = {"dataset": str(small_batch_file),
                  **({"out": str(tmp_path / source)} if writes else {})}
        argv = [command, *rest]
        if source != "flags":
            config = tmp_path / f"{source}.json"
            config.write_text(json.dumps(
                values if source == "file"  # else every flag wins
                else {key: str(tmp_path / "missing") for key in values}))
            argv += ["--config", str(config)]
        if source != "file":
            argv += [f"--{key}={value}" for key, value in values.items()]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        runs[source] = (out.replace(str(tmp_path / source), "OUT"),
                        {path.name: path.read_bytes() for path in
                         sorted((tmp_path / source).glob("*"))})
    assert runs["file"] == runs["flags"] == runs["both"]
    assert not (tmp_path / "missing").exists()

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the required check")

    for name in ("read_cifar", "read_cifar_table",
                 "read_cifar_chunks"):
        monkeypatch.setattr(ds, name, refuse)
    config = tmp_path / "other.json"
    config.write_text(json.dumps({"seed": 1}))
    for given in ([], ["--config", str(config)]):
        code, out, err = run(capsys, command, *rest, *given)
        assert (code, out) == (1, "")
        assert err == ("usage error: the following arguments are required: "
                       f"{required}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mean, stddev, law", [
    ("0", "1e308", {0, 255}),  # every threshold is 2**31
    ("0", "5e-324", {0}), ("127.5", "5e-324", {127, 128}),
    ("1e6", "32", {255}), ("-1e6", "32", {0})])
def test_extreme_gaussian_noise_emits_the_exact_law(tmp_path, capsys, mean,
                                                    stddev, law):
    # pixels of 77, which no law here gives, left so by identity: the
    # masked half of each record is exactly the bytes outside 77
    pixels = np.full((3, 32, 32), 77, dtype=np.uint8)
    write_cifar([CifarRecord(1, ImageTensor(pixels))] * 40,
                tmp_path / "b.bin", "cifar10")
    code, _, err = run(capsys, "augment", "--dataset", str(tmp_path / "b.bin"),
                       "--aug", "identity", "--noise",
                       f"gaussian:{mean},{stddev}", "--out",
                       str(tmp_path / "out"))
    assert code == 0, err
    assert manifest_of(tmp_path / "out").yona.endswith(":cdf32,region:piece")
    pixels = np.fromfile(tmp_path / "out" / "augmented.bin",
                         dtype=np.uint8).reshape(40, 3073)[:, 1:]
    noise = pixels[pixels != 77]
    assert noise.size == 40 * 1536
    assert set(np.unique(noise).tolist()) == law


def _largest_accepted_jitter(name):
    """The largest float jitter factor ``name`` a spec accepts: a bisection
    over the bit patterns of non-negative floats, which order as they do."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            default_spec("jitter", **{name: float(np.int64(mid).view(
                np.float64))})
            lo = mid
        except ValueError:
            hi = mid
    return float(np.int64(lo).view(np.float64))


@pytest.mark.filterwarnings("error")  # a float overflow warning fails it
@pytest.mark.parametrize("name", ["brightness", "contrast", "saturation"])
def test_augment_rejects_jitter_factors_that_overflow(tmp_path,
                                                      small_batch_file,
                                                      capsys, name):
    flags = ["augment", "--dataset", str(small_batch_file), "--aug",
             "jitter", "--apply-probability", "1", f"--jitter-{name}"]
    out_dir = tmp_path / "over"
    code, out, err = run(capsys, *flags, "1e308", "--out", str(out_dir))
    assert code == 1 and "usage error" in err and out == ""
    assert not out_dir.exists()
    largest = _largest_accepted_jitter(name)
    assert 1e285 < largest < 1e287
    code, out, _ = run(capsys, *flags, repr(largest), "--out",
                       str(tmp_path / "largest"))
    assert code == 0 and "digest=" in out


def test_missing_dataset_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--dataset",
                       str(tmp_path / "nope.bin"), "--n", "10")
    assert code == 3
    assert "i/o error" in err


def test_truncated_dataset_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x01" * 100)
    code, _, err = run(capsys, "augment", "--dataset", str(bad),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "format error" in err


@pytest.mark.parametrize("flag, content", [
    ("--policy-file", b"Rotate 0.5 3\nInvert 0.2 0\n"),  # one entry a line
    ("--policy-file", b"Rotate 0.5 ; Invert 0.2 0\n"),  # an entry of two
    ("--policy-file", b"Rotate 0.5 3 ; Invert 0.2 \xff\n"),  # not UTF-8
    ("--config", b'{"seed": 3, "aug": "\xff"}'),  # not UTF-8
    ("--config", b'{"seed": 3'),  # truncated
    ("--config", b'["--seed", "3"]'),  # an array, not an object
], ids=["policy-one-entry", "policy-two-fields", "policy-not-utf8",
        "config-not-utf8", "config-truncated", "config-array"])
def test_malformed_file_is_format_error(tmp_path, small_batch_file, capsys,
                                        flag, content):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "augment", "--dataset",
                         str(small_batch_file), "--aug", "autoaug", flag,
                         str(bad), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith(f"format error: {bad}: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_policy_file_run_equals_the_library_run(tmp_path, small_batch_file,
                                                capsys):
    policy_file = Path(__file__).parent / "fixtures" / "small_policy.txt"
    code, out, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--aug", "autoaug", "--policy-file", str(policy_file),
                       "--seed", "5", "--out", str(tmp_path / "cli"))
    assert code == 0
    manifest = ds.write_augmented_dataset(
        ds.read_cifar(small_batch_file, "cifar10"),
        default_spec("autoaug", policy=parse_policy(policy_file.read_text())),
        comp.YonaConfig(), 5, tmp_path / "lib")
    assert "policy:sha256:" in manifest_of(tmp_path / "cli").augmentation
    assert out == manifest.to_text()
    assert (tmp_path / "cli" / "augmented.bin").read_bytes() \
        == (tmp_path / "lib" / "augmented.bin").read_bytes()


def test_unknown_flag_is_usage_error(small_batch_file, capsys):
    code, _, err = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--out", "x", "--frobnicate")
    assert code == 1


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_config_file_supplies_defaults(tmp_path, small_batch_file, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 7, "aug": "hflip",
                                  "mask_fraction": 0.25}))
    code, out, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--out", str(tmp_path / "cfg"),
                       "--config", str(config))
    assert code == 0
    manifest = manifest_of(tmp_path / "cfg")
    assert manifest.seed == 7
    assert "fraction:0.25" in manifest.yona
    # explicit flags win over file values
    code, _, _ = run(capsys, "augment", "--dataset", str(small_batch_file),
                     "--out", str(tmp_path / "cfg2"),
                     "--config", str(config), "--seed", "8")
    assert manifest_of(tmp_path / "cfg2").seed == 8


def test_config_file_rejects_unknown_keys(tmp_path, small_batch_file, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"sneed": 7}))
    code, _, err = run(capsys, "augment", "--dataset", str(small_batch_file),
                       "--out", str(tmp_path / "x"), "--config", str(config))
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize("values, given, same_as", [
    # each value is read by its flag's own type, choices and nargs
    ({"yona": "false"}, [], None),
    ({"gate_axis_low": True}, [], None),
    ({"seed": 1.5}, [], None),
    ({"n": None}, [], None),
    ({"noise": 5}, [], None),
    ({"erase_scale": [0.1]}, [], None),
    ({"grid_rows": 2.5}, [], None),
    ({"yona": False, "n": 40}, [], ["--no-yona", "--n", "40"]),
    ({"aug": "erasing", "erase_scale": [0.1, 0.3], "n": 40}, [],
     ["--aug", "erasing", "--erase-scale", "0.1", "0.3", "--n", "40"]),
    # a flag on the command line wins, a switch of the other side too
    ({"yona": False, "n": 40, "seed": 2}, ["--yona", "--seed", "3"],
     ["--yona", "--n", "40", "--seed", "3"]),
], ids=json.dumps)
def test_config_values_go_through_the_flag_parser(
        tmp_path, small_batch_file, capsys, values, given, same_as):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(values))
    argv = ["stats", "--dataset", str(small_batch_file)]
    code, out, err = run(capsys, *argv, *given, "--config", str(config))
    if same_as is None:
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
    else:
        assert code == 0
        assert (code, out) == run(capsys, *argv, *same_as)[:2]


def test_config_list_repeats_an_append_flag(tmp_path, capsys):
    images = []
    for seed in (3, 4):
        images.append(tmp_path / f"in{seed}.png")
        write_png(make_image(np.random.default_rng(seed)), images[-1])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"image": [str(p) for p in images],
                                  "augs": ["hflip", "cutout"]}))
    code, out, _ = run(capsys, "preview", "--config", str(config),
                       "--out", str(tmp_path / "cfg"))
    assert code == 0 and out.startswith("wrote 12 PNG files")
    argv = ["preview", "--image", str(images[0]), "--image", str(images[1]),
            "--augs", "hflip", "cutout", "--out", str(tmp_path / "flags")]
    assert run(capsys, *argv)[0] == 0
    names = sorted(os.listdir(tmp_path / "flags"))
    assert sorted(os.listdir(tmp_path / "cfg")) == names
    for name in names:
        assert (tmp_path / "cfg" / name).read_bytes() \
            == (tmp_path / "flags" / name).read_bytes(), name


def test_help_lists_defaults(capsys):
    for command in ("preview", "stats", "bench", "probe"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0, command
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["augment", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "(default: 0.25)" in out   # cutout area
    assert "(default: 0.5)" in out    # mask fraction
    assert "(default: 2)" in out      # randaug op count
    assert "(default: 9)" in out      # randaug magnitude


def test_flag_defaults_are_the_dataclass_defaults():
    # the flags a command leaves unset build the default spec and config
    _, commands = build_parser()
    required = {"augment": ["--dataset", "d", "--out", "o"],
                "preview": ["--out", "o"], "stats": ["--dataset", "d"],
                "bench": [], "probe": ["--dataset", "d"]}
    for command, argv in required.items():
        args = commands[command].parse_args(argv)
        if command != "preview":  # bench applies every draw
            assert cli._build_spec(args) == default_spec(
                args.aug, apply_probability=args.apply_probability), command
        args.yona = True
        assert cli._build_yona(args) == comp.YonaConfig(), command


@pytest.mark.parametrize("error, line, code", [
    (FormatError("f"), "format error: f", 2),
    (CorruptRecordError("c"), "format error: c", 2),
    (cli.UsageError("u"), "usage error: u", 1),
    (ValueError("v"), "usage error: v", 1),
    (GeometryError("g"), "usage error: g", 1),
    (UnsupportedAugmentationError("k"), "usage error: k", 1),
    (DivergenceError("d"), "training diverged: d", 1),
    (OSError("o"), "i/o error: o", 3),
    (FileNotFoundError("n"), "i/o error: n", 3),
    (cli.GateViolation("b"), "gate violated: b", 4),
    (ReplayMismatch("r"), "replay mismatch: r", 4)])
def test_exit_code_table(capsys, monkeypatch, error, line, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bench", fail)
    assert run(capsys, "bench") == (code, "", line + "\n")


@pytest.mark.parametrize("error", [RuntimeError("x"), KeyError("k"),
                                   AssertionError("a")])
def test_unmapped_exception_propagates(capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bench", fail)
    with pytest.raises(type(error)):
        main(["bench"])
    assert capsys.readouterr().err == ""


def test_failed_preview_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the third staged file hits a full disk: nothing was renamed yet
    source = tmp_path / "sq.png"
    write_png(make_image(np.random.default_rng(2), height=8, width=8), source)
    opened = []

    def open_full(path, mode="r", *args, **kwargs):
        if mode == "wb":
            opened.append(path)
            if len(opened) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(ds, "open", open_full, raising=False)
    out_dir = tmp_path / "pv"
    code, out, err = run(capsys, "preview", "--image", str(source),
                         "--augs", "hflip", "cutout", "--out", str(out_dir))
    assert len(opened) == 3
    assert code == 3 and out == ""
    assert err.startswith("i/o error: [Errno 28]") and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []  # no PNG, temp or index.txt


def test_preview_of_a_one_pixel_wide_image(tmp_path, capsys):
    # the height policy never cuts the 1-pixel width, so the image composes;
    # the random policy may cut it, so it fails at every seed
    source = tmp_path / "thin.png"
    write_png(make_image(np.random.default_rng(8), height=40, width=1),
              source)
    argv = ["preview", "--image", str(source), "--augs", "hflip", "cutout"]
    for seed in range(8):
        out_dir = tmp_path / f"pv{seed}"
        code, out, err = run(capsys, *argv, "--seed", str(seed),
                             "--out", str(out_dir))
        assert (code, out) == (1, ""), seed
        assert err == "usage error: mask fraction 0.5 of extent 1 leaves " \
            "no pixels on one side\n"
        assert not out_dir.exists()
        code, out, _ = run(capsys, *argv, "--seed", str(seed),
                           "--axis-policy", "height", "--out", str(out_dir))
        assert code == 0 and out.startswith("wrote 6 PNG files"), seed
        assert read_png(out_dir / "img000_hflip_yona.png").shape == (3, 40, 1)
