"""`augment` output bytes and manifests against the pinned corpus.

The fixture was written by `emit_corpus.py`; see its docstring for when it
may be rewritten.  Every other test here checks one more way into the same
emit against the fixture's digests.
"""

import difflib
import os
import threading

import pytest

from yona import compositor as comp
from yona import dataset as ds
from yona.augment import KINDS, default_spec
from yona.compositor import YonaConfig

from emit_corpus import (CASES, FIXTURE, SEED, batches, corpus_lines, emit,
                         pinned, pinned_digest)


@pytest.fixture(scope="module")
def corpus_batches(tmp_path_factory):
    return batches(tmp_path_factory.mktemp("corpus"))


def test_corpus_matches_the_fixture(tmp_path):
    expected = FIXTURE.read_text().splitlines()
    diff = list(difflib.unified_diff(expected, corpus_lines(tmp_path),
                                     "fixture", "now", lineterm=""))
    assert not diff, "\n".join(diff)


@pytest.mark.parametrize("kind", KINDS)
def test_library_emit_gives_the_corpus_manifest(tmp_path, corpus_batches,
                                                kind):
    # the command's defaults are the library's defaults
    manifest = ds.write_augmented_dataset(
        ds.read_cifar(corpus_batches["cifar10"], "cifar10"),
        default_spec(kind), YonaConfig(), int(SEED), tmp_path)
    assert ["augmented.bin=" + manifest.digest] + [
        "manifest " + line for line in manifest.to_text().splitlines()] \
        == pinned()[f"{kind}/uniform"]


@pytest.mark.parametrize("name", ["hflip/gaussian", "randaug/uniform"])
def test_small_chunks_give_the_corpus_bytes(tmp_path, corpus_batches,
                                            monkeypatch, name):
    # 100-record chunks: the batch crosses ten chunk borders, at each of
    # which `augment` waits on the previous chunk's future from its one
    # `ThreadPoolExecutor(1)` worker and submits the next chunk
    monkeypatch.setattr(comp, "_LANES", 100)
    digest, manifest = emit(corpus_batches["cifar10"], tmp_path / "out",
                            CASES[name])
    assert ["augmented.bin=" + digest] + [
        "manifest " + line for line in manifest.splitlines()] \
        == pinned()[name]


def test_augment_reads_a_fifo(tmp_path, corpus_batches):
    fifo = tmp_path / "batch.fifo"
    os.mkfifo(fifo)
    data = corpus_batches["cifar10"].read_bytes()

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    digest, _ = emit(fifo, tmp_path / "out", CASES["hflip/uniform"])
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert digest == pinned_digest("hflip/uniform")


def test_augment_builds_no_records(tmp_path, corpus_batches, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("augment built a record list")

    for name in ("read_cifar", "_cifar_table", "CifarRecord"):
        monkeypatch.setattr(ds, name, refuse)
    digest, _ = emit(corpus_batches["cifar10"], tmp_path / "out",
                     CASES["hflip/uniform"])
    assert digest == pinned_digest("hflip/uniform")
