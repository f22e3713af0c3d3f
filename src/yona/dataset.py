"""Dataset ingestion and emission.

CIFAR-10/100 binary archives are both the input and the output format, so
augmented datasets feed any external trainer unchanged:

* CIFAR-10 record: ``[label u8][1024 R][1024 G][1024 B]``, row-major planes;
* CIFAR-100 record: ``[coarse u8][fine u8][3072 pixel bytes]``.

A batch is one table: a uint8 array with one row per record.  One reader,
`_read_chunks`, reads a batch file through `open` until it ends (so a
pipe works) into tables it is given, checking each chunk's labels and, at
the end, the length.  `read_cifar_chunks` reads it into two reused
``compositor._LANES``-row tables, `read_cifar_table` into one table of
the whole batch, and `read_cifar` splits that into records whose images
are read-only views of it; both writers lay records out as one table with
`_cifar_table`.  `write_augmented_table` composes chunks of a table in
place with `compositor.compose_batch`, knowing nothing of composition
itself, while the one worker of a per-run ``ThreadPoolExecutor(1)``
hashes and writes the chunk composed before; `yona augment` runs it on
`read_cifar_chunks`, so it never holds the whole batch.

PNG support is a minimal self-contained codec (8-bit grayscale/RGB,
non-interlaced) so previews round-trip losslessly without extra
dependencies.  `write_png` stores each scanline under filter type 0
(None) in one zlib stream at level 6.  `read_png` checks every chunk's
CRC, inflates at most the bytes the header declares, and undoes all five
standard filters in one scanline loop (`_unfilter`), so a PNG another tool
wrote reads too.

Manifests (format 2) are flat ``key=value`` text, one line per
`DatasetManifest.KEYS` entry in that order, with a SHA-256 content digest
over all emitted record bytes, the value ``sha256sum`` prints for
``augmented.bin``.  Every output file is written under a temp name in its
directory and renamed into place (`_staged`).  `write_files` renames a
set of files only once every one of their temps is written, so a failed
write leaves none; `write_atomic` is its one-file case, and only
`write_augmented_table` stages on its own, since it streams
``augmented.bin``.  `fnv1a_64` is a plain loop that no command runs, kept
for perfbench and the golden pins of the tests.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import itertools
import os
import pathlib
import re
import struct
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, compositor
from .augment import AugmentationSpec, default_cifar10_policy
from .compositor import YonaConfig, compose_batch
from .errors import CorruptRecordError, FormatError
from .image import GAUSSIAN_SAMPLER, GaussianNoise, ImageTensor
from .rng import RNG_SCHEME

CIFAR10 = "cifar10"
CIFAR100 = "cifar100"

_RECORD_BYTES = {CIFAR10: 3073, CIFAR100: 3074}
_LABEL_LIMIT = {CIFAR10: 10, CIFAR100: 100}
_COARSE_LIMIT = 20
_PIXELS = 3072  # 3 x 32 x 32
_SHAPE = (3, 32, 32)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes, value: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a over a byte string; pass ``value`` to chain chunks.

    A plain byte-at-a-time loop, kept for perfbench and the golden pins of
    augmentation bytes in the tests; no command computes it, since manifest
    format 2 carries a SHA-256 digest (`content_digest`).  ``data`` is any
    contiguous buffer (bytes, bytearray, memoryview, uint8 array).
    """
    for byte in memoryview(data).cast("B"):
        value = ((value ^ byte) * FNV_PRIME) & _MASK64
    return value


@dataclass
class CifarRecord:
    """One labelled 3x32x32 image; ``coarse_label`` is None for CIFAR-10."""

    fine_label: int
    image: ImageTensor
    coarse_label: int | None = None


def _read_chunks(path, variant: str, tables):
    """Yield the records of the ``variant`` batch file at ``path`` in file
    order, each chunk the leading rows of the next of ``tables(fh)``, a
    C-contiguous ``(rows, record size)`` uint8 table filled through `open`
    (so ``path`` may name a pipe, or a file that grows) until it is full or
    the file ends.

    Every chunk's labels are checked before it is yielded, with the
    absolute record index and byte offset in the error (CorruptRecordError);
    at the end, a byte count that is not a multiple of the record size
    raises FormatError with the offset of the first incomplete record.
    """
    if variant not in _RECORD_BYTES:
        raise ValueError(f"unknown dataset variant {variant!r}")
    record_size = _RECORD_BYTES[variant]
    with open(path, "rb") as fh:
        first = 0  # records read before this chunk
        for table in tables(fh):
            flat = table.reshape(-1)
            got = 0
            while got < flat.size and (n := fh.readinto(flat[got:])):
                got += n
            chunk = table[:got // record_size]
            _check_labels(chunk[:, :record_size - _PIXELS], variant,
                          f"{path}: ", first)
            if got % record_size:
                raise FormatError(
                    f"{path}: file length {first * record_size + got} is "
                    f"not a multiple of the {record_size}-byte record size",
                    offset=(first + len(chunk)) * record_size)
            if len(chunk):
                yield chunk
            if got < flat.size:  # the end of the file
                return
            first += len(chunk)


def read_cifar_chunks(path, variant: str):
    """The records of the ``variant`` batch file at ``path`` as consecutive
    writable chunks of up to ``compositor._LANES`` rows, read and checked as
    `_read_chunks` does into two reused tables taken in turn: a chunk's rows
    are overwritten when the chunk after next is read."""
    def tables(fh):
        shape = (compositor._LANES, _RECORD_BYTES[variant])
        return itertools.cycle([np.empty(shape, dtype=np.uint8),
                                np.empty(shape, dtype=np.uint8)])

    return _read_chunks(path, variant, tables)


def read_cifar_table(path, variant: str) -> np.ndarray:
    """The ``variant`` batch file at ``path`` as a writable ``(N, record
    size)`` uint8 table, one row per record, read and checked as
    `_read_chunks` does.

    A regular file is read into one table of the size ``fstat`` gives; a
    pipe (its size reads 0), or what a file added since, ``_LANES``
    records at a time, and the chunks are joined.
    """
    def tables(fh):
        record_size = _RECORD_BYTES[variant]
        yield np.empty((os.fstat(fh.fileno()).st_size // record_size,
                        record_size), dtype=np.uint8)
        while True:
            yield np.empty((compositor._LANES, record_size), dtype=np.uint8)

    chunks = list(_read_chunks(path, variant, tables)) or [
        np.empty((0, _RECORD_BYTES[variant]), dtype=np.uint8)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def table_pixels(table: np.ndarray) -> np.ndarray:
    """The ``(N, 3, 32, 32)`` pixel view of a CIFAR table."""
    return table[:, -_PIXELS:].reshape(-1, *_SHAPE)


def read_cifar(path, variant: str) -> list[CifarRecord]:
    """Parse a CIFAR binary batch file into records, validating labels.

    Raises FormatError (with the byte offset of the first incomplete record)
    on truncation and CorruptRecordError on out-of-range labels.  Each image
    is a read-only view of the bytes read (`read_cifar_table`).
    """
    table = read_cifar_table(path, variant)
    table.flags.writeable = False
    fine = table[:, -_PIXELS - 1].tolist()
    coarse = table[:, 0].tolist() if variant != CIFAR10 else [None] * len(fine)
    pixels = table_pixels(table)
    return [CifarRecord(label, ImageTensor(image), coarse_label)
            for label, coarse_label, image in zip(fine, coarse, pixels)]


def _check_labels(labels: np.ndarray, variant: str, where: str = "",
                  first: int = 0) -> None:
    """Raise CorruptRecordError naming the first record whose fine label,
    then the first whose coarse label, lies outside the range ``variant``
    allows.  ``labels`` holds the label bytes of records ``first, first +
    1, ...`` as integers, one row per record; the error names that record's
    index and its byte offset."""
    checks = [("fine", labels[:, -1], _LABEL_LIMIT[variant])]
    if variant == CIFAR100:
        checks.append(("coarse", labels[:, 0], _COARSE_LIMIT))
    for name, column, limit in checks:
        bad = np.flatnonzero((column < 0) | (column >= limit))
        if bad.size:
            i = int(bad[0])
            raise CorruptRecordError(
                f"{where}record {first + i} has {name} label "
                f"{int(column[i])}, valid range is [0, {limit - 1}]",
                offset=(first + i) * _RECORD_BYTES[variant])


def _cifar_table(records: list, variant: str) -> np.ndarray:
    """``records`` as a writable ``variant`` table, labels and pixels in
    place (see `read_cifar_table`), in one walk over the records.  Raises
    FormatError at the first record that is not 3x32x32 and
    CorruptRecordError at the first CIFAR-100 record without a coarse
    label, then at the first label `read_cifar` would reject."""
    record_size = _RECORD_BYTES[variant]
    label_bytes = record_size - _PIXELS
    table = np.empty((len(records), record_size), dtype=np.uint8)
    pixels = table_pixels(table)
    labels = []
    for i, record in enumerate(records):
        if record.image.shape != _SHAPE:
            raise FormatError(f"record {i} has image shape "
                              f"{record.image.shape}, a CIFAR record is "
                              f"{_SHAPE}")
        if variant == CIFAR100 and record.coarse_label is None:
            raise CorruptRecordError(f"record {i} has no coarse label",
                                     offset=i * record_size)
        labels += (record.coarse_label, record.fine_label) \
            if variant == CIFAR100 else (record.fine_label,)
        pixels[i] = record.image.array
    # array("q") takes ints only, as bytes() did: no float or str coerced
    labels = np.frombuffer(array.array("q", labels), dtype=np.int64).reshape(
        -1, label_bytes)
    _check_labels(labels, variant)
    table[:, :label_bytes] = labels
    return table


def write_cifar(records, path, variant: str) -> None:
    """Serialize records into the CIFAR binary batch layout, atomically
    (`write_atomic`).  Shapes and labels are checked before the file is
    opened (see `_cifar_table`)."""
    write_atomic(path, _cifar_table(list(records), variant))


# --------------------------------------------------------------------------
# Manifests

_DIGEST_RE = re.compile(r"sha256:[0-9a-f]{64}")
# the integer fields of a manifest, as (text, test) of what a run writes
_MANIFEST_RULES = {"count": (">= 0", lambda v: v >= 0),
                   "seed": ("in [0, 2**64)", lambda v: 0 <= v < 2**64)}


def content_digest(data) -> str:
    """``"sha256:<hex>"`` of a contiguous buffer, hashed without a copy."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass
class DatasetManifest:
    """Manifest format 2: what produced an emitted dataset, and its digest.

    ``digest`` is `content_digest` of ``augmented.bin``; ``engine`` and
    ``rng`` name the yona version and the pinned random-stream scheme.
    """

    FORMAT = 2
    # the manifest's lines in order; ``format`` is FORMAT, the rest fields
    KEYS = ("format", "engine", "rng", "dataset", "count", "seed",
            "augmentation", "yona", "digest")

    dataset: str
    count: int
    seed: int
    augmentation: str
    yona: str
    digest: str
    engine: str = f"yona-{__version__}"
    rng: str = RNG_SCHEME

    def to_text(self) -> str:
        return "".join(f"{key}={getattr(self, key, self.FORMAT)}\n"
                       for key in self.KEYS)

    @classmethod
    def from_text(cls, text: str) -> "DatasetManifest":
        """Parse `to_text` output; raise FormatError on a format-1 manifest,
        a Gaussian ``yona`` value without the sampler tag, a missing key, a
        count, seed or digest that does not parse, or a value no run could
        write: a dataset other than cifar10 or cifar100, a negative count or
        a seed outside [0, 2**64)."""
        values = {}
        for line in text.splitlines():
            key, _, value = line.strip().partition("=")
            if key:
                values[key] = value
        version = values.get("format", "1")  # format 1 had no format line
        if version == "1":
            raise FormatError(
                "manifest format 1 (FNV-1a digest) is no longer read; "
                "re-emit the dataset with `yona augment` to upgrade it to "
                f"format {cls.FORMAT}")
        if version != str(cls.FORMAT):
            raise FormatError(f"manifest key 'format': unknown format "
                              f"{version!r}")
        parsed = {}
        for key in cls.KEYS[1:]:  # every field, in text order
            if key not in values:
                raise FormatError(f"manifest key {key!r} is missing")
            parsed[key] = values[key]
        noise = re.search(r"noise:GaussianNoise:[^,]*", values["yona"])
        if noise and not noise[0].endswith(":" + GAUSSIAN_SAMPLER):
            raise FormatError(
                f"manifest key 'yona': {noise[0]!r} names no Gaussian "
                f"sampler (an emit of the old Box-Muller law); re-emit the "
                f"dataset with `yona augment`")
        if not _DIGEST_RE.fullmatch(values["digest"]):
            raise FormatError(f"manifest key 'digest': {values['digest']!r} "
                              "is not sha256:<64 lowercase hex digits>")
        if values["dataset"] not in _RECORD_BYTES:
            raise FormatError(f"manifest key 'dataset': "
                              f"{values['dataset']!r} is not "
                              f"{' or '.join(_RECORD_BYTES)}")
        for key, (rule, holds) in _MANIFEST_RULES.items():
            try:
                parsed[key] = int(values[key])
            except ValueError:
                raise FormatError(f"manifest key {key!r}: "
                                  f"{values[key]!r} is not an integer"
                                  ) from None
            if not holds(parsed[key]):
                raise FormatError(f"manifest key {key!r} must be {rule}, "
                                  f"got {parsed[key]}")
        return cls(**parsed)


def _num(x) -> str:
    """``x`` printed with ``:g`` when that reads back as ``x``, else its
    exact float repr, so two settings never share one manifest header."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def describe_augmentation(spec: AugmentationSpec) -> str:
    parts = [spec.kind, f"p:{_num(spec.apply_probability)}"]
    if spec.kind == "jitter":
        parts.append("bcsh:" + "/".join(_num(x) for x in (
            spec.brightness, spec.contrast, spec.saturation, spec.hue)))
    elif spec.kind == "erasing":
        parts.append(f"scale:{_num(spec.erase_scale[0])}-"
                     f"{_num(spec.erase_scale[1])}")
        parts.append(f"ratio:{_num(spec.erase_ratio[0])}-"
                     f"{_num(spec.erase_ratio[1])}")
        parts.append("fill:0")  # fixed, still named: manifests stay the same
    elif spec.kind == "cutout":
        parts.append(f"area:{_num(spec.cutout_area_fraction)}")
        parts.append("fill:0")
    elif spec.kind == "grid":
        parts.append(f"grid:{spec.grid_rows}x{spec.grid_cols}")
        parts.append("cell_p:0.5")
    elif spec.kind == "randaug":
        parts.append(f"n:{spec.randaug_num_ops}")
        parts.append(f"m:{_num(spec.randaug_magnitude)}")
    elif spec.kind == "autoaug" and spec.policy != default_cifar10_policy():
        table = repr(spec.policy.sub_policies).encode()
        parts.append(f"policy:{content_digest(table)}")
    return ",".join(parts)


def describe_yona(config: YonaConfig | None) -> str:
    if config is None:
        return "off"
    noise = [type(config.noise).__name__] + [
        _num(getattr(config.noise, f.name)) for f in fields(config.noise)]
    if type(config.noise) is GaussianNoise:
        noise.append(GAUSSIAN_SAMPLER)
    return (f"fraction:{_num(config.mask_fraction)},"
            f"axis:{config.axis_policy},"
            f"side:{config.masked_piece_policy},noise:{':'.join(noise)},"
            f"region:{config.region_reference}")


# --------------------------------------------------------------------------
# Augmented dataset emission

@contextlib.contextmanager
def _staged(out_dir):
    """Yield ``stage(name)``, which opens a fresh temp name in ``out_dir``
    for binary writing and returns the handle; the caller closes it and
    ``os.replace``s its ``name`` into place.  On exit every handle is
    closed and then every temp not yet renamed is removed, so a failure
    leaves none behind."""
    token = f"{os.getpid()}.{os.urandom(4).hex()}.tmp"
    with contextlib.ExitStack() as cleanup:
        def stage(name):
            temp = os.path.join(out_dir, f".{name}.{token}")
            try:
                handle = open(temp, "wb")
            except OSError as exc:  # name the file, not its random temp
                exc.filename = os.path.join(out_dir, name)
                raise
            cleanup.callback(pathlib.Path(temp).unlink, missing_ok=True)
            return cleanup.enter_context(handle)  # closed before removed

        yield stage


def write_augmented_dataset(records, aug: AugmentationSpec,
                            yona_config: YonaConfig | None, seed: int,
                            out_dir, variant: str | None = None
                            ) -> DatasetManifest:
    """Augment every record and emit a CIFAR-layout file plus a manifest.

    Every record must be 3x32x32 with labels `read_cifar` accepts
    (`_cifar_table` raises before any work otherwise); they are laid out
    as one table and emitted by `write_augmented_table`.  ``variant`` None
    means CIFAR-100 if every record has a coarse label, CIFAR-10 if none
    has (FormatError on a mix).
    """
    records = list(records)
    if variant is None:
        coarse = [r.coarse_label is not None for r in records]
        if any(coarse) and not all(coarse):
            raise FormatError(f"records 0 and {coarse.index(not coarse[0])} "
                              f"disagree on having a coarse label")
        variant = CIFAR100 if any(coarse) else CIFAR10
    return write_augmented_table(_cifar_table(records, variant), variant, aug,
                                 yona_config, seed, out_dir)


def _append(data, digest, rows) -> None:
    digest.update(rows)
    data.write(rows)


def _missing_dirs(path) -> list[str]:
    """``path`` and those of its ancestors that do not exist, deepest
    first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def write_augmented_table(tables, variant: str, aug: AugmentationSpec,
                          yona_config: YonaConfig | None, seed: int,
                          out_dir) -> DatasetManifest:
    """Augment the records of a writable ``variant`` table (as
    `read_cifar_table` returns), or of the consecutive chunks of one that
    the iterable ``tables`` yields (as `read_cifar_chunks` does), in place
    and emit them as ``augmented.bin`` plus a manifest.

    Labels pass through untouched; `compose_batch` composes the pixels from
    per-record streams derived from (seed, record index), so no record's
    bytes depend on any other record: record ``i`` equals `compose_record`
    on it alone.

    A table goes through in chunks of ``compositor._LANES`` records: the
    caller's thread takes chunk k and composes it, then waits until the
    one worker of a ``ThreadPoolExecutor(1)`` has fed chunk k-1 to the
    SHA-256 digest and appended it to the staged ``augmented.bin`` (both
    release the GIL on large buffers), and submits chunk k.  So the bytes
    reach the file and the digest in record order, and a source may refill
    chunk k-1's rows once chunk k+1 is taken.  Nothing is created before
    the first chunk has composed.

    Returns the manifest.  Both files are written under temp names in
    ``out_dir`` and renamed into place, ``augmented.bin`` first and
    ``manifest.txt`` last, after any old manifest is removed.  An
    exception in either thread (a GeometryError, or a bad label or short
    record that a later chunk of the source raises) joins the worker,
    removes the temps and any directory this run created, and is raised in
    the caller's thread (the caller's own when both fail: an unread future
    is dropped): a failed run leaves nothing behind, and a new
    ``augmented.bin`` never sits next to an old manifest.
    """
    lanes = compositor._LANES
    if isinstance(tables, np.ndarray):
        table = tables
        tables = (table[start:start + lanes]
                  for start in range(0, len(table), lanes))
    digest = hashlib.sha256()
    manifest_path = os.path.join(out_dir, "manifest.txt")
    created = _missing_dirs(out_dir)
    try:
        # the helper is joined before `_staged` closes and removes the temps
        with _staged(out_dir) as stage, ThreadPoolExecutor(1) as helper:
            def staged_data():  # called once a chunk has composed, or none
                os.makedirs(out_dir, exist_ok=True)
                return stage("augmented.bin")

            count, appended = 0, None
            for chunk in tables:
                compose_batch(table_pixels(chunk), count, aug, yona_config,
                              seed)
                if appended is None:
                    data = staged_data()
                else:
                    appended.result()
                appended = helper.submit(_append, data, digest, chunk)
                count += len(chunk)
            if appended is None:  # no records: an empty file
                data = staged_data()
            else:
                appended.result()
            data.close()
            manifest = DatasetManifest(
                dataset=variant, count=count, seed=seed,
                augmentation=describe_augmentation(aug),
                yona=describe_yona(yona_config),
                digest="sha256:" + digest.hexdigest())
            with stage("manifest.txt") as fh:
                fh.write(manifest.to_text().encode())
            if os.path.lexists(manifest_path):
                os.remove(manifest_path)
            os.replace(data.name, os.path.join(out_dir, "augmented.bin"))
            os.replace(fh.name, manifest_path)
    except BaseException:
        for path in created:  # empty once the temps are gone
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    return manifest


# --------------------------------------------------------------------------
# PNG codec (8-bit grayscale / RGB, non-interlaced)

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def encode_png(image: ImageTensor) -> bytes:
    """The lossless PNG file of ``image``; 1-channel images become grayscale
    PNGs."""
    channels = image.channels
    if channels not in (1, 3):
        raise FormatError(
            f"PNG export supports 1 or 3 channels, got {channels}")
    height, width = image.height, image.width
    color_type = 0 if channels == 1 else 2
    # each scanline: filter type 0 (None), then the row's interleaved bytes
    rows = np.pad(image.array.transpose(1, 2, 0).reshape(height, -1),
                  ((0, 0), (1, 0)))
    header = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (_PNG_SIGNATURE + _chunk(b"IHDR", header)
            + _chunk(b"IDAT", zlib.compress(rows.tobytes(), 6))
            + _chunk(b"IEND", b""))


def write_png(image: ImageTensor, path) -> None:
    """`encode_png` of ``image``, written atomically (`write_atomic`)."""
    write_atomic(path, encode_png(image))


def write_files(out_dir, files: dict) -> None:
    """Write each ``name: data`` of ``files`` into ``out_dir`` whole: every
    file goes to a temp name first (`_staged`), and only once all are
    written are they renamed into place, in order.  A failed write leaves
    none of them and no temp; a failed rename leaves those before it."""
    with _staged(out_dir) as stage:
        temps = []
        for name, data in files.items():
            with stage(name) as fh:
                fh.write(data)
            temps.append(fh.name)
        for temp, name in zip(temps, files):
            os.replace(temp, os.path.join(out_dir, name))


def write_atomic(path, data) -> None:
    """`write_files` of one file: ``path`` never holds a partial file."""
    directory, name = os.path.split(os.fspath(path))
    write_files(directory or ".", {name: data})


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    """Scanlines of ``height * (stride + 1)`` bytes ``raw`` (a filter type
    byte, then ``stride`` bytes, per row) as unfiltered pixel bytes."""
    out = bytearray(height * stride)
    for y in range(height):
        start, row = y * (stride + 1), y * stride
        ftype = raw[start]
        out[row:row + stride] = raw[start + 1:start + 1 + stride]
        if ftype == 0:
            continue
        if ftype > 4:
            raise FormatError(f"unknown PNG filter type {ftype}",
                              offset=start + 1 + stride)
        # left, up and up-left of each byte; 0 off the image's top or left
        for x in range(row, row + stride):
            left = out[x - bpp] if x - row >= bpp else 0
            up = out[x - stride] if y else 0
            if ftype == 1:
                predictor = left
            elif ftype == 2:
                predictor = up
            elif ftype == 3:
                predictor = (left + up) // 2
            else:
                predictor = _paeth(left, up, out[x - stride - bpp]
                                   if y and x - row >= bpp else 0)
            out[x] = (out[x] + predictor) & 0xFF
    return out


def read_png(path) -> ImageTensor:
    """Decode an 8-bit grayscale or RGB non-interlaced PNG."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _PNG_SIGNATURE:
        raise FormatError(f"{path}: not a PNG file", offset=0)
    pos = 8
    header = None
    idat = bytearray()
    while pos + 8 <= len(blob):
        length = struct.unpack(">I", blob[pos:pos + 4])[0]
        tag = blob[pos + 4:pos + 8]
        if pos + 12 + length > len(blob):  # the body or its CRC is cut
            raise FormatError(f"{path}: truncated chunk {tag!r}", offset=pos)
        body = blob[pos + 8:pos + 8 + length]
        crc = struct.unpack(
            ">I", blob[pos + 8 + length:pos + 12 + length])[0]
        if crc != (zlib.crc32(tag + body) & 0xFFFFFFFF):
            raise FormatError(f"{path}: CRC mismatch in {tag!r}", offset=pos)
        if tag == b"IHDR":
            if length != 13:
                raise FormatError(f"{path}: IHDR holds {length} bytes, "
                                  f"not 13", offset=pos)
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise FormatError(f"{path}: missing IHDR", offset=8)
    width, height, depth, color_type, _, _, interlace = header
    if depth != 8 or interlace != 0 or color_type not in (0, 2):
        raise FormatError(
            f"{path}: unsupported PNG (depth={depth}, color={color_type}, "
            f"interlace={interlace})")
    if width == 0 or height == 0:
        raise FormatError(f"{path}: empty image ({width}x{height})")
    channels = 1 if color_type == 0 else 3
    stride = width * channels
    size = height * (stride + 1)  # a filter type byte leads each row
    inflater = zlib.decompressobj()
    try:
        # inflate at most a byte past the size the header declares: a
        # longer stream is refused without being inflated whole
        raw = inflater.decompress(bytes(idat), min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise FormatError(f"{path}: corrupt pixel data ({exc})") from exc
    if len(raw) != size or not inflater.eof:
        raise FormatError(f"{path}: pixel data does not hold the {size} "
                          f"bytes its header declares")
    pixels = _unfilter(raw, height, stride, channels)
    arr = np.frombuffer(bytes(pixels), dtype=np.uint8).reshape(
        height, width, channels)
    return ImageTensor(np.ascontiguousarray(arr.transpose(2, 0, 1)))
