"""Dataset ingestion and emission.

CIFAR-10/100 binary archives are both the input and the output format, so
augmented datasets feed any external trainer unchanged:

* CIFAR-10 record: ``[label u8][1024 R][1024 G][1024 B]``, row-major planes;
* CIFAR-100 record: ``[coarse u8][fine u8][3072 pixel bytes]``.

Both writers lay records out through `_cifar_table`; `augment` composes
with `compositor.compose_batch` and knows nothing of composition itself.

PNG support is a minimal self-contained codec (8-bit grayscale/RGB,
non-interlaced) so previews round-trip losslessly without extra
dependencies.  Manifests (format 2) are flat ``key=value`` text with a
SHA-256 content digest over all emitted record bytes, the value
``sha256sum`` prints for ``augmented.bin``.  Every output file is written
under a temp name in its directory and renamed into place (`_staged`).
`fnv1a_64` is a plain loop that no command runs, kept for perfbench and
the golden pins of the tests.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import itertools
import os
import re
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
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


def read_cifar(path, variant: str) -> list[CifarRecord]:
    """Parse a CIFAR binary batch file into records, validating labels.

    Raises FormatError (with the byte offset of the first incomplete record)
    on truncation and CorruptRecordError on out-of-range labels.
    """
    if variant not in _RECORD_BYTES:
        raise ValueError(f"unknown dataset variant {variant!r}")
    record_size = _RECORD_BYTES[variant]
    with open(path, "rb") as fh:
        blob = fh.read()
    complete = len(blob) // record_size
    if len(blob) % record_size != 0:
        raise FormatError(
            f"{path}: file length {len(blob)} is not a multiple of the "
            f"{record_size}-byte record size",
            offset=complete * record_size)
    if complete == 0:
        return []
    table = np.frombuffer(blob, dtype=np.uint8).reshape(complete, record_size)
    label_bytes = record_size - _PIXELS
    _check_labels(table[:, :label_bytes], variant, f"{path}: ")
    fine = table[:, label_bytes - 1]
    pixels = table[:, label_bytes:].reshape(complete, *_SHAPE)
    return [CifarRecord(fine_label=int(fine[i]), image=ImageTensor(pixels[i]),
                        coarse_label=int(table[i, 0]) if variant == CIFAR100
                        else None) for i in range(complete)]


def _check_labels(labels: np.ndarray, variant: str, where: str = "") -> None:
    """Raise CorruptRecordError naming the first record whose fine label,
    then the first whose coarse label, lies outside the range ``variant``
    allows.  ``labels`` holds each record's label bytes as integers, one row
    per record; the error's offset is that record's byte offset."""
    checks = [("fine", labels[:, -1], _LABEL_LIMIT[variant])]
    if variant == CIFAR100:
        checks.append(("coarse", labels[:, 0], _COARSE_LIMIT))
    for name, column, limit in checks:
        bad = np.flatnonzero((column < 0) | (column >= limit))
        if bad.size:
            i = int(bad[0])
            raise CorruptRecordError(
                f"{where}record {i} has {name} label {int(column[i])}, "
                f"valid range is [0, {limit - 1}]",
                offset=i * _RECORD_BYTES[variant])


def _cifar_table(records: list, variant: str
                 ) -> tuple[bytearray, np.ndarray]:
    """One bytearray of ``records`` as a ``variant`` batch with the labels
    in place, and an ``(N, 3, 32, 32)`` view of its zero pixels to fill.
    Raises FormatError at the first record that is not 3x32x32 and
    CorruptRecordError at the first CIFAR-100 record without a coarse
    label, then at the first label `read_cifar` would reject."""
    record_size = _RECORD_BYTES[variant]
    for i, record in enumerate(records):
        if record.image.shape != _SHAPE:
            raise FormatError(f"record {i} has image shape "
                              f"{record.image.shape}, a CIFAR record is "
                              f"{_SHAPE}")
        if variant == CIFAR100 and record.coarse_label is None:
            raise CorruptRecordError(f"record {i} has no coarse label",
                                     offset=i * record_size)
    label_bytes = record_size - _PIXELS
    # array("q") takes ints only, as bytes() did: no float or str coerced
    labels = np.frombuffer(array.array("q", itertools.chain.from_iterable(
        (r.coarse_label, r.fine_label) if variant == CIFAR100
        else (r.fine_label,) for r in records)), dtype=np.int64).reshape(
            -1, label_bytes)
    _check_labels(labels, variant)
    blob = bytearray(len(records) * record_size)
    table = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record_size)
    table[:, :label_bytes] = labels
    return blob, table[:, label_bytes:].reshape(-1, *_SHAPE)


def write_cifar(records, path, variant: str) -> None:
    """Serialize records into the CIFAR binary batch layout, atomically
    (`write_atomic`).  Shapes and labels are checked before the file is
    opened (see `_cifar_table`)."""
    records = list(records)
    blob, pixels = _cifar_table(records, variant)
    for i, record in enumerate(records):
        pixels[i] = record.image.array
    write_atomic(path, blob)


# --------------------------------------------------------------------------
# Manifests

_DIGEST_RE = re.compile(r"sha256:[0-9a-f]{64}")


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

    dataset: str
    count: int
    seed: int
    augmentation: str
    yona: str
    digest: str
    engine: str = f"yona-{__version__}"
    rng: str = RNG_SCHEME

    def to_text(self) -> str:
        return (f"format={self.FORMAT}\n"
                f"engine={self.engine}\n"
                f"rng={self.rng}\n"
                f"dataset={self.dataset}\n"
                f"count={self.count}\n"
                f"seed={self.seed}\n"
                f"augmentation={self.augmentation}\n"
                f"yona={self.yona}\n"
                f"digest={self.digest}\n")

    @classmethod
    def from_text(cls, text: str) -> "DatasetManifest":
        """Parse `to_text` output; raise FormatError on a format-1 manifest,
        a Gaussian ``yona`` value without the sampler tag, a missing key, or
        a count, seed or digest that does not parse."""
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
        keys = [f.name for f in fields(cls)]
        for key in keys:
            if key not in values:
                raise FormatError(f"manifest key {key!r} is missing")
        noise = re.search(r"noise:GaussianNoise:[^,]*", values["yona"])
        if noise and not noise[0].endswith(":" + GAUSSIAN_SAMPLER):
            raise FormatError(
                f"manifest key 'yona': {noise[0]!r} names no Gaussian "
                f"sampler (an emit of the old Box-Muller law); re-emit the "
                f"dataset with `yona augment`")
        if not _DIGEST_RE.fullmatch(values["digest"]):
            raise FormatError(f"manifest key 'digest': {values['digest']!r} "
                              "is not sha256:<64 lowercase hex digits>")
        parsed = {key: values[key] for key in keys}
        for key in ("count", "seed"):
            try:
                parsed[key] = int(values[key])
            except ValueError:
                raise FormatError(f"manifest key {key!r}: "
                                  f"{values[key]!r} is not an integer"
                                  ) from None
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
        parts.append(f"fill:{spec.erase_fill}")
    elif spec.kind == "cutout":
        parts.append(f"area:{_num(spec.cutout_area_fraction)}")
        parts.append(f"fill:{spec.cutout_fill}")
    elif spec.kind == "grid":
        parts.append(f"grid:{spec.grid_rows}x{spec.grid_cols}")
        parts.append(f"cell_p:{_num(spec.grid_transform_probability)}")
    elif spec.kind == "randaug":
        parts.append(f"n:{spec.randaug_num_ops}")
        parts.append(f"m:{_num(spec.randaug_magnitude)}")
    elif spec.kind == "autoaug" and spec.policy is not None \
            and spec.policy != default_cifar10_policy():
        # exact: float reprs round-trip, unlike the :g policy file format
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
    """Yield ``stage(name, data)``, which writes ``data`` to a fresh temp
    name in ``out_dir`` and returns that path for the caller to
    ``os.replace`` into place; on exit every temp not yet renamed is
    removed, so a failure leaves none behind."""
    token = f"{os.getpid()}.{os.urandom(4).hex()}.tmp"
    temps = []

    def stage(name, data) -> str:
        temp = os.path.join(out_dir, f".{name}.{token}")
        temps.append(temp)
        with open(temp, "wb") as fh:
            fh.write(data)
        return temp

    try:
        yield stage
    finally:
        for temp in temps:
            if os.path.lexists(temp):
                os.remove(temp)


def write_augmented_dataset(records, aug: AugmentationSpec,
                            yona_config: YonaConfig | None, seed: int,
                            out_dir, variant: str | None = None
                            ) -> DatasetManifest:
    """Augment every record and emit a CIFAR-layout file plus a manifest.

    Labels pass through untouched; pixel bytes are produced from per-record
    streams derived from (seed, record index), so no record's bytes depend
    on any other record: record ``i`` equals `compose_record` on it alone.
    Every record must be 3x32x32 with labels `read_cifar` accepts
    (`_cifar_table` raises before any work otherwise); `compose_batch`
    composes them.  ``variant`` None means CIFAR-100 if every record has a
    coarse label, CIFAR-10 if none has (FormatError on a mix).

    Returns the manifest.  Both files are written under temp names in
    ``out_dir`` and renamed into place, ``augmented.bin`` first and
    ``manifest.txt`` last, after any old manifest is removed: a failed run
    leaves no temp file, and a new ``augmented.bin`` never sits next to an
    old manifest.
    """
    records = list(records)
    if variant is None:
        coarse = [r.coarse_label is not None for r in records]
        if any(coarse) and not all(coarse):
            raise FormatError(f"records 0 and {coarse.index(not coarse[0])} "
                              f"disagree on having a coarse label")
        variant = CIFAR100 if any(coarse) else CIFAR10
    out, pixels = _cifar_table(records, variant)
    compose_batch([r.image for r in records], 0, aug, yona_config, seed,
                  pixels)

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with _staged(out_dir) as stage:
        data_temp = stage("augmented.bin", out)
        manifest = DatasetManifest(
            dataset=variant, count=len(records), seed=seed,
            augmentation=describe_augmentation(aug),
            yona=describe_yona(yona_config), digest=content_digest(out))
        manifest_temp = stage("manifest.txt", manifest.to_text().encode())
        if os.path.lexists(manifest_path):
            os.remove(manifest_path)
        os.replace(data_temp, os.path.join(out_dir, "augmented.bin"))
        os.replace(manifest_temp, manifest_path)
    return manifest


# --------------------------------------------------------------------------
# PNG codec (8-bit grayscale / RGB, non-interlaced)

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def write_png(image: ImageTensor, path) -> None:
    """Encode losslessly; 1-channel images become grayscale PNGs.  The file
    is written atomically (`write_atomic`)."""
    channels = image.channels
    if channels not in (1, 3):
        raise FormatError(
            f"PNG export supports 1 or 3 channels, got {channels}")
    height, width = image.height, image.width
    color_type = 0 if channels == 1 else 2
    interleaved = np.ascontiguousarray(image.array.transpose(1, 2, 0))
    rows = bytearray()
    stride = width * channels
    flat = interleaved.reshape(height, stride)
    for y in range(height):
        rows.append(0)  # filter type None
        rows += flat[y].tobytes()
    header = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    payload = (_PNG_SIGNATURE + _chunk(b"IHDR", header)
               + _chunk(b"IDAT", zlib.compress(bytes(rows), 6))
               + _chunk(b"IEND", b""))
    write_atomic(path, payload)


def write_atomic(path, data) -> None:
    """Write ``data`` to a temp name next to ``path``, then rename it into
    place: ``path`` never holds a partial file."""
    directory, name = os.path.split(os.fspath(path))
    with _staged(directory or ".") as stage:
        os.replace(stage(name, data), path)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    out = bytearray(height * stride)
    pos = 0
    for y in range(height):
        if pos >= len(raw):
            raise FormatError("PNG pixel data ends early", offset=pos)
        ftype = raw[pos]
        pos += 1
        line = raw[pos:pos + stride]
        if len(line) < stride:
            raise FormatError("PNG pixel data ends early", offset=pos)
        pos += stride
        row_start = y * stride
        prev_start = row_start - stride
        if ftype == 0:
            out[row_start:row_start + stride] = line
        elif ftype == 1:
            for x in range(stride):
                left = out[row_start + x - bpp] if x >= bpp else 0
                out[row_start + x] = (line[x] + left) & 0xFF
        elif ftype == 2:
            for x in range(stride):
                up = out[prev_start + x] if y > 0 else 0
                out[row_start + x] = (line[x] + up) & 0xFF
        elif ftype == 3:
            for x in range(stride):
                left = out[row_start + x - bpp] if x >= bpp else 0
                up = out[prev_start + x] if y > 0 else 0
                out[row_start + x] = (line[x] + (left + up) // 2) & 0xFF
        elif ftype == 4:
            for x in range(stride):
                left = out[row_start + x - bpp] if x >= bpp else 0
                up = out[prev_start + x] if y > 0 else 0
                diag = out[prev_start + x - bpp] if (y > 0 and x >= bpp) else 0
                out[row_start + x] = (line[x] + _paeth(left, up, diag)) & 0xFF
        else:
            raise FormatError(f"unknown PNG filter type {ftype}", offset=pos)
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
        body = blob[pos + 8:pos + 8 + length]
        if len(body) != length:
            raise FormatError(f"{path}: truncated chunk {tag!r}", offset=pos)
        crc = struct.unpack(
            ">I", blob[pos + 8 + length:pos + 12 + length])[0]
        if crc != (zlib.crc32(tag + body) & 0xFFFFFFFF):
            raise FormatError(f"{path}: CRC mismatch in {tag!r}", offset=pos)
        if tag == b"IHDR":
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
    channels = 1 if color_type == 0 else 3
    stride = width * channels
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise FormatError(f"{path}: corrupt pixel data ({exc})") from exc
    pixels = _unfilter(raw, height, stride, channels)
    arr = np.frombuffer(bytes(pixels), dtype=np.uint8).reshape(
        height, width, channels)
    return ImageTensor(np.ascontiguousarray(arr.transpose(2, 0, 1)))
