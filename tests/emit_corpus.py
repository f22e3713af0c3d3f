"""The emit-digest corpus: what `yona augment` writes, case by case.

Each case is one `augment` over a 1,100-record batch (it crosses the
1,024-record chunk border of `compose_batch`) built from yona's own pinned
stream, never numpy's generators.  The corpus pins each case's
`augmented.bin` SHA-256 and its full manifest text, one line each, the
full `yona stats` report of the cases in ``STATS`` (the same flags and
seed), and the ``index.txt`` of one `yona preview` with the SHA-256 of
each PNG's decoded pixels (zlib builds may compress the same pixels to
other bytes), in ``tests/fixtures/emit_digests.txt``;
`tests/test_emit_corpus.py` recomputes it and diffs it line by line.  An output byte may change only
openly, in a change that rewrites the fixture with::

    PYTHONPATH=src python tests/emit_corpus.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from yona.augment import KINDS
from yona.cli import main
from yona.dataset import read_png
from yona.rng import SeedSpec, derive_stream

FIXTURE = Path(__file__).parent / "fixtures" / "emit_digests.txt"
POLICY_FILE = Path(__file__).parent / "fixtures" / "small_policy.txt"
RECORDS = 1100
SEED = "3"

NOISES = {"uniform": [], "gaussian": ["--noise", "gaussian:127.5,32"],
          "no-yona": ["--no-yona"]}
CASES = {f"{kind}/{noise}": ["--aug", kind, *flags]
         for kind in KINDS for noise, flags in NOISES.items()}
CASES.update({
    "hflip/constant": ["--aug", "hflip", "--noise", "constant:200"],
    "hflip/height-first-0.3": ["--aug", "hflip", "--mask-fraction", "0.3",
                               "--axis-policy", "height",
                               "--masked-piece", "first"],
    "cutout/region-image": ["--aug", "cutout", "--region-reference",
                            "image"],
    "randaug/cifar100": ["--variant", "cifar100", "--aug", "randaug"],
    "erasing/scale-ratio": ["--aug", "erasing", "--erase-scale", "0.1", "0.2",
                            "--erase-ratio", "0.5", "2"],
    "cutout/area-0.1": ["--aug", "cutout", "--cutout-area", "0.1"],
    "grid/2x3": ["--aug", "grid", "--grid-rows", "2", "--grid-cols", "3"],
    "randaug/n3-m30": ["--aug", "randaug", "--randaug-n", "3",
                       "--randaug-m", "30"],
    "autoaug/policy-file": ["--aug", "autoaug", "--policy-file",
                            str(POLICY_FILE)],
    "erasing/width-second": ["--aug", "erasing", "--axis-policy", "width",
                             "--masked-piece", "second"],
    "jitter/p1-factors": ["--aug", "jitter", "--apply-probability", "1",
                          "--jitter-brightness", "0.3",
                          "--jitter-contrast", "0.6",
                          "--jitter-saturation", "0.2",
                          "--jitter-hue", "0.25"],
    "autoaug/p0.7": ["--aug", "autoaug", "--apply-probability", "0.7"],
    "randaug/m0": ["--aug", "randaug", "--randaug-m", "0"],
})
STATS = ["cutout/gaussian"]
PREVIEW = ("preview/count2", ["--count", "2", "--augs", "hflip", "cutout",
                              "randaug"])


def pinned() -> dict[str, list[str]]:
    """The fixture's lines, each less its case name, grouped by case name."""
    cases = {}
    for line in FIXTURE.read_text().splitlines():
        name, _, rest = line.partition(" ")
        cases.setdefault(name, []).append(rest)
    return cases


def pinned_digest(name: str) -> str:
    """The ``augmented.bin`` digest the fixture pins for case ``name``."""
    return pinned()[name][0].removeprefix("augmented.bin=")


def write_batch(path, variant: str = "cifar10") -> None:
    """``RECORDS`` records whose pixels and labels come from one pinned
    stream: the pixel tape first, then one `next_index` per label byte."""
    stream = derive_stream(SeedSpec(1100, 0xC0A9 if variant == "cifar10"
                                    else 0xC100))
    pixels = stream.fill_bytes(RECORDS * 3072).reshape(RECORDS, 3072)
    limits = (10,) if variant == "cifar10" else (20, 100)
    labels = np.array([[stream.next_index(n) for n in limits]
                       for _ in range(RECORDS)], dtype=np.uint8)
    Path(path).write_bytes(np.concatenate([labels, pixels], axis=1).tobytes())


def printed(command, batch, flags) -> str:
    """What one ``command`` on ``batch`` under ``SEED`` through
    `yona.cli.main` prints; RuntimeError unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([command, "--dataset", str(batch), "--seed", SEED,
                     *flags])
    if code != 0:
        raise RuntimeError(f"{command} {flags} exited {code}")
    return out.getvalue()


def emit(batch, out_dir, flags) -> tuple[str, str]:
    """``(sha256 of augmented.bin, manifest text printed)`` of one
    `augment` through `yona.cli.main`."""
    manifest = printed("augment", batch, ["--out", str(out_dir), *flags])
    data = (Path(out_dir) / "augmented.bin").read_bytes()
    return "sha256:" + hashlib.sha256(data).hexdigest(), manifest


def batches(directory) -> dict[str, Path]:
    """The two corpus batches, written under ``directory``."""
    paths = {}
    for variant in ("cifar10", "cifar100"):
        paths[variant] = Path(directory) / f"{variant}.bin"
        write_batch(paths[variant], variant)
    return paths


def corpus_lines(directory) -> list[str]:
    """The fixture's lines: per case, ``NAME augmented.bin=DIGEST`` and then
    ``NAME manifest KEY=VALUE`` for each manifest line; then, per ``STATS``
    case, ``NAME stats KEY=VALUE`` for each report line; then, for the
    ``PREVIEW`` run, ``NAME index LINE`` per ``index.txt`` line and
    ``NAME png FILE=sha256:HEX`` per PNG, in file name order."""
    paths = batches(directory)
    lines = []
    for name, flags in CASES.items():
        variant = "cifar100" if "cifar100" in flags else "cifar10"
        digest, manifest = emit(paths[variant], Path(directory) / name,
                                flags)
        lines.append(f"{name} augmented.bin={digest}")
        lines += [f"{name} manifest {line}" for line in manifest.splitlines()]
    for name in STATS:
        report = printed("stats", paths["cifar10"], CASES[name])
        lines += [f"{name} stats {line}" for line in report.splitlines()]
    name, flags = PREVIEW
    out = Path(directory) / name
    printed("preview", paths["cifar10"], ["--out", str(out), *flags])
    lines += [f"{name} index {line}"
              for line in (out / "index.txt").read_text().splitlines()]
    for png in sorted(out.glob("*.png")):
        pixels = hashlib.sha256(read_png(png).array.tobytes()).hexdigest()
        lines.append(f"{name} png {png.name}=sha256:{pixels}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        FIXTURE.write_text("\n".join(corpus_lines(scratch)) + "\n")
    print(f"wrote {len(CASES)} cases to {FIXTURE}", file=sys.stderr)
