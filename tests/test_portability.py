"""Same bytes under every SIMD dispatch numpy can be told to use.

Named cases of the emit corpus (`emit_corpus.py`) run in child processes
on the corpus batch, once under numpy's default dispatch and once per
``NPY_DISABLE_CPU_FEATURES`` setting below (set in the children's
environment only), and must print the digests the corpus fixture pins.  A
setting is skipped, with the reason, where the CPU lacks its features or
numpy leaves one of them on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import yona

from emit_corpus import CASES, SEED, pinned_digest, write_batch

SETTINGS = {
    "no-avx512": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "no-avx2": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}

NAMES = ["randaug/uniform", "autoaug/p0.7", "jitter/p1-factors",
         "hflip/gaussian", "randaug/no-yona", "cutout/region-image"]

# prints {"features": ..., "digests": [...]}, or {"skip": reason} when
# numpy refuses the setting at import
CHILD = r"""
import contextlib, io, json, sys
try:
    import numpy as np
except Exception as exc:
    print(json.dumps({"skip": f"numpy refused the setting: {exc}"}))
    sys.exit(0)
core = np._core if hasattr(np, "_core") else np.core
features = core._multiarray_umath.__cpu_features__
from yona.cli import main
from yona.dataset import DatasetManifest
dataset, out, seed = sys.argv[1], sys.argv[2], sys.argv[3]
digests = []
for i, flags in enumerate(json.loads(sys.argv[4])):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = main(["augment", "--dataset", dataset, "--seed", seed,
                     "--out", f"{out}/{i}"] + flags)
    assert code == 0, flags
    digests.append(DatasetManifest.from_text(text.getvalue()).digest)
print(json.dumps({"features": features, "digests": digests}))
"""


def _emit(tmp_path, name, disabled=None):
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = str(Path(yona.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "batch.bin"),
         str(tmp_path / name), SEED, json.dumps([CASES[n] for n in NAMES])],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def default_emit(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("portability")
    write_batch(tmp_path / "batch.bin")
    return tmp_path, _emit(tmp_path, "default")


def test_default_dispatch_gives_the_corpus_digests(default_emit):
    assert default_emit[1]["digests"] == [pinned_digest(n) for n in NAMES]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_digests_match_under_reduced_dispatch(default_emit, setting):
    tmp_path, default = default_emit
    disabled = SETTINGS[setting]
    present = [f for f in disabled if default["features"].get(f)]
    if not present:
        pytest.skip(f"this CPU has none of {', '.join(disabled)}")
    reduced = _emit(tmp_path, setting, disabled)
    if "skip" in reduced:
        pytest.skip(reduced["skip"])
    still_on = [f for f in present if reduced["features"].get(f)]
    if still_on:
        pytest.skip(f"numpy left {', '.join(still_on)} on when asked to "
                    f"disable it")
    assert reduced["digests"] == [pinned_digest(n) for n in NAMES]
