"""Baseline augmentations and the primitive-operation bank.

Eight named augmentations (hflip, vflip, jitter, erasing, cutout, grid,
randaug, autoaug) plus identity, all shape-preserving on (C, H, W) uint8
buffers, plus the 14 photometric/geometric primitives that randaug samples
from and autoaug policies are built on.

The primitive bank is one table, `_BANK`: one row per op, in draw order,
holding its ``(arr, m)`` kernel, its declared magnitude range, whether a
policy randomizes its sign, and its magnitude at strength ``t`` (randaug
``m/30``, autoaug ``index/9``) and sign ``s``.  `PRIMITIVE_OPS`,
`MAGNITUDE_RANGES` and the lane walk's sign column are read off it.  The
four enhance ops are one float blend with a degenerate image, `_blend`,
quantized by `_enhance`; jitter's brightness, contrast and saturation
steps are three of those blends, quantized once.

The catalogue is one table, `_KINDS`: each kind's default apply
probability and its kernel past the gate.  Every kind has one entry,
``apply_augmentation(spec, image, rng)``; its parameters travel as its
`AugmentationSpec` (``default_spec(kind, apply_probability=1.0, ...)``
runs it ungated).  The flips are one table, `_FLIPS`, of index
expressions that flip one image or a stack alike; the scalar and the lane
path both read it.

Every operation is a pure function of (parameters, image, rng state):
replaying with an identical stream state reproduces identical bytes.
Geometric resampling is nearest-neighbor with zero fill, which keeps
outputs bit-exact and golden-testable at small image sizes.

The primitive kernels are batch-shaped: each maps a (..., C, H, W) stack
and gives every image the bytes it gets alone, so the scalar path and the
batch composer share one copy.  `_augment_lanes` is the lane twin of
`_augment_arr`: it augments many records' kept pieces on their augment
streams as `rng.LaneStream` lanes, for every kind, in one walk over the
pieces that keeps each piece's gated-in rows once.  `_policy_lanes` draws
what `_policy_arr` draws in code of its own, and `_run_policy_slots` runs
each (op, magnitude) group once; both walks decode ops with `_policy_op`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .errors import FormatError, UnsupportedAugmentationError
from .image import ImageTensor, _to_u8, round_half_up
from .rng import LaneStream, RngStream

# --------------------------------------------------------------------------
# Small numeric helpers

def _uniform_in(rng: RngStream, lo: float, hi: float) -> float:
    return lo + rng.next_unit_uniform() * (hi - lo)


def _gray(x: np.ndarray) -> np.ndarray:
    """Luminance planes of a float (..., C, H, W) buffer, shape
    (..., 1, H, W)."""
    if x.shape[-3] == 3:
        return (0.299 * x[..., 0:1, :, :] + 0.587 * x[..., 1:2, :, :]
                + 0.114 * x[..., 2:3, :, :])
    return x.mean(axis=-3, keepdims=True)


_IDENTITY_LUT = np.arange(256, dtype=np.uint8)


# --------------------------------------------------------------------------
# Affine machinery (nearest neighbor; zero fill or reflected border)

def _reflect_indices(idx: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    m = np.abs(idx) % period
    return np.where(m >= n, period - m, m)


def _affine_nearest(arr: np.ndarray, a: float, b: float, c: float, d: float,
                    oy: float = 0.0, ox: float = 0.0,
                    reflect: bool = False) -> np.ndarray:
    """Inverse-mapped affine resample of a (..., C, H, W) buffer.

    For output pixel (y, x) with offsets (dy, dx) from the image center,
    the source position is ``(a*dy + b*dx + cy + oy, c*dy + d*dx + cx + ox)``
    rounded to the nearest index.  Out-of-range sources reflect at the
    borders or read as zero.  One flat index map serves every plane.
    """
    h, w = arr.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = (np.arange(h, dtype=np.float64) - cy)[:, None]
    dx = (np.arange(w, dtype=np.float64) - cx)[None, :]
    sy = np.floor(a * dy + b * dx + (cy + oy) + 0.5).astype(np.int64)
    sx = np.floor(c * dy + d * dx + (cx + ox) + 0.5).astype(np.int64)
    planes = arr.reshape(arr.shape[:-2] + (h * w,))
    if reflect:
        return planes[..., _reflect_indices(sy, h) * w
                      + _reflect_indices(sx, w)]
    valid = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    out = planes[..., np.clip(sy, 0, h - 1) * w + np.clip(sx, 0, w - 1)]
    out *= valid
    return out


def _rotate_arr(arr, degrees, reflect=False):
    rad = math.radians(degrees)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    return _affine_nearest(arr, cos_t, -sin_t, sin_t, cos_t, reflect=reflect)


def _translate_x_arr(arr, fraction, reflect=False):
    return _affine_nearest(arr, 1.0, 0.0, 0.0, 1.0,
                           ox=-fraction * arr.shape[-1], reflect=reflect)


def _translate_y_arr(arr, fraction, reflect=False):
    return _affine_nearest(arr, 1.0, 0.0, 0.0, 1.0,
                           oy=-fraction * arr.shape[-2], reflect=reflect)


# --------------------------------------------------------------------------
# Photometric primitives

def _per_plane(arr, lut_of):
    """Each (H, W) plane of ``arr`` through its own row of ``lut_of``."""
    planes = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
    return np.take_along_axis(lut_of(planes), planes, 1).reshape(arr.shape)


def _autocontrast_lut(planes):
    lo = planes.min(axis=1).astype(np.int64)[:, None]
    span = planes.max(axis=1).astype(np.int64)[:, None] - lo
    ramp = np.arange(256, dtype=np.float64)
    lut = _to_u8((ramp - lo) * (255.0 / np.maximum(span, 1)))
    return np.where(span > 0, lut, _IDENTITY_LUT)  # a flat plane is kept


def _equalize_lut(planes):
    count = planes.shape[0]
    offsets = np.arange(0, 256 * count, 256)[:, None]
    histo = np.bincount((planes + offsets).ravel(),
                        minlength=256 * count).reshape(count, 256)
    step = (planes.shape[1] - histo[:, 255:]) // 255
    cumulative = np.cumsum(histo, axis=1) - histo
    lut = np.minimum((step // 2 + cumulative) // np.maximum(step, 1), 255)
    # a plane with fewer than 255 bytes below 255 (step 0) keeps its bytes
    return np.where(step > 0, lut, _IDENTITY_LUT).astype(np.uint8)


def _blend(x, factor, degenerate):
    """PIL ``ImageEnhance``'s blend in float: each image of ``x`` moved by
    ``factor`` from its degenerate image ``degenerate(x)``."""
    base = degenerate(x)
    return base + (x - base) * factor


def _enhance(arr, factor, degenerate):
    """`_blend` of the float copy of a uint8 buffer, quantized."""
    return _to_u8(_blend(arr.astype(np.float64), factor, degenerate))


def _black(x):
    """Brightness's degenerate image."""
    return 0.0


def _gray_mean(x: np.ndarray) -> np.ndarray:
    """Each image's mean over its flattened gray plane, in the summation
    order of that image's mean alone; shape (..., 1, 1, 1)."""
    mean = _gray(x).reshape(x.shape[:-3] + (-1,)).mean(axis=-1)
    return mean[..., None, None, None]


def _smooth_arr(x: np.ndarray) -> np.ndarray:
    """3x3 [[1,1,1],[1,5,1],[1,1,1]]/13 smoothing of the interior; borders
    keep their original values."""
    out = x.copy()
    if x.shape[-2] < 3 or x.shape[-1] < 3:
        return out
    acc = (x[..., :-2, :-2] + x[..., :-2, 1:-1] + x[..., :-2, 2:]
           + x[..., 1:-1, :-2] + 5.0 * x[..., 1:-1, 1:-1] + x[..., 1:-1, 2:]
           + x[..., 2:, :-2] + x[..., 2:, 1:-1] + x[..., 2:, 2:])
    out[..., 1:-1, 1:-1] = acc / 13.0
    return out


# --------------------------------------------------------------------------
# Primitive bank

class _Op(NamedTuple):
    """One row of the bank."""

    kernel: Callable      # (..., C, H, W) uint8 buffer, magnitude -> new one
    magnitude_range: tuple[float, float] | None  # None: takes no magnitude
    signed: bool          # a policy randomizes the magnitude's direction
    magnitude: Callable   # strength t in [0, 1], sign s -> magnitude


# One row per op, in draw order: an index draw picks a row.  Each kernel
# gives every leading index of its stack the bytes it gives that image
# alone.  An int range declares an integral magnitude.
_BANK = {
    "ShearX": _Op(lambda arr, m: _affine_nearest(arr, 1.0, 0.0, m, 1.0),
                  (-0.3, 0.3), True, lambda t, s: s * t * 0.3),
    "ShearY": _Op(lambda arr, m: _affine_nearest(arr, 1.0, m, 0.0, 1.0),
                  (-0.3, 0.3), True, lambda t, s: s * t * 0.3),
    # a fraction of the width, then of the height
    "TranslateX": _Op(_translate_x_arr, (-0.3, 0.3), True,
                      lambda t, s: s * t * 0.3),
    "TranslateY": _Op(_translate_y_arr, (-0.3, 0.3), True,
                      lambda t, s: s * t * 0.3),
    "Rotate": _Op(_rotate_arr, (-30.0, 30.0), True,  # degrees
                  lambda t, s: s * t * 30.0),
    "AutoContrast": _Op(lambda arr, m: _per_plane(arr, _autocontrast_lut),
                        None, False, lambda t, s: None),
    "Invert": _Op(lambda arr, m: np.uint8(255) - arr, None, False,
                  lambda t, s: None),
    "Equalize": _Op(lambda arr, m: _per_plane(arr, _equalize_lut), None,
                    False, lambda t, s: None),
    "Solarize": _Op(  # invert bytes >= threshold
        lambda arr, m: np.where(arr >= int(m), np.uint8(255) - arr, arr),
        (0, 255), False, lambda t, s: round_half_up(255.0 * (1.0 - t))),
    "Posterize": _Op(  # bits kept
        lambda arr, m: arr & np.uint8((0xFF << (8 - int(m))) & 0xFF),
        (4, 8), False, lambda t, s: 8 - round_half_up(4.0 * t)),
    "Contrast": _Op(lambda arr, m: _enhance(arr, m, _gray_mean),
                    (0.1, 1.9), True, lambda t, s: 1.0 + s * t * 0.9),
    "Color": _Op(lambda arr, m: _enhance(arr, m, _gray), (0.1, 1.9), True,
                 lambda t, s: 1.0 + s * t * 0.9),
    "Brightness": _Op(lambda arr, m: _enhance(arr, m, _black),
                      (0.1, 1.9), True, lambda t, s: 1.0 + s * t * 0.9),
    "Sharpness": _Op(lambda arr, m: _enhance(arr, m, _smooth_arr),
                     (0.1, 1.9), True, lambda t, s: 1.0 + s * t * 0.9),
}

PRIMITIVE_OPS = tuple(_BANK)
MAGNITUDE_RANGES: dict[str, tuple[float, float] | None] = {
    name: row.magnitude_range for name, row in _BANK.items()}


@dataclass(frozen=True)
class PrimitiveOp:
    """One bank operation at a concrete magnitude on its own scale."""

    name: str
    magnitude: float | None = None

    def __post_init__(self):
        if self.name not in _BANK:
            raise UnsupportedAugmentationError(
                f"unknown primitive op {self.name!r}")
        rng_range = _BANK[self.name].magnitude_range
        if rng_range is None:
            return
        if self.magnitude is None:
            raise ValueError(f"{self.name} requires a magnitude")
        lo, hi = rng_range
        if not lo <= self.magnitude <= hi:
            raise ValueError(
                f"{self.name} magnitude {self.magnitude} outside [{lo}, {hi}]")
        if type(lo) is int and self.magnitude != int(self.magnitude):
            raise ValueError(f"{self.name} magnitude must be integral")


def apply_primitive(op: PrimitiveOp, image: ImageTensor) -> ImageTensor:
    """Apply one bank primitive at its stated magnitude; no draw."""
    out = _BANK[op.name].kernel(image.array, op.magnitude)
    return ImageTensor(np.ascontiguousarray(out))


def _policy_op(spec, code: int) -> tuple[Callable, float | None]:
    """The kernel and magnitude of an op coded as `_policy_lanes` codes it,
    at strength ``randaug_magnitude / 30`` or its autoaug entry's ``/ 9``."""
    kernel, _, _, magnitude = _BANK[PRIMITIVE_OPS[code // 20]]
    t = spec.randaug_magnitude / 30.0 if spec.kind == "randaug" \
        else code // 2 % 10 / 9.0
    return kernel, magnitude(t, -1.0 if code & 1 else 1.0)


# --------------------------------------------------------------------------
# Color jitter

def _jitter_arr(spec, arr, rng, ref_hw):
    """Perturb brightness/contrast/saturation/hue in a random order.

    Each multiplicative factor is sampled from [max(0, 1-f), 1+f]; the hue
    shift is sampled from [-hue, hue] turns.  Brightness, contrast and
    saturation are the bank's Brightness, Contrast and Color blends
    (`_blend`); saturation and hue touch 3-channel images only.  Arithmetic
    runs in float and is re-quantized once at the end.
    """
    # random application order, then one sampled factor per adjustment
    order = rng.permutation(4)
    x = arr.astype(np.float64)
    chromatic = arr.shape[0] == 3
    for step in order:
        if step == 3:
            delta = _uniform_in(rng, -spec.hue, spec.hue)
            if chromatic and delta != 0.0:
                x = _hue_shift(x, delta)
            continue
        spread = (spec.brightness, spec.contrast, spec.saturation)[step]
        f = _uniform_in(rng, max(0.0, 1.0 - spread), 1.0 + spread)
        if step < 2 or chromatic:
            x = _blend(x, f, (_black, _gray_mean, _gray)[step])
    return _to_u8(x)


def _rgb_to_hsv(x):
    r, g, b = x[0], x[1], x[2]
    maxc = np.max(x, axis=0)
    minc = np.min(x, axis=0)
    delta = maxc - minc
    v = maxc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc,
                 np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(delta > 0, (h / 6.0) % 1.0, 0.0)
    return h, s, v


def _hsv_to_rgb(h, s, v):
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, q, t, v, v])
    return np.stack([r, g, b])


def _hue_shift(x, delta):
    """Shift hue by ``delta`` turns via an RGB->HSV->RGB round trip."""
    h, s, v = _rgb_to_hsv(x / 255.0)
    h = (h + delta) % 1.0
    return _hsv_to_rgb(h, s, v) * 255.0


# --------------------------------------------------------------------------
# Region augmentations

def _erasing_arr(spec, arr, rng, ref_hw):
    """Erase one rectangle whose area fraction of ``ref_hw`` (else of the
    buffer) lies in ``erase_scale`` and whose aspect ratio is log-uniform
    over ``erase_ratio``; up to 10 placement attempts, then a graceful
    no-op."""
    h, w = arr.shape[1], arr.shape[2]
    ref_h, ref_w = ref_hw if ref_hw is not None else (h, w)
    area_lo, area_hi = (scale * ref_h * ref_w for scale in spec.erase_scale)
    log_lo, log_hi = (math.log(ratio) for ratio in spec.erase_ratio)
    for _ in range(10):
        target = _uniform_in(rng, area_lo, area_hi)
        aspect = math.exp(_uniform_in(rng, log_lo, log_hi))
        rect_h = round_half_up(math.sqrt(target * aspect))
        rect_w = round_half_up(math.sqrt(target / aspect))
        if rect_h < 1 or rect_w < 1 or rect_h > h or rect_w > w:
            continue
        if not area_lo - 1e-9 <= rect_h * rect_w <= area_hi + 1e-9:
            continue  # rounding pushed the rect outside the target area range
        top = rng.next_index(h - rect_h + 1)
        left = rng.next_index(w - rect_w + 1)
        out = arr.copy()
        out[:, top:top + rect_h, left:left + rect_w] = 0
        return out
    return arr  # no placement found: leave the image unchanged


def _cutout_side(spec, h, w, ref_hw) -> int:
    """The side of a cutout square on an ``h`` x ``w`` buffer:
    ``max(1, round(sqrt(cutout_area_fraction) * min(H, W)))`` of ``ref_hw``
    (None: of the buffer)."""
    ref_h, ref_w = ref_hw if ref_hw is not None else (h, w)
    return max(1, round_half_up(math.sqrt(spec.cutout_area_fraction)
                                * min(ref_h, ref_w)))


def _cutout_arr(spec, arr, rng, ref_hw):
    """Fill a `_cutout_side` square with 0; its center is uniform over
    the buffer's pixels and it is clipped at the borders."""
    h, w = arr.shape[1], arr.shape[2]
    side = _cutout_side(spec, h, w, ref_hw)
    center_y = rng.next_index(h)
    center_x = rng.next_index(w)
    top = center_y - side // 2
    left = center_x - side // 2
    y0, y1 = max(0, top), min(h, top + side)
    x0, x1 = max(0, left), min(w, left + side)
    out = arr.copy()
    out[:, y0:y1, x0:x1] = 0
    return out


def _grid_arr(spec, arr, rng, ref_hw):
    """Partition into ``grid_rows`` x ``grid_cols`` cells; each cell
    independently, behind its own fair coin, receives one small geometric
    transform: rotate within +/-15 degrees, or translate up to 10% of the
    cell, reflected border.  Remainder pixels belong to the last row/column
    of cells.  A grid with more rows or columns than the buffer raises
    ValueError."""
    check_piece_shapes(spec, [arr.shape])
    rows, cols = spec.grid_rows, spec.grid_cols
    h, w = arr.shape[1], arr.shape[2]
    out = arr.copy()
    cell_h, cell_w = h // rows, w // cols
    for row in range(rows):
        y0 = row * cell_h
        y1 = (row + 1) * cell_h if row < rows - 1 else h
        for col in range(cols):
            x0 = col * cell_w
            x1 = (col + 1) * cell_w if col < cols - 1 else w
            if rng.next_unit_uniform() >= 0.5:
                continue
            choice = rng.next_index(3)
            magnitude = 2.0 * rng.next_unit_uniform() - 1.0
            cell = arr[:, y0:y1, x0:x1]
            if choice == 0:
                moved = _rotate_arr(cell, magnitude * 15.0, reflect=True)
            elif choice == 1:
                moved = _translate_x_arr(cell, magnitude * 0.1, reflect=True)
            else:
                moved = _translate_y_arr(cell, magnitude * 0.1, reflect=True)
            out[:, y0:y1, x0:x1] = moved
    return out


# --------------------------------------------------------------------------
# Policy-driven augmentations

@dataclass(frozen=True)
class PolicyTable:
    """Ordered sub-policies; each is two (op, probability, magnitude index)
    entries with magnitude indices on a 0..9 scale."""

    sub_policies: tuple[tuple[tuple[str, float, int], ...], ...]

    def __post_init__(self):
        if not self.sub_policies:
            raise ValueError("policy table must hold at least one sub-policy")
        for sub in self.sub_policies:
            if len(sub) != 2:
                raise ValueError("each sub-policy must hold exactly two ops")
            for name, prob, mag in sub:
                if name not in _BANK:
                    raise UnsupportedAugmentationError(
                        f"policy references unknown op {name!r}")
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(f"policy probability {prob} outside [0, 1]")
                # the lane path indexes tables with it, so 4.0 is refused too
                if not (isinstance(mag, int) and 0 <= mag <= 9):
                    raise ValueError(
                        f"magnitude index {mag!r} is not an integer in [0, 9]")

    def __len__(self) -> int:
        return len(self.sub_policies)


def parse_policy(text: str) -> PolicyTable:
    """Parse the policy file format: one sub-policy per line,
    ``op1 prob1 mag1 ; op2 prob2 mag2``; '#' starts a comment."""
    subs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        halves = line.split(";")
        if len(halves) != 2:
            raise ValueError(
                f"policy line {lineno}: expected two ';'-separated entries")
        entries = []
        for half in halves:
            fields = half.split()
            if len(fields) != 3:
                raise ValueError(
                    f"policy line {lineno}: entry needs 'op prob mag'")
            entries.append((fields[0], float(fields[1]), int(fields[2])))
        subs.append(tuple(entries))
    return PolicyTable(tuple(subs))


def format_policy(policy: PolicyTable) -> str:
    """The policy file text of ``policy``; `parse_policy` reads it back
    exactly (each probability is its ``repr``)."""
    lines = []
    for sub in policy.sub_policies:
        lines.append(" ; ".join(f"{n} {float(p)!r} {m}" for n, p, m in sub))
    return "\n".join(lines) + "\n"


def load_policy(path) -> PolicyTable:
    """The policy table in the file at ``path``; FormatError naming the
    path if the file is not UTF-8 or does not parse."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_policy(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: {exc}") from None


@functools.cache
def default_cifar10_policy() -> PolicyTable:
    """The bundled 25-sub-policy table searched for CIFAR-10."""
    return parse_policy(resources.files("yona").joinpath(
        "data/autoaugment_cifar10.txt").read_text(encoding="utf-8"))


def _policy_arr(spec, arr, rng, ref_hw):
    """Run randaug's ops drawn from the bank, or those of one drawn autoaug
    sub-policy that pass their coins; a signed op then draws its sign."""
    if spec.kind == "randaug":
        # a generator, so that each op's index is drawn before its sign
        entries = ((PRIMITIVE_OPS[rng.next_index(len(PRIMITIVE_OPS))], 1.0, 0)
                   for _ in range(spec.randaug_num_ops))
    else:
        entries = spec.policy.sub_policies[rng.next_index(len(spec.policy))]
    for name, prob, level in entries:
        if prob <= 0.0 or prob < 1.0 and rng.next_unit_uniform() >= prob:
            continue
        negative = _BANK[name].signed and rng.next_unit_uniform() >= 0.5
        code = (PRIMITIVE_OPS.index(name) * 10 + level) * 2 + negative
        kernel, magnitude = _policy_op(spec, code)
        arr = kernel(arr, magnitude)
    return arr


# the flips, as views of a (..., C, H, W) buffer: one image or a stack
_FLIPS = {"hflip": np.s_[..., ::-1], "vflip": np.s_[..., ::-1, :]}


def _flip_arr(spec, arr, rng, ref_hw):
    return arr[_FLIPS[spec.kind]]


# --------------------------------------------------------------------------
# The augmentation catalogue

class _Kind(NamedTuple):
    """One row of the catalogue.  A kernel may return ``arr`` itself;
    ``ref_hw`` (None: the buffer's own) sizes the region kinds."""

    apply_probability: float  # the default: 0.5 behind the appendix's coin
    kernel: Callable  # past the gate: (spec, arr, rng, ref_hw) -> buffer


# one row per kind, in catalogue order
_KINDS = {
    "identity": _Kind(1.0, lambda spec, arr, rng, ref_hw: arr),
    "hflip": _Kind(0.5, _flip_arr),
    "vflip": _Kind(0.5, _flip_arr),
    "jitter": _Kind(0.5, _jitter_arr),
    "erasing": _Kind(0.5, _erasing_arr),
    "cutout": _Kind(0.5, _cutout_arr),
    "grid": _Kind(0.5, _grid_arr),
    "randaug": _Kind(1.0, _policy_arr),
    "autoaug": _Kind(1.0, _policy_arr),
}

KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class AugmentationSpec:
    """One named augmentation plus its parameters.

    ``apply_probability`` defaults to 0.5 for the coin-gated kinds and 1.0
    for identity/randaug/autoaug, and an autoaug ``policy`` to the bundled
    table.  All other defaults are the standard training values for 32x32
    classification.
    """

    kind: str
    apply_probability: float | None = None
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.4
    hue: float = 0.1
    erase_scale: tuple[float, float] = (0.02, 0.4)
    erase_ratio: tuple[float, float] = (0.3, 3.3)
    cutout_area_fraction: float = 0.25
    grid_rows: int = 4
    grid_cols: int = 4
    randaug_num_ops: int = 2
    randaug_magnitude: float = 9
    policy: PolicyTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedAugmentationError(
                f"unknown augmentation kind {self.kind!r}")
        if self.apply_probability is None:
            object.__setattr__(self, "apply_probability",
                               _KINDS[self.kind].apply_probability)
        if self.kind == "autoaug" and self.policy is None:
            object.__setattr__(self, "policy", default_cifar10_policy())
        if not 0.0 <= self.apply_probability <= 1.0:
            raise ValueError(
                f"apply_probability {self.apply_probability} outside [0, 1]")
        # |x| <= 255 (1+b)(3+2c)(3+2s) after each jitter step in any order:
        # contrast (saturation) adds 1+c (1+s) times a 2|x| spread to a gray
        # value; hue keeps channel ranges.  The contrast mean sums up to 2**61
        # values (a float64 array's most), so 2**62 bounds must stay finite.
        b, c, s = self.brightness, self.contrast, self.saturation
        growth = 255.0 * (1 + b) * (3 + 2 * c) * (3 + 2 * s)
        if not (min(b, c, s) >= 0
                and growth <= np.finfo(np.float64).max / 2.0 ** 62):
            raise ValueError(
                f"jitter factors must be >= 0 and keep 255 (1+b)(3+2c)(3+2s) "
                f"finite times 2**62; got brightness {b}, contrast {c}, "
                f"saturation {s}")
        if not 0.0 <= self.hue <= 0.5:
            raise ValueError(f"hue must be in [0, 0.5], got {self.hue}")
        if not 0 < self.erase_scale[0] <= self.erase_scale[1] < 1:
            raise ValueError(
                f"erase_scale must nest inside (0, 1), got {self.erase_scale}")
        if not 0 < self.erase_ratio[0] <= self.erase_ratio[1] < math.inf:
            raise ValueError(f"erase_ratio must be finite and positive, got "
                             f"{self.erase_ratio}")
        if not 0.0 < self.cutout_area_fraction <= 1.0:
            raise ValueError(
                f"cutout_area_fraction must be in (0, 1], got "
                f"{self.cutout_area_fraction}")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        # RandAugment searched N <= 3; the cap bounds each record's walk
        if not 0 <= self.randaug_num_ops <= 100:
            raise ValueError(f"randaug_num_ops must be in [0, 100], got "
                             f"{self.randaug_num_ops}")
        if not 0 <= self.randaug_magnitude <= 30:
            raise ValueError(
                f"randaug_magnitude must be in [0, 30], got "
                f"{self.randaug_magnitude}")


def default_spec(kind: str, **overrides) -> AugmentationSpec:
    """The spec for a kind at its default parameters."""
    return AugmentationSpec(kind=kind, **overrides)


def check_piece_shapes(spec: AugmentationSpec, shapes) -> None:
    """Raise ValueError unless ``spec`` can augment a (C, H, W) piece of
    each of ``shapes``: a grid that may apply must fit each."""
    for _, h, w in shapes:
        if spec.kind == "grid" and spec.apply_probability > 0 and not (
                spec.grid_rows <= h and spec.grid_cols <= w):
            raise ValueError(f"grid {spec.grid_rows}x{spec.grid_cols} "
                             f"exceeds image {h}x{w}")


def _augment_arr(spec: AugmentationSpec, arr: np.ndarray, rng: RngStream,
                 region_ref_hw: tuple[int, int] | None = None) -> np.ndarray:
    """Gate, then kind dispatch on a raw buffer; may return a view of
    ``arr``."""
    p = spec.apply_probability
    if p <= 0.0 or p < 1.0 and rng.next_unit_uniform() >= p:
        return arr
    return _ungated_arr(spec, arr, rng, region_ref_hw)


def _ungated_arr(spec: AugmentationSpec, arr: np.ndarray, rng: RngStream,
                 region_ref_hw: tuple[int, int] | None) -> np.ndarray:
    """`_augment_arr` past its gate."""
    return _KINDS[spec.kind].kernel(spec, arr, rng, region_ref_hw)


def apply_augmentation(spec: AugmentationSpec, image: ImageTensor,
                       rng: RngStream) -> ImageTensor:
    """Apply one named augmentation, gated by its apply probability.

    Output shape always equals input shape.  When the coin gates the
    operation off (or the kind is identity) the input buffer is returned
    unchanged — buffers are immutable by convention, so no defensive copy
    is taken.
    """
    out = _augment_arr(spec, image.array, rng)
    if out is image.array:
        return image
    return ImageTensor(np.ascontiguousarray(out))


# --------------------------------------------------------------------------
# Every kind over lanes

_SIGNED_CODES = np.array([row.signed for row in _BANK.values()])


def _augment_lanes(spec: AugmentationSpec, out: np.ndarray, pieces,
                   rng: LaneStream,
                   region_ref_hw: tuple[int, int] | None) -> None:
    """Lane twin of `_augment_arr`: augment the kept pieces of the (N, C,
    H, W) ``out`` in place, row ``j`` on lane ``j`` of ``rng``, its augment
    stream.  ``pieces`` lists ``(rows, piece)`` pairs, ``piece`` the
    (C, H, W) slice of the kept piece of each of those rows.

    The gate is one lane draw.  Randaug and autoaug walk each record's op
    sequence (`_policy_lanes`) and run each op slot as one kernel call per
    (op, magnitude) group over the kept pieces of one shape (both sides of
    an axis) as one stack, so that the groups are as large as they can be.
    Every other kind walks the pieces once, keeping each piece's gated-in
    rows: a flip scatters its `_FLIPS` view; cutout draws each square's
    center as two lane index draws, height then width, and zeroes the
    squares in place on one gather of the piece's rows, scattered back;
    each record of the other kinds (jitter, erasing, grid) augments its
    kept piece on an `RngStream` built from its lane state.
    """
    p = spec.apply_probability
    if p <= 0.0 or spec.kind == "identity":
        return
    live = rng.next_unit_uniform() < p if p < 1.0 \
        else np.ones(len(out), dtype=bool)
    if _KINDS[spec.kind].kernel is _policy_arr:
        slots = _policy_lanes(spec, rng, live)
        by_shape = {}
        for rows, piece in pieces:
            by_shape.setdefault(out[0][piece].shape, []).append((rows, piece))
        for parts in by_shape.values():
            rows = np.concatenate([part_rows for part_rows, _ in parts])
            stack = np.concatenate([out[(part_rows,) + piece]
                                    for part_rows, piece in parts])
            _run_policy_slots(spec, stack, [codes[rows] for codes in slots])
            start = 0
            for part_rows, piece in parts:
                out[(part_rows,) + piece] = \
                    stack[start:start + part_rows.size]
                start += part_rows.size
        return
    for rows, piece in pieces:
        rows = rows[live[rows]]
        kept = (rows,) + piece
        if spec.kind in _FLIPS:
            out[kept] = out[kept][_FLIPS[spec.kind]]
        elif spec.kind == "cutout":
            _, h, w = out[0][piece].shape
            ys, xs = np.ogrid[:h, :w]
            side = _cutout_side(spec, h, w, region_ref_hw)
            where = np.zeros(len(out), dtype=bool)
            where[rows] = True
            # the square's corner; the half-open ranges clip it at the border
            top = rng.next_index(h, where)[rows, None, None] - side // 2
            left = rng.next_index(w, where)[rows, None, None] - side // 2
            square = (top <= ys) & (ys < top + side) \
                & (left <= xs) & (xs < left + side)
            block = out[kept]
            np.copyto(block, 0, where=square[:, None])
            out[kept] = block
        else:
            # every kernel copies before it writes, so each may read its
            # kept piece from ``out``
            for j, state in zip(rows.tolist(), rng.state[:, rows].T.tolist()):
                one = (j,) + piece
                out[one] = _ungated_arr(spec, out[one], RngStream(*state),
                                        region_ref_hw)


def _policy_lanes(spec: AugmentationSpec, rng: LaneStream,
                  live: np.ndarray) -> list:
    """Walk the lanes of ``rng`` in ``live`` (the lanes past the gate) as
    `_policy_arr` draws a randaug or autoaug spec, redraws included.

    ``slots[k][i]`` codes lane ``i``'s ``k``-th op as ``(op * 10 +
    magnitude index) * 2 + negative``, or -1 for none; `_policy_op` decodes
    it.
    """
    def code(op, level, where):
        # the sign coin: negative when its uniform is >= 0.5
        signed = where & _SIGNED_CODES[op]
        negative = signed & (rng.next_unit_uniform(signed) >= 0.5)
        return np.where(where, (op * 10 + level) * 2 + negative, -1)

    slots = []
    if spec.kind == "randaug":
        for _ in range(spec.randaug_num_ops):
            slots.append(code(rng.next_index(len(PRIMITIVE_OPS), live), 0,
                              live))
    else:
        sub = rng.next_index(len(spec.policy), live)
        for slot in range(2):
            entries = [entry[slot] for entry in spec.policy.sub_policies]
            op = np.array([PRIMITIVE_OPS.index(name)
                           for name, _, _ in entries])[sub]
            prob = np.array([prob for _, prob, _ in entries])[sub]
            level = np.array([level for _, _, level in entries])[sub]
            take = live & (prob > 0.0)
            gated = take & (prob < 1.0)
            take &= ~gated | (rng.next_unit_uniform(gated) < prob)
            slots.append(code(op, level, take))
    return slots


def _run_policy_slots(spec: AugmentationSpec, stack: np.ndarray,
                      slots) -> None:
    """Apply coded ops (as `_policy_lanes` returns them, one code per image
    of the (N, C, H, W) ``stack``) in place, slot by slot: one kernel call
    per (op, magnitude) group."""
    for codes in slots:
        for c in np.unique(codes[codes >= 0]).tolist():
            kernel, magnitude = _policy_op(spec, c)
            sel = np.flatnonzero(codes == c)
            stack[sel] = kernel(stack[sel], magnitude)
