"""Baseline augmentations and the primitive-operation bank.

Eight named augmentations (hflip, vflip, jitter, erasing, cutout, grid,
randaug, autoaug) plus identity, all shape-preserving on (C, H, W) uint8
buffers, plus the 14 photometric/geometric primitives that randaug samples
from and autoaug policies are built on.

Every operation is a pure function of (parameters, image, rng state):
replaying with an identical stream state reproduces identical bytes.
Geometric resampling is nearest-neighbor with zero fill, which keeps
outputs bit-exact and golden-testable at small image sizes.

The primitive kernels are batch-shaped: each maps a (..., C, H, W) stack
and gives every image the bytes it gets alone, so the scalar path and the
batch composer share one copy.  `_augment_lanes` is the lane twin of
`_augment_arr`: it augments many records' kept pieces on their augment
streams as `rng.LaneStream` lanes, for every kind.  `_policy_lanes` walks
those lanes as randaug or autoaug draw them, index redraws included, and
`_run_policy_slots` applies the ops once per (op, magnitude) group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import UnsupportedAugmentationError
from .image import ImageTensor, _to_u8, round_half_up
from .rng import LaneStream, RngStream

# --------------------------------------------------------------------------
# Primitive bank

PRIMITIVE_OPS = (
    "ShearX", "ShearY", "TranslateX", "TranslateY", "Rotate",
    "AutoContrast", "Invert", "Equalize", "Solarize", "Posterize",
    "Contrast", "Color", "Brightness", "Sharpness",
)

# ops whose magnitude direction is randomized when sampled by a policy
_SIGNED_OPS = frozenset({
    "ShearX", "ShearY", "TranslateX", "TranslateY", "Rotate",
    "Contrast", "Color", "Brightness", "Sharpness",
})

# declared magnitude range per op (None: the op takes no magnitude)
MAGNITUDE_RANGES: dict[str, tuple[float, float] | None] = {
    "ShearX": (-0.3, 0.3),
    "ShearY": (-0.3, 0.3),
    "TranslateX": (-0.3, 0.3),   # fraction of width
    "TranslateY": (-0.3, 0.3),   # fraction of height
    "Rotate": (-30.0, 30.0),     # degrees
    "AutoContrast": None,
    "Invert": None,
    "Equalize": None,
    "Solarize": (0, 255),        # invert bytes >= threshold
    "Posterize": (4, 8),         # bits kept
    "Contrast": (0.1, 1.9),
    "Color": (0.1, 1.9),
    "Brightness": (0.1, 1.9),
    "Sharpness": (0.1, 1.9),
}


@dataclass(frozen=True)
class PrimitiveOp:
    """One bank operation at a concrete magnitude on its own scale."""

    name: str
    magnitude: float | None = None

    def __post_init__(self):
        if self.name not in MAGNITUDE_RANGES:
            raise UnsupportedAugmentationError(
                f"unknown primitive op {self.name!r}")
        rng_range = MAGNITUDE_RANGES[self.name]
        if rng_range is None:
            return
        if self.magnitude is None:
            raise ValueError(f"{self.name} requires a magnitude")
        lo, hi = rng_range
        if not lo <= self.magnitude <= hi:
            raise ValueError(
                f"{self.name} magnitude {self.magnitude} outside [{lo}, {hi}]")
        if self.name in ("Solarize", "Posterize") \
                and self.magnitude != int(self.magnitude):
            raise ValueError(f"{self.name} magnitude must be integral")


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
# Flips

def hflip(image: ImageTensor) -> ImageTensor:
    """Mirror left-right: pixel (c, y, x) moves to (c, y, W-1-x)."""
    return ImageTensor(np.ascontiguousarray(image.array[:, :, ::-1]))


def vflip(image: ImageTensor) -> ImageTensor:
    """Mirror top-bottom: pixel (c, y, x) moves to (c, H-1-y, x)."""
    return ImageTensor(np.ascontiguousarray(image.array[:, ::-1, :]))


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


def _shear_x_arr(arr, factor, reflect=False):
    return _affine_nearest(arr, 1.0, 0.0, factor, 1.0, reflect=reflect)


def _shear_y_arr(arr, factor, reflect=False):
    return _affine_nearest(arr, 1.0, factor, 0.0, 1.0, reflect=reflect)


def _translate_x_arr(arr, fraction, reflect=False):
    return _affine_nearest(arr, 1.0, 0.0, 0.0, 1.0,
                           ox=-fraction * arr.shape[-1], reflect=reflect)


def _translate_y_arr(arr, fraction, reflect=False):
    return _affine_nearest(arr, 1.0, 0.0, 0.0, 1.0,
                           oy=-fraction * arr.shape[-2], reflect=reflect)


# --------------------------------------------------------------------------
# Photometric primitives

def _invert_arr(arr):
    return np.uint8(255) - arr


def _solarize_arr(arr, threshold):
    return np.where(arr >= threshold, np.uint8(255) - arr, arr)


def _posterize_arr(arr, bits):
    mask = np.uint8((0xFF << (8 - int(bits))) & 0xFF)
    return arr & mask


def _autocontrast_arr(arr):
    planes = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
    lo = planes.min(axis=1).astype(np.int64)[:, None]
    span = planes.max(axis=1).astype(np.int64)[:, None] - lo
    ramp = np.arange(256, dtype=np.float64)
    lut = _to_u8((ramp - lo) * (255.0 / np.maximum(span, 1)))
    lut = np.where(span > 0, lut, _IDENTITY_LUT)  # a flat plane is kept
    return np.take_along_axis(lut, planes, axis=1).reshape(arr.shape)


def _equalize_arr(arr):
    planes = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
    count = planes.shape[0]
    offsets = np.arange(0, 256 * count, 256)[:, None]
    histo = np.bincount((planes + offsets).ravel(),
                        minlength=256 * count).reshape(count, 256)
    step = (planes.shape[1] - histo[:, 255:]) // 255
    cumulative = np.cumsum(histo, axis=1) - histo
    lut = np.minimum((step // 2 + cumulative) // np.maximum(step, 1), 255)
    # a plane with fewer than 255 bytes below 255 (step 0) keeps its bytes
    lut = np.where(step > 0, lut, _IDENTITY_LUT).astype(np.uint8)
    return np.take_along_axis(lut, planes, axis=1).reshape(arr.shape)


def _enhance(x, degenerate, factor):
    return _to_u8(degenerate + (x - degenerate) * factor)


def _brightness_arr(arr, factor):
    return _to_u8(arr.astype(np.float64) * factor)


def _color_arr(arr, factor):
    x = arr.astype(np.float64)
    return _enhance(x, _gray(x), factor)


def _contrast_arr(arr, factor):
    x = arr.astype(np.float64)
    gray = _gray(x)
    # each image's mean over its flattened plane: the summation order of
    # that image's mean alone
    mean = gray.reshape(gray.shape[:-3] + (-1,)).mean(axis=-1)
    return _enhance(x, mean[..., None, None, None], factor)


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


def _sharpness_arr(arr, factor):
    x = arr.astype(np.float64)
    return _enhance(x, _smooth_arr(x), factor)


# Every kernel maps a (..., C, H, W) uint8 buffer to a new one of the same
# shape; each leading index gets the bytes the kernel gives that image alone.
_PRIMITIVE_KERNELS = {
    "ShearX": lambda arr, m: _shear_x_arr(arr, m),
    "ShearY": lambda arr, m: _shear_y_arr(arr, m),
    "TranslateX": lambda arr, m: _translate_x_arr(arr, m),
    "TranslateY": lambda arr, m: _translate_y_arr(arr, m),
    "Rotate": lambda arr, m: _rotate_arr(arr, m),
    "AutoContrast": lambda arr, m: _autocontrast_arr(arr),
    "Invert": lambda arr, m: _invert_arr(arr),
    "Equalize": lambda arr, m: _equalize_arr(arr),
    "Solarize": lambda arr, m: _solarize_arr(arr, int(m)),
    "Posterize": lambda arr, m: _posterize_arr(arr, int(m)),
    "Contrast": lambda arr, m: _contrast_arr(arr, m),
    "Color": lambda arr, m: _color_arr(arr, m),
    "Brightness": lambda arr, m: _brightness_arr(arr, m),
    "Sharpness": lambda arr, m: _sharpness_arr(arr, m),
}


def apply_primitive(op: PrimitiveOp, image: ImageTensor,
                    rng: RngStream | None = None) -> ImageTensor:
    """Apply one bank primitive at its stated magnitude.

    The operation itself is deterministic; ``rng`` is accepted for interface
    symmetry and ignored.
    """
    del rng
    out = _PRIMITIVE_KERNELS[op.name](image.array, op.magnitude)
    return ImageTensor(np.ascontiguousarray(out))


def _scaled_magnitude(name: str, t: float, sign: float) -> float | None:
    """Map a strength fraction t in [0, 1] onto an op's magnitude scale."""
    if name in ("ShearX", "ShearY", "TranslateX", "TranslateY"):
        return sign * t * 0.3
    if name == "Rotate":
        return sign * t * 30.0
    if name == "Solarize":
        return round_half_up(255.0 * (1.0 - t))
    if name == "Posterize":
        return 8 - round_half_up(4.0 * t)
    if name in ("Contrast", "Color", "Brightness", "Sharpness"):
        return 1.0 + sign * t * 0.9
    return None


def _sampled_primitive_arr(arr: np.ndarray, name: str, t: float,
                           rng: RngStream) -> np.ndarray:
    sign = 1.0
    if name in _SIGNED_OPS:
        sign = 1.0 if rng.next_unit_uniform() < 0.5 else -1.0
    magnitude = _scaled_magnitude(name, t, sign)
    return _PRIMITIVE_KERNELS[name](arr, magnitude)


# --------------------------------------------------------------------------
# Color jitter

def _jitter_arr(arr, brightness, contrast, saturation, hue, rng):
    # random application order, then one sampled factor per adjustment
    order = [0, 1, 2, 3]
    for i in range(3, 0, -1):
        j = rng.next_index(i + 1)
        order[i], order[j] = order[j], order[i]
    x = arr.astype(np.float64)
    chromatic = arr.shape[0] == 3
    for step in order:
        if step == 0:
            f = _uniform_in(rng, max(0.0, 1.0 - brightness), 1.0 + brightness)
            x = x * f
        elif step == 1:
            f = _uniform_in(rng, max(0.0, 1.0 - contrast), 1.0 + contrast)
            mean = float(_gray(x).mean())
            x = mean + (x - mean) * f
        elif step == 2:
            f = _uniform_in(rng, max(0.0, 1.0 - saturation), 1.0 + saturation)
            if chromatic:
                g = _gray(x)
                x = g + (x - g) * f
        else:
            delta = _uniform_in(rng, -hue, hue)
            if chromatic and delta != 0.0:
                x = _hue_shift(x, delta)
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


def color_jitter(image: ImageTensor, brightness: float, contrast: float,
                 saturation: float, hue: float, rng: RngStream) -> ImageTensor:
    """Perturb brightness/contrast/saturation/hue in a random order.

    Each multiplicative factor is sampled from [max(0, 1-f), 1+f]; the hue
    shift is sampled from [-hue, hue] turns.  Arithmetic runs in float and is
    re-quantized once at the end.
    """
    return apply_augmentation(AugmentationSpec(
        kind="jitter", apply_probability=1.0, brightness=brightness,
        contrast=contrast, saturation=saturation, hue=hue), image, rng)


# --------------------------------------------------------------------------
# Region augmentations

def _erasing_arr(arr, scale, ratio, fill, rng, ref_hw=None):
    h, w = arr.shape[1], arr.shape[2]
    ref_h, ref_w = ref_hw if ref_hw is not None else (h, w)
    area_lo = scale[0] * ref_h * ref_w
    area_hi = scale[1] * ref_h * ref_w
    log_lo, log_hi = math.log(ratio[0]), math.log(ratio[1])
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
        out[:, top:top + rect_h, left:left + rect_w] = fill
        return out
    return arr  # no placement found: leave the image unchanged


def random_erasing(image: ImageTensor, scale: tuple[float, float],
                   ratio: tuple[float, float], fill: int,
                   rng: RngStream) -> ImageTensor:
    """Erase one rectangle whose area fraction lies in ``scale`` and whose
    aspect ratio is log-uniform over ``ratio``; up to 10 placement attempts,
    then a graceful no-op."""
    return apply_augmentation(AugmentationSpec(
        kind="erasing", apply_probability=1.0, erase_scale=tuple(scale),
        erase_ratio=tuple(ratio), erase_fill=fill), image, rng)


def _cutout_arr(arr, fraction, rng, fill=0, ref_hw=None):
    h, w = arr.shape[1], arr.shape[2]
    ref_h, ref_w = ref_hw if ref_hw is not None else (h, w)
    side = max(1, round_half_up(math.sqrt(fraction) * min(ref_h, ref_w)))
    center_y = rng.next_index(h)
    center_x = rng.next_index(w)
    top = center_y - side // 2
    left = center_x - side // 2
    y0, y1 = max(0, top), min(h, top + side)
    x0, x1 = max(0, left), min(w, left + side)
    out = arr.copy()
    out[:, y0:y1, x0:x1] = fill
    return out


def cutout(image: ImageTensor, mask_area_fraction: float,
           rng: RngStream, fill: int = 0) -> ImageTensor:
    """Zero out a square covering ``mask_area_fraction`` of the image area.

    The square's side is ``round(sqrt(fraction) * min(H, W))``; its center is
    uniform over all pixels and the square is clipped at the borders.
    """
    return apply_augmentation(AugmentationSpec(
        kind="cutout", apply_probability=1.0,
        cutout_area_fraction=mask_area_fraction, cutout_fill=fill),
        image, rng)


def _grid_arr(arr, grid_rows, grid_cols, rng, transform_probability=0.5):
    h, w = arr.shape[1], arr.shape[2]
    if not 1 <= grid_rows <= h or not 1 <= grid_cols <= w:
        raise ValueError(
            f"grid {grid_rows}x{grid_cols} exceeds image {h}x{w}")
    if transform_probability <= 0:
        return arr
    out = arr.copy()
    cell_h, cell_w = h // grid_rows, w // grid_cols
    for row in range(grid_rows):
        y0 = row * cell_h
        y1 = (row + 1) * cell_h if row < grid_rows - 1 else h
        for col in range(grid_cols):
            x0 = col * cell_w
            x1 = (col + 1) * cell_w if col < grid_cols - 1 else w
            if transform_probability < 1.0 \
                    and rng.next_unit_uniform() >= transform_probability:
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


def grid_transform(image: ImageTensor, grid_rows: int, grid_cols: int,
                   rng: RngStream,
                   transform_probability: float = 0.5) -> ImageTensor:
    """Partition into grid cells; each cell independently receives one
    small geometric transform (rotate within +/-15 degrees, or translate
    up to 10% of the cell, reflected border), gated per cell by a coin.
    Remainder pixels belong to the last row/column of cells.
    ``transform_probability`` must lie in [0, 1]."""
    return apply_augmentation(AugmentationSpec(
        kind="grid", apply_probability=1.0, grid_rows=grid_rows,
        grid_cols=grid_cols,
        grid_transform_probability=transform_probability), image, rng)


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
                if name not in MAGNITUDE_RANGES:
                    raise UnsupportedAugmentationError(
                        f"policy references unknown op {name!r}")
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(f"policy probability {prob} outside [0, 1]")
                if not 0 <= mag <= 9:
                    raise ValueError(f"magnitude index {mag} outside [0, 9]")

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
    lines = []
    for sub in policy.sub_policies:
        lines.append(" ; ".join(f"{n} {p:g} {m}" for n, p, m in sub))
    return "\n".join(lines) + "\n"


def load_policy(path) -> PolicyTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_policy(fh.read())


_DEFAULT_POLICY: PolicyTable | None = None


def default_cifar10_policy() -> PolicyTable:
    """The bundled 25-sub-policy table searched for CIFAR-10."""
    global _DEFAULT_POLICY
    if _DEFAULT_POLICY is None:
        text = resources.files("yona").joinpath(
            "data/autoaugment_cifar10.txt").read_text(encoding="utf-8")
        _DEFAULT_POLICY = parse_policy(text)
    return _DEFAULT_POLICY


def rand_augment(image: ImageTensor, num_ops: int, magnitude: float,
                 rng: RngStream) -> ImageTensor:
    """Apply ``num_ops`` primitives drawn uniformly (with replacement) from
    the 14-op bank, each at the shared ``magnitude`` on a 0-30 scale."""
    return apply_augmentation(AugmentationSpec(
        kind="randaug", apply_probability=1.0, randaug_num_ops=num_ops,
        randaug_magnitude=magnitude), image, rng)


def auto_augment(image: ImageTensor, policy: PolicyTable,
                 rng: RngStream) -> ImageTensor:
    """Pick one sub-policy uniformly and run its two gated ops in order."""
    if policy is None:  # a spec without a policy uses the bundled table
        raise ValueError("auto_augment needs a policy")
    return apply_augmentation(AugmentationSpec(
        kind="autoaug", apply_probability=1.0, policy=policy), image, rng)


# --------------------------------------------------------------------------
# The augmentation catalogue

KINDS = ("identity", "hflip", "vflip", "jitter", "erasing", "cutout",
         "grid", "randaug", "autoaug")

# kinds the appendix gates with a coin; the rest always run
_COIN_GATED = frozenset({"hflip", "vflip", "jitter", "erasing", "cutout",
                         "grid"})


@dataclass(frozen=True)
class AugmentationSpec:
    """One named augmentation plus its parameters.

    ``apply_probability`` defaults to 0.5 for the coin-gated kinds and 1.0
    for identity/randaug/autoaug.  All other defaults are the standard
    training values for 32x32 classification.
    """

    kind: str
    apply_probability: float | None = None
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.4
    hue: float = 0.1
    erase_scale: tuple[float, float] = (0.02, 0.4)
    erase_ratio: tuple[float, float] = (0.3, 3.3)
    erase_fill: int = 0
    cutout_area_fraction: float = 0.25
    cutout_fill: int = 0
    grid_rows: int = 4
    grid_cols: int = 4
    grid_transform_probability: float = 0.5
    randaug_num_ops: int = 2
    randaug_magnitude: float = 9.0
    policy: PolicyTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedAugmentationError(
                f"unknown augmentation kind {self.kind!r}")
        if self.apply_probability is None:
            object.__setattr__(self, "apply_probability",
                               0.5 if self.kind in _COIN_GATED else 1.0)
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
        if not 0 <= self.erase_fill <= 255 or not 0 <= self.cutout_fill <= 255:
            raise ValueError("fill values must be bytes")
        if not 0.0 < self.cutout_area_fraction <= 1.0:
            raise ValueError(
                f"cutout_area_fraction must be in (0, 1], got "
                f"{self.cutout_area_fraction}")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not 0.0 <= self.grid_transform_probability <= 1.0:
            raise ValueError(
                f"grid_transform_probability "
                f"{self.grid_transform_probability} outside [0, 1]")
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
    kind = spec.kind
    if kind == "hflip":
        return arr[:, :, ::-1]
    if kind == "vflip":
        return arr[:, ::-1, :]
    if kind == "identity":
        return arr
    if kind == "jitter":
        return _jitter_arr(arr, spec.brightness, spec.contrast,
                           spec.saturation, spec.hue, rng)
    if kind == "erasing":
        return _erasing_arr(arr, spec.erase_scale, spec.erase_ratio,
                            spec.erase_fill, rng, ref_hw=region_ref_hw)
    if kind == "cutout":
        return _cutout_arr(arr, spec.cutout_area_fraction, rng,
                           fill=spec.cutout_fill, ref_hw=region_ref_hw)
    if kind == "grid":
        return _grid_arr(arr, spec.grid_rows, spec.grid_cols, rng,
                         spec.grid_transform_probability)
    if kind == "randaug":
        t = spec.randaug_magnitude / 30.0
        for _ in range(spec.randaug_num_ops):
            name = PRIMITIVE_OPS[rng.next_index(len(PRIMITIVE_OPS))]
            arr = _sampled_primitive_arr(arr, name, t, rng)
        return arr
    if kind == "autoaug":
        policy = spec.policy if spec.policy is not None \
            else default_cifar10_policy()
        sub = policy.sub_policies[rng.next_index(len(policy))]
        for name, prob, mag_index in sub:
            if prob <= 0.0:
                continue
            if prob < 1.0 and rng.next_unit_uniform() >= prob:
                continue
            arr = _sampled_primitive_arr(arr, name, mag_index / 9.0, rng)
        return arr
    raise UnsupportedAugmentationError(f"unknown augmentation kind {kind!r}")


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

POLICY_KINDS = frozenset({"randaug", "autoaug"})

_FLIPS = {"hflip": np.s_[..., ::-1], "vflip": np.s_[..., ::-1, :]}
_OP_CODES = {name: code for code, name in enumerate(PRIMITIVE_OPS)}
_SIGNED_CODES = np.array([name in _SIGNED_OPS for name in PRIMITIVE_OPS])


def _augment_lanes(spec: AugmentationSpec, out: np.ndarray, pieces,
                   rng: LaneStream,
                   region_ref_hw: tuple[int, int] | None) -> None:
    """Lane twin of `_augment_arr`: augment the kept pieces of the (N, C,
    H, W) ``out`` in place, row ``j`` on lane ``j`` of ``rng``, its augment
    stream.  ``pieces`` lists ``(rows, piece)`` pairs, ``piece`` the
    (C, H, W) slice of the kept piece of each of those rows.

    The gate is one lane draw.  The flips are scatters.  Randaug and
    autoaug walk each record's op sequence (`_policy_lanes`) and run each
    op slot as one kernel call per (op, magnitude) group over the kept
    pieces of one shape (both sides of an axis) as one stack.  Every
    gated-in record of the other kinds augments its kept piece on an
    `RngStream` built from its lane state.
    """
    p = spec.apply_probability
    if p <= 0.0 or spec.kind == "identity":
        return
    live = rng.next_unit_uniform() < p if p < 1.0 \
        else np.ones(len(out), dtype=bool)
    flip = _FLIPS.get(spec.kind)
    if flip is not None:
        for rows, piece in pieces:
            kept = (rows[live[rows]],) + piece
            out[kept] = out[kept][flip]
    elif spec.kind in POLICY_KINDS:
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
    else:
        # every kernel copies before it writes, so each may read its kept
        # piece from ``out``
        for rows, piece in pieces:
            rows = rows[live[rows]]
            for j, state in zip(rows.tolist(), rng.state[:, rows].T.tolist()):
                kept = (j,) + piece
                out[kept] = _ungated_arr(spec, out[kept], RngStream(*state),
                                         region_ref_hw)


def _policy_lanes(spec: AugmentationSpec, rng: LaneStream,
                  live: np.ndarray) -> list:
    """Walk the lanes of ``rng`` in ``live`` (the lanes past the gate) as
    `_ungated_arr` draws a randaug or autoaug spec, redraws included.

    ``slots[k][i]`` codes lane ``i``'s ``k``-th op as ``(op * 10 +
    magnitude index) * 2 + negative``, or -1 for none; `_run_policy_slots`
    decodes it.
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
        policy = spec.policy if spec.policy is not None \
            else default_cifar10_policy()
        sub = rng.next_index(len(policy), live)
        for slot in range(2):
            entries = [entry[slot] for entry in policy.sub_policies]
            op = np.array([_OP_CODES[name] for name, _, _ in entries])[sub]
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
            name = PRIMITIVE_OPS[c // 20]
            t = spec.randaug_magnitude / 30.0 if spec.kind == "randaug" \
                else c // 2 % 10 / 9.0
            magnitude = _scaled_magnitude(name, t, -1.0 if c & 1 else 1.0)
            sel = np.flatnonzero(codes == c)
            stack[sel] = _PRIMITIVE_KERNELS[name](stack[sel], magnitude)
