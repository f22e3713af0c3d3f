"""Patch-level compositors.

``yona_apply`` bisects an image along a coin-chosen axis, fills one piece
with noise, augments the other piece as if it were a standalone image, and
writes both into one buffer in their original spatial order.  ``yoco_apply``
is the comparison compositor: no masking, the augmentation runs
independently on both halves.  ``compose_batch`` composes the pixels of
records ``i, i + 1, ...`` of a run in place, an (N, C, H, W) array, for
every command, drawing every record's streams as lanes;
``compose_record`` is a batch of one.

Randomness contract per composition (default config):

* structure stream: one axis draw then one side draw, in that order;
* augment stream: whatever the augmentation itself consumes;
* noise stream: bytes for the masked piece only.

Holding two of the three streams fixed and varying the third never touches
the bytes owned by the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augment import (AugmentationSpec, _augment_arr, _augment_lanes,
                      check_piece_shapes)
from .errors import GeometryError
from .image import (Axis, ImageTensor, NoiseKind, UniformNoise, _wrap, cut,
                    noise_bytes, noise_from_tape, round_half_up)
from .rng import (AUGMENT_ROLE, NOISE_ROLE, STRUCTURE_ROLE, LaneStream,
                  RngStream, lane_states, lane_tape)

# each policy's values, its default first
AXIS_RANDOM, AXIS_FIXED_HEIGHT, AXIS_FIXED_WIDTH = AXIS_POLICIES = (
    "random", "height", "width")
MASKED_RANDOM, MASKED_FIRST, MASKED_SECOND = MASKED_POLICIES = (
    "random", "first", "second")
REGION_PIECE, REGION_IMAGE = REGION_POLICIES = ("piece", "image")


@dataclass(frozen=True)
class YonaConfig:
    """Compositor policy.  The defaults reproduce the standard method:
    mask half the image, with the cut axis and the masked side each decided
    by a fair coin."""

    mask_fraction: float = 0.5
    axis_policy: str = AXIS_POLICIES[0]
    noise: NoiseKind = field(default_factory=UniformNoise)
    masked_piece_policy: str = MASKED_POLICIES[0]
    region_reference: str = REGION_POLICIES[0]

    def __post_init__(self):
        if not 0.0 < self.mask_fraction < 1.0:
            raise ValueError(
                f"mask_fraction must be in (0, 1), got {self.mask_fraction}")
        if self.axis_policy not in AXIS_POLICIES:
            raise ValueError(f"unknown axis policy {self.axis_policy!r}")
        if self.masked_piece_policy not in MASKED_POLICIES:
            raise ValueError(
                f"unknown masked piece policy {self.masked_piece_policy!r}")
        if self.region_reference not in REGION_POLICIES:
            raise ValueError(
                f"unknown region reference {self.region_reference!r}")
        # per-shape geometry memo (invisible to equality/repr)
        object.__setattr__(self, "_geometry_memo", {})

    def _geometry(self, shape: tuple[int, int, int]):
        """Per-shape composition geometry, memoised per (C, H, W).

        Entry ``(height_cut << 1) | masked_first`` holds ``(masked_bytes,
        mask_shape, aug_slice, mask_slice, boundary, masked_extent)`` for
        each axis the axis policy can cut, and is None for the other axis.
        The slices index the kept and the masked piece of a (C, H, W) array.
        Raises GeometryError if the image is too small to cut, or if an axis
        the policy can cut cannot host the mask fraction.
        """
        try:
            return self._geometry_memo[shape]
        except KeyError:
            pass
        channels, height, width = shape
        if height < 2 or width < 2:
            raise GeometryError(
                f"image {shape} is too small to cut along both axes")
        entries = [None] * 4
        cuts = (False, True) if self.axis_policy == AXIS_RANDOM \
            else (self.axis_policy == AXIS_FIXED_HEIGHT,)
        for height_cut in cuts:
            extent = height if height_cut else width
            k = round_half_up(self.mask_fraction * extent)
            if not 1 <= k <= extent - 1:
                raise GeometryError(
                    f"mask fraction {self.mask_fraction} of extent {extent} "
                    f"leaves no pixels on one side")
            for masked_first in (False, True):
                boundary = k if masked_first else extent - k
                low, high = slice(None, boundary), slice(boundary, None)
                masked, kept = (low, high) if masked_first else (high, low)
                if height_cut:
                    mask_shape = (channels, k, width)
                    mask_slice = np.s_[:, masked, :]
                    aug_slice = np.s_[:, kept, :]
                else:
                    mask_shape = (channels, height, k)
                    mask_slice = np.s_[:, :, masked]
                    aug_slice = np.s_[:, :, kept]
                entries[(height_cut << 1) | masked_first] = (
                    math.prod(mask_shape), mask_shape, aug_slice, mask_slice,
                    boundary, k)
        ref_hw = (height, width) if self.region_reference == REGION_IMAGE \
            else None
        geometry = self._geometry_memo[shape] = (tuple(entries), ref_hw)
        return geometry


@dataclass(frozen=True)
class YonaTrace:
    """What one composition actually did (for statistics and verification)."""

    axis: Axis
    masked_first: bool
    boundary: int
    masked_extent: int
    masked_byte_count: int


def _compose(image: ImageTensor, aug: AugmentationSpec, config: YonaConfig,
             structure_rng: RngStream, augment_rng: RngStream,
             noise_rng: RngStream, want_trace: bool):
    arr = image.array
    shape = arr.shape

    # structure coins: axis first, then masked side; draws at exactly 0.5
    # take the first branch.  Fixed policies skip their draw.
    axis_policy = config.axis_policy
    side_policy = config.masked_piece_policy
    if axis_policy == AXIS_RANDOM and side_policy == MASKED_RANDOM:
        height_cut, masked_first = structure_rng.next_coin_pair()
    else:
        if axis_policy == AXIS_RANDOM:
            height_cut = structure_rng.next_unit_uniform() <= 0.5
        else:
            height_cut = axis_policy == AXIS_FIXED_HEIGHT
        if side_policy == MASKED_RANDOM:
            masked_first = structure_rng.next_unit_uniform() <= 0.5
        else:
            masked_first = side_policy == MASKED_FIRST

    entries, ref_hw = config._geometry_memo.get(shape) \
        or config._geometry(shape)
    masked_bytes, mask_shape, aug_slice, mask_slice, boundary, \
        masked_extent = entries[(height_cut << 1) | masked_first]

    out = np.empty(shape, dtype=np.uint8)
    noise = config.noise
    # uniform noise is the tape itself: read it without the kind dispatch
    out[mask_slice] = (noise_rng.fill_bytes(masked_bytes)
                       if type(noise) is UniformNoise
                       else noise_bytes(noise, masked_bytes, noise_rng)
                       ).reshape(mask_shape)
    out[aug_slice] = _augment_arr(aug, arr[aug_slice], augment_rng, ref_hw)
    result = _wrap(out)
    if not want_trace:
        return result
    axis = Axis.HEIGHT if height_cut else Axis.WIDTH
    return result, YonaTrace(axis=axis, masked_first=masked_first,
                             boundary=boundary, masked_extent=masked_extent,
                             masked_byte_count=masked_bytes)


def yona_apply_traced(image: ImageTensor, aug: AugmentationSpec,
                      config: YonaConfig, structure_rng: RngStream,
                      augment_rng: RngStream, noise_rng: RngStream
                      ) -> tuple[ImageTensor, YonaTrace]:
    """`yona_apply` plus a trace of the structural choices taken."""
    return _compose(image, aug, config, structure_rng, augment_rng,
                    noise_rng, True)


def yona_apply(image: ImageTensor, aug: AugmentationSpec, config: YonaConfig,
               structure_rng: RngStream, augment_rng: RngStream,
               noise_rng: RngStream) -> ImageTensor:
    """Cut, mask one piece with noise, augment the other, reassemble."""
    return _compose(image, aug, config, structure_rng, augment_rng,
                    noise_rng, False)


# records per chunk.  Larger chunks make larger op groups for the policy
# walk: the probe benchmark workload (6 s runs, 2 vCPU) made a median
# 8,024 images/s at 1,024 and 6,434 at 256, winning 10 of 10 alternating
# pairs, each by more than its IQR (853).  Composing 10,000 records with a
# flip took a median 43-47 ms at 1,024 and 56 ms at 256 (2 vCPU), and the
# emit benchmark workload read the same peak RSS.
_LANES = 1024


def compose_batch(out: np.ndarray, first_index: int, aug: AugmentationSpec,
                  config: YonaConfig | None, seed: int):
    """Compose the (N, C, H, W) ``out`` in place, row ``j`` from the pixels
    of record ``first_index + j`` to what `yona_apply` (`apply_augmentation`
    without ``config``) on ``derive_image_streams(seed, first_index + j)``
    makes of them (on an error, ``out`` may hold partial work); returns each
    record's ``config._geometry`` group ``(height_cut << 1) | masked_first``,
    or None without ``config``.

    Each chunk of ``_LANES`` records seeds each role once as `rng` lanes:
    it draws the structure coins through a `LaneStream` in `_compose`'s
    order, fills every mask of one geometry group with `noise_from_tape`
    over those records' `lane_tape`, whatever the noise kind and length,
    and augments the kept pieces with one `_augment_lanes` call on their
    augment lanes.  Before any work, a non-empty batch reads its geometry
    off ``config._geometry``, which raises GeometryError for a shape the
    config cannot cut whatever the seed, and `check_piece_shapes` checks
    ``aug`` on every kept piece the run may cut.
    """
    ref_hw = None
    groups = None if config is None else np.empty(len(out), dtype=np.intp)
    if len(out):
        kept = [out.shape[1:]]
        if config is not None:
            entries, ref_hw = config._geometry(out.shape[1:])
            # the kept piece of each axis the run may cut
            kept = [out[0][entry[2]].shape for entry in entries[::2]
                    if entry is not None]
        check_piece_shapes(aug, kept)  # whichever records gate in
    for start in range(0, len(out), _LANES):
        o = out[start:start + _LANES]
        n = len(o)
        first = first_index + start
        if config is None:
            pieces = [(np.arange(n), np.s_[:, :, :])]
        else:
            # structure coins: axis first, then side; fixed policies skip
            coins = LaneStream(lane_states(seed, first, n, STRUCTURE_ROLE))
            height_cut = coins.next_unit_uniform() <= 0.5 \
                if config.axis_policy == AXIS_RANDOM \
                else np.full(n, config.axis_policy == AXIS_FIXED_HEIGHT)
            masked_first = coins.next_unit_uniform() <= 0.5 \
                if config.masked_piece_policy == MASKED_RANDOM \
                else np.full(n, config.masked_piece_policy == MASKED_FIRST)
            group = groups[start:start + n] = 2 * height_cut + masked_first
            noise_states = lane_states(seed, first, n, NOISE_ROLE)
            pieces = []
            for g in dict.fromkeys(group.tolist()):  # by first record
                sel = np.flatnonzero(group == g)
                nbytes, mask_shape, aug_slice, mask_slice, _, _ = entries[g]
                noise = noise_from_tape(config.noise, lambda size: lane_tape(
                    noise_states[:, sel], size), nbytes)
                o[(sel,) + mask_slice] = noise.reshape((-1,) + mask_shape)
                pieces.append((sel, aug_slice))
        _augment_lanes(aug, o, pieces, LaneStream(
            lane_states(seed, first, n, AUGMENT_ROLE)), ref_hw)
    return groups


def compose_record(image: ImageTensor, aug: AugmentationSpec,
                   config: YonaConfig | None, seed: int,
                   index: int) -> ImageTensor:
    """Record ``index`` of a run under ``seed``: a `compose_batch` of one."""
    out = image.array[None].copy()
    compose_batch(out, index, aug, config, seed)
    return ImageTensor(out[0])


def yoco_apply(image: ImageTensor, aug: AugmentationSpec,
               structure_rng: RngStream, augment_rng: RngStream
               ) -> ImageTensor:
    """Comparison compositor: bisect, augment each half independently on a
    forked sub-stream, reassemble.  No masking."""
    if image.height < 2 or image.width < 2:
        raise GeometryError(
            f"image {image.shape} is too small to cut along both axes")
    axis = Axis.HEIGHT if structure_rng.next_unit_uniform() <= 0.5 \
        else Axis.WIDTH
    first, second = cut(image, axis, 0.5)
    first_rng = augment_rng.split(0)
    second_rng = augment_rng.split(1)
    return ImageTensor(np.concatenate(
        (_augment_arr(aug, first.image.array, first_rng),
         _augment_arr(aug, second.image.array, second_rng)),
        axis=1 if axis is Axis.HEIGHT else 2))
