"""Command-line front end.

Commands: augment, preview, stats, bench, probe.  Every command is a pure
function of (input files, flags, seed): rerunning reproduces byte-identical
outputs, and every output file (reports included) is renamed into place
whole.  Exit codes: 0 success, 1 usage (a bad flag value, such as a
non-finite parameter) or a diverged probe, 2 format, 3 I/O, 4 gate
violation or a `stats` mask that does not replay from its sample's noise
stream; each failure the one table `_EXITS` maps prints one line on
stderr.  The augmentation and compositor flags default to the fields of a
default `AugmentationSpec` and `YonaConfig`.

Flags may also be supplied through a JSON file (``--config``) whose keys
mirror flag destinations, required flags included; each value passes
through its flag's own type, choices and nargs, explicit flags win over
file values, and unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import augment as aug_mod
from . import compositor as comp
from . import dataset as ds
from . import evalstats as ev
from .errors import DivergenceError, FormatError, ReplayMismatch
from .image import ConstantNoise, GaussianNoise, ImageTensor, UniformNoise


class UsageError(Exception):
    pass


class GateViolation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit code 1
        raise UsageError(message)


def _sub(subparsers, name, help_text):
    return subparsers.add_parser(
        name, help=help_text,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)


AUG_CHOICES = list(aug_mod.KINDS)
BENCH_BYTES = 2**24  # the largest `bench --dims` image, in bytes
PREVIEW_AUGS = [kind for kind in AUG_CHOICES if kind != "identity"]
# every augmentation and compositor flag defaults to its field here
_SPEC, _YONA = aug_mod.default_spec("hflip"), comp.YonaConfig()

# The rule of each flag that only a command reads, as (text, test); `main`
# checks every one before any command runs.  The library checks some of
# them too, but only after the read (the bins: after training), and it takes
# a seed mod 2**64, so 2**64 would emit seed 0's bytes under a manifest that
# names another seed.  A NaN gate bound would never fire.
_FLAG_RULES = {
    "seed": ds._MANIFEST_RULES["seed"],  # the seeds a manifest may name
    **dict.fromkeys(("n", "count", "train_count", "batch_size",
                     "calibration_bins"), (">= 1", lambda v: v >= 1)),
    **dict.fromkeys(("eval_count", "epochs"), (">= 0", lambda v: v >= 0)),
    "iterations": (">= 100", lambda v: v >= 100),
    **dict.fromkeys(("lr", "momentum", "gate_axis_low", "gate_axis_high",
                     "gate_masked_low", "gate_masked_high", "gate_ratio"),
                    ("finite", math.isfinite)),
}

# each failure `main` maps to one stderr line, as (types, prefix, exit code);
# the first entry that matches wins, so a FormatError (a ValueError) exits 2
_EXITS = (
    (FormatError, "format error", 2),
    ((UsageError, ValueError), "usage error", 1),
    (DivergenceError, "training diverged", 1),
    (OSError, "i/o error", 3),
    (GateViolation, "gate violated", 4),
    (ReplayMismatch, "replay mismatch", 4),
)


def _add_input(parser, required: bool):
    parser.add_argument("--dataset", required=required,
                        help="CIFAR binary batch file")
    parser.add_argument("--variant", choices=[ds.CIFAR10, ds.CIFAR100],
                        default=ds.CIFAR10)


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of flag defaults")
    parser.add_argument("--seed", type=int, default=0,
                        help="global seed, in [0, 2**64)")


def _add_aug_flags(parser):
    parser.add_argument("--aug", choices=AUG_CHOICES, default=_SPEC.kind,
                        help="augmentation kind")
    parser.add_argument("--apply-probability", type=float, default=None,
                        help="override the kind's default apply probability")
    for name in ("brightness", "contrast", "saturation", "hue"):
        parser.add_argument(f"--jitter-{name}", type=float,
                            default=getattr(_SPEC, name))
    parser.add_argument("--erase-scale", type=float, nargs=2,
                        default=list(_SPEC.erase_scale), metavar=("LO", "HI"))
    parser.add_argument("--erase-ratio", type=float, nargs=2,
                        default=list(_SPEC.erase_ratio), metavar=("LO", "HI"))
    parser.add_argument("--cutout-area", type=float,
                        default=_SPEC.cutout_area_fraction,
                        help="cutout mask area fraction")
    parser.add_argument("--grid-rows", type=int, default=_SPEC.grid_rows)
    parser.add_argument("--grid-cols", type=int, default=_SPEC.grid_cols)
    parser.add_argument("--randaug-n", type=int, default=_SPEC.randaug_num_ops,
                        help="randaug op count, 0-100")
    parser.add_argument("--randaug-m", type=float,
                        default=_SPEC.randaug_magnitude,
                        help="randaug magnitude on 0-30")
    parser.add_argument("--policy-file",
                        help="auto-augmentation policy table file "
                             "(default: bundled 25-sub-policy table)")


def _add_yona_flags(parser, default_on: bool | None):
    """Compositor flags, less the --yona switch if ``default_on`` is None."""
    if default_on is not None:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--yona", dest="yona", action="store_true",
                           help="compose through the half-masking pipeline")
        group.add_argument("--no-yona", dest="yona", action="store_false")
        parser.set_defaults(yona=default_on)
    parser.add_argument("--mask-fraction", type=float,
                        default=_YONA.mask_fraction,
                        help="masked fraction of the cut axis")
    parser.add_argument("--noise", default="uniform",
                        help="uniform | constant:V | gaussian:MEAN,STD")
    parser.add_argument("--axis-policy", default=_YONA.axis_policy,
                        choices=comp.AXIS_POLICIES)
    parser.add_argument("--masked-piece", default=_YONA.masked_piece_policy,
                        choices=comp.MASKED_POLICIES)
    parser.add_argument("--region-reference", default=_YONA.region_reference,
                        choices=comp.REGION_POLICIES,
                        help="dims used by region augs on a piece")


def build_parser():
    parser = _Parser(prog="yona",
                     description="Deterministic patch-masking augmentation "
                                 "engine")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = _sub(subs, "augment", "emit an augmented dataset")
    _add_input(p, required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_aug_flags(p)
    _add_yona_flags(p, default_on=True)
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = _sub(subs, "preview", "write original/augmented/composited PNG grids")
    p.add_argument("--image", action="append", default=[],
                   help="input PNG (repeatable)")
    _add_input(p, required=False)
    p.add_argument("--count", type=int, default=1,
                   help="number of dataset images")
    p.add_argument("--out", required=True)
    p.add_argument("--augs", nargs="+", default=PREVIEW_AUGS,
                   choices=AUG_CHOICES)
    _add_yona_flags(p, default_on=None)
    _add_common(p)
    p.set_defaults(func=cmd_preview)

    p = _sub(subs, "stats", "empirical pipeline statistics")
    _add_input(p, required=True)
    p.add_argument("--n", type=int, default=10_000,
                   help="sample count")
    p.add_argument("--report", help="also write the report to this file")
    p.add_argument("--gate-axis-low", type=float)
    p.add_argument("--gate-axis-high", type=float)
    p.add_argument("--gate-masked-low", type=float)
    p.add_argument("--gate-masked-high", type=float)
    _add_aug_flags(p)
    _add_yona_flags(p, default_on=True)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = _sub(subs, "bench", "throughput of plain vs composited augmentation")
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--dims", default="3x32x32",
                   help=f"image dims CxHxW, at most {BENCH_BYTES} bytes")
    p.add_argument("--report", help="also write the report to this file")
    p.add_argument("--gate-ratio", type=float,
                   help="fail (exit 4) if ratio exceeds this bound")
    _add_aug_flags(p)
    _add_yona_flags(p, default_on=None)
    _add_common(p)
    # benchmark work, not coin luck: force application unless overridden
    p.set_defaults(func=cmd_bench, apply_probability=1.0)

    p = _sub(subs, "probe", "train the linear probe end to end")
    _add_input(p, required=True)
    p.add_argument("--train-count", type=int, default=1000)
    p.add_argument("--eval-count", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--calibration-bins", type=int, default=15)
    p.add_argument("--gate-loss-decrease", action="store_true",
                   help="fail (exit 4) unless final loss < initial loss")
    _add_aug_flags(p)
    _add_yona_flags(p, default_on=False)
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    return parser, subs.choices


def _build_spec(args) -> aug_mod.AugmentationSpec:
    policy = None
    if args.policy_file:
        policy = aug_mod.load_policy(args.policy_file)
    return aug_mod.AugmentationSpec(
        kind=args.aug,
        apply_probability=args.apply_probability,
        brightness=args.jitter_brightness,
        contrast=args.jitter_contrast,
        saturation=args.jitter_saturation,
        hue=args.jitter_hue,
        erase_scale=tuple(args.erase_scale),
        erase_ratio=tuple(args.erase_ratio),
        cutout_area_fraction=args.cutout_area,
        grid_rows=args.grid_rows,
        grid_cols=args.grid_cols,
        randaug_num_ops=args.randaug_n,
        randaug_magnitude=args.randaug_m,
        policy=policy)


def _parse_noise(text: str):
    if text == "uniform":
        return UniformNoise()
    kind, _, numbers = text.partition(":")
    try:
        if kind == "constant":
            byte = int(numbers)
        elif kind == "gaussian":
            mean, std = (float(x) for x in numbers.split(","))
        else:
            raise ValueError(kind)
    except ValueError:
        raise UsageError(f"cannot parse noise spec {text!r}") from None
    # past the try: a range error keeps its kind's own message
    return ConstantNoise(byte) if kind == "constant" \
        else GaussianNoise(mean, std)


def _build_yona(args) -> comp.YonaConfig | None:
    if not getattr(args, "yona", True):  # preview and bench always compose
        return None
    return comp.YonaConfig(mask_fraction=args.mask_fraction,
                           axis_policy=args.axis_policy,
                           noise=_parse_noise(args.noise),
                           masked_piece_policy=args.masked_piece,
                           region_reference=args.region_reference)


# --------------------------------------------------------------------------
# Commands

def cmd_augment(args) -> None:
    spec, yona_config = _build_spec(args), _build_yona(args)
    manifest = ds.write_augmented_table(
        ds.read_cifar_chunks(args.dataset, args.variant), args.variant, spec,
        yona_config, args.seed, args.out)
    sys.stdout.write(manifest.to_text())


def cmd_preview(args) -> None:
    if len(set(args.augs)) < len(args.augs):  # one file set per kind
        raise UsageError("--augs names a kind more than once: "
                         + " ".join(args.augs))
    yona_config = _build_yona(args)
    images = [ds.read_png(path) for path in args.image]
    if args.dataset:
        table = ds.read_cifar_table(args.dataset, args.variant)
        if len(table) < args.count:
            raise UsageError(
                f"dataset holds {len(table)} records, need {args.count}")
        images.extend(map(ImageTensor, ds.table_pixels(table)[:args.count]))
    if not images:
        raise UsageError("preview needs --image and/or --dataset")
    files, index_lines = {}, []
    for i, image in enumerate(images):
        for j, kind in enumerate(args.augs):
            spec = aug_mod.default_spec(kind)
            row = i * len(args.augs) + j
            augmented = comp.compose_record(image, spec, None, args.seed, row)
            composed = comp.compose_record(image, spec, yona_config,
                                           args.seed, row)
            columns = {f"img{i:03d}_{kind}_{column}.png": ds.encode_png(img)
                       for column, img in (("original", image),
                                           ("augmented", augmented),
                                           ("yona", composed))}
            files.update(columns)
            index_lines.append(
                f"image {i} aug {kind} seed {args.seed}: " + " ".join(columns))
    files["index.txt"] = ("\n".join(index_lines) + "\n").encode()
    # every pair has composed: a failure above wrote nothing, and a failed
    # write leaves nothing it made (every temp is written before any rename)
    ds.write_files(args.out, files)
    print(f"wrote {len(images) * len(args.augs) * 3} PNG files to {args.out}")


def cmd_stats(args) -> None:
    spec, yona_config = _build_spec(args), _build_yona(args)
    table = ds.read_cifar_table(args.dataset, args.variant)
    if not len(table):
        raise UsageError("dataset holds 0 records, need at least 1")
    report = ev.collect_stats(ds.table_pixels(table), spec, yona_config,
                              args.seed, args.n)
    sys.stdout.write(report.to_text())
    if args.report:
        ds.write_atomic(args.report, report.to_text().encode())
    _check_bound("axis_height_frequency", report.axis_height_frequency,
                 args.gate_axis_low, args.gate_axis_high)
    _check_bound("masked_fraction_mean", report.masked_fraction_mean,
                 args.gate_masked_low, args.gate_masked_high)


def _check_bound(name, value, low, high) -> None:
    if low is not None and value < low:
        raise GateViolation(f"{name}={value:.4f} below bound {low}")
    if high is not None and value > high:
        raise GateViolation(f"{name}={value:.4f} above bound {high}")


def cmd_bench(args) -> None:
    try:
        dims = tuple(int(d) for d in args.dims.lower().split("x"))
    except ValueError:
        dims = ()
    if len(dims) != 3 or min(dims) < 1:
        raise UsageError(f"--dims must be CxHxW, three integers >= 1, got "
                         f"{args.dims!r}")
    if math.prod(dims) > BENCH_BYTES:  # refused before any allocation
        raise UsageError(f"--dims {args.dims} is {math.prod(dims)} bytes, "
                         f"above the {BENCH_BYTES}-byte limit")
    result = ev.benchmark_throughput(_build_spec(args), _build_yona(args),
                                     image_dims=dims,
                                     n_iterations=args.iterations,
                                     seed=args.seed)
    sys.stdout.write(result.to_text())
    if args.report:
        ds.write_atomic(args.report, result.to_text().encode())
    if args.gate_ratio is not None and result.ratio > args.gate_ratio:
        raise GateViolation(
            f"ratio={result.ratio:.3f} above bound {args.gate_ratio}")


def cmd_probe(args) -> None:
    spec, yona_config = _build_spec(args), _build_yona(args)
    records = ds.read_cifar(args.dataset, args.variant)
    if len(records) < args.train_count + args.eval_count:
        raise UsageError(
            f"dataset holds {len(records)} records, need "
            f"{args.train_count + args.eval_count}")
    train = records[:args.train_count]
    model, losses = ev.train_linear_probe(
        train, spec, yona_config, args.epochs, args.lr, args.momentum,
        args.batch_size, args.seed)
    for epoch, loss in enumerate(losses):
        print(f"epoch_loss_{epoch}={loss:.6f}")
    train_preds = ev.evaluate_probe(model, train)
    accuracy = sum(p.correct for p in train_preds) / len(train_preds)
    print(f"train_accuracy={accuracy:.4f}")
    if args.eval_count > 0:
        held_out = records[args.train_count:args.train_count + args.eval_count]
        preds = ev.evaluate_probe(model, held_out)
        accuracy = sum(p.correct for p in preds) / len(preds)
        print(f"eval_accuracy={accuracy:.4f}")
        if len(preds) >= args.calibration_bins:
            err = ev.rms_calibration_error(preds, args.calibration_bins)
            print(f"rms_calibration_error_percent={err:.4f}")
    if args.gate_loss_decrease and not losses[-1] < losses[0]:
        raise GateViolation(
            f"final loss {losses[-1]:.6f} did not improve on initial "
            f"{losses[0]:.6f}")


# --------------------------------------------------------------------------
# Entry

def _config_tokens(path, key, actions, value) -> list[str]:
    """The flag tokens that give ``key`` (the flag destination of
    ``actions``) the JSON ``value``, for the flag's own parser to read."""
    switches = [a for a in actions if a.nargs == 0]
    if switches:  # store_true/store_false: a JSON boolean picks the flag
        if type(value) is not bool:
            raise UsageError(f"{path}: {key} must be true or false, "
                             f"got {json.dumps(value)}")
        return [a.option_strings[0] for a in switches if a.const is value][:1]
    action = actions[0]
    option = action.option_strings[0]
    scalar = (str, int, float)
    if type(value) in scalar:
        return [f"{option}={value}"]
    if type(value) is list and value and all(type(v) in scalar
                                             for v in value):
        if isinstance(action, argparse._AppendAction):
            return [f"{option}={v}" for v in value]
        if action.nargs is not None:
            return [option] + [str(v) for v in value]
    raise UsageError(f"{path}: {key} cannot be {json.dumps(value)}")


def _merge_config_file(args, sub, argv) -> argparse.Namespace:
    """Re-parse ``argv`` with the config file's values placed before it as
    the flag tokens they stand for, so each passes through its flag's type,
    choices and nargs; a flag given in ``argv`` wins over its file value."""
    path = args.config
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})")
    if not isinstance(values, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    actions = {}
    for action in sub._actions:
        actions.setdefault(action.dest, []).append(action)
    unknown = set(values) - set(actions)
    if unknown:
        raise UsageError(
            f"{path}: unknown config keys {sorted(unknown)}")
    # a flag sets no destination to None, so one left at None was not
    # given on the command line
    given = sub.parse_args(argv[1:], argparse.Namespace(
        **dict.fromkeys(actions)))
    tokens = []
    for key, value in values.items():
        if getattr(given, key) is None:
            tokens += _config_tokens(path, key, actions[key], value)
    return sub.parse_args(tokens + argv[1:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    # argparse would check a required flag before a --config file can give
    # it: parse with none required, and check them once the file is merged
    required = [a for sub in commands.values() for a in sub._actions
                if a.required]
    for action in required:
        action.required = False
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("a command is required "
                             "(augment|preview|stats|bench|probe)")
        sub = commands[args.command]
        if getattr(args, "config", None):
            args = _merge_config_file(args, sub, argv)
        missing = [a.option_strings[0] for a in sub._actions
                   if a in required and getattr(args, a.dest) is None]
        if missing:
            raise UsageError("the following arguments are required: "
                             + ", ".join(missing))
        for dest, (rule, holds) in _FLAG_RULES.items():
            value = getattr(args, dest, None)
            if value is not None and not holds(value):
                raise UsageError(f"--{dest.replace('_', '-')} must be "
                                 f"{rule}, got {value}")
        for gate in ("axis", "masked"):  # no value can pass an inverted pair
            low = getattr(args, f"gate_{gate}_low", None)
            high = getattr(args, f"gate_{gate}_high", None)
            if low is not None and high is not None and low > high:
                raise UsageError(f"--gate-{gate}-low {low} is above "
                                 f"--gate-{gate}-high {high}")
        args.func(args)
        return 0
    except Exception as exc:
        for types, prefix, code in _EXITS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
