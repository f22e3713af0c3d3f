"""Deterministic patch-masking image augmentation engine.

The core pipeline cuts an image in two along a coin-chosen axis, replaces
one piece with noise, augments the other, and reassembles them.  Everything
is driven by pinned, splittable random streams, so augmented datasets are
bit-reproducible across platforms and processes, and each record depends
only on (seed, record index).
"""

__version__ = "0.1.0"  # before the imports: manifests name it (dataset.py)

from .augment import (AugmentationSpec, PolicyTable, PrimitiveOp,
                      apply_augmentation, apply_primitive,
                      default_cifar10_policy, default_spec, load_policy)
from .compositor import (YonaConfig, YonaTrace, compose_record, yoco_apply,
                         yona_apply, yona_apply_traced)
from .dataset import (CifarRecord, DatasetManifest, fnv1a_64, read_cifar,
                      read_png, write_augmented_dataset, write_cifar,
                      write_png)
from .errors import (CorruptRecordError, DivergenceError, FormatError,
                     GeometryError, ReplayMismatch,
                     UnsupportedAugmentationError)
from .evalstats import (BenchmarkResult, PredictionRecord, ProbeModel,
                        StatsReport, benchmark_throughput, collect_stats,
                        evaluate_probe, rms_calibration_error,
                        train_linear_probe)
from .image import (Axis, ConstantNoise, GaussianNoise, ImageTensor, Piece,
                    UniformNoise, concat, cut, cut_at, mask_noise)
from .rng import (RngStream, SeedSpec, derive_image_streams, derive_stream,
                  image_stream_label)
