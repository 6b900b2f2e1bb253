"""Condensation-pruned group-convolution segmenter for cardiac cine volumes.

Subpackages cover the autodiff core, learned group convolution with
multi-stage condensation, the encoder/decoder network, the dual loss,
heart ROI detection, clinical index estimation, evaluation metrics, and
the end-to-end phantom pipeline with its CLI.
"""

__version__ = "0.1.0"

from .tensor import Tensor, AdamState, adam_step, grad_check  # noqa: F401
from .volume import CineVolume, Geometry, LabelMask, load_volume, save_volume  # noqa: F401
from .lgconv import (  # noqa: F401
    CondensationSchedule,
    LGConvLayer,
    condense,
    group_lasso_penalty,
    to_inference,
)
from .net import NetConfig, build, load_checkpoint, save_checkpoint  # noqa: F401
from .loss import LossConfig, total_loss  # noqa: F401
from .roi import detect_roi, first_harmonic_map  # noqa: F401
from .clinical import ClinicalReport, SegmentationResult, report, simpson_volume  # noqa: F401
from .metrics import dice_score, hausdorff, pearson  # noqa: F401
from .phantom import PhantomSpec, build_cohort, generate_phantom  # noqa: F401
from .dataset import load_dataset, save_dataset, split_dataset, stratified_kfold  # noqa: F401
from .train import TrainConfig, evaluate, predict_masks  # noqa: F401
