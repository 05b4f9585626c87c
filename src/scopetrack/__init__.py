"""Tracking and evaluation toolkit for serialized colonoscopy detection streams."""

from .assignment import Assignment, CostMatrix, brute_force_solve, solve
from .losses import LossBreakdown, LossWeights, detr_match, total_loss
from .metrics import (
    DetEvalResult,
    TrackedDet,
    TrackedSequence,
    TrackEvalResult,
    eval_classification_f1,
    eval_hota,
    eval_idf1,
    eval_mota,
    eval_segmentation,
    evaluate_tracking,
    pair_frames,
)
from .model import (
    BBox,
    ClassDistribution,
    Embedding,
    FramePrediction,
    GroundTruthFrame,
    GroundTruthObject,
    GroundTruthStream,
    QuerySlot,
    RleMask,
    StreamHeader,
    VideoStream,
    box_iou,
    mask_iou,
    rle_decode,
    rle_encode,
    validate_ground_truth,
    validate_stream,
)
from .report import ExamReport, PolypReportEntry, generate_report, render_report
from .synth import SynthConfig, generate
from .tracker import (
    TrackerConfig,
    TrackingOutput,
    TrackRecord,
    TrackState,
    TrackSummary,
    iou_baseline_track,
    step,
    track_video,
)

__version__ = "0.1.0"
