"""Glottal flow extraction, feature-domain rhythm perturbation, copy-synthesis
and EER scoring for speech anti-spoofing experiments."""

from .audio_io import (
    AudioBuffer,
    ManifestEntry,
    read_features,
    read_manifest,
    read_wav,
    write_features,
    write_manifest,
    write_wav,
)
from .dsp import FrameSpec, LpcModel
from .evaluation import (
    EerBreakdown,
    EerResult,
    ScoreSet,
    eer_breakdown,
    read_scores,
)
from .features import FeatureBundle, FeatureConfig, extract_features
from .glottal import GlottalFlowResult, IaifConfig, extract_glottal_flow
from .rpm import (
    RpmConfig,
    Segment,
    SegmentPlan,
    SplitMix64,
    apply_plan,
    rhythm_perturb,
    sample_segment_plan,
    speed_perturb,
)
from .synthesis import (
    CopySynthesisResult,
    GriffinLimConfig,
    copy_synthesize,
    griffin_lim,
    mel_to_linear,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "CopySynthesisResult",
    "EerBreakdown",
    "EerResult",
    "FeatureBundle",
    "FeatureConfig",
    "FrameSpec",
    "GlottalFlowResult",
    "GriffinLimConfig",
    "IaifConfig",
    "LpcModel",
    "ManifestEntry",
    "RpmConfig",
    "ScoreSet",
    "Segment",
    "SegmentPlan",
    "SplitMix64",
    "apply_plan",
    "copy_synthesize",
    "eer_breakdown",
    "extract_features",
    "extract_glottal_flow",
    "griffin_lim",
    "mel_to_linear",
    "read_features",
    "read_manifest",
    "read_scores",
    "read_wav",
    "render",
    "rhythm_perturb",
    "sample_segment_plan",
    "speed_perturb",
    "write_features",
    "write_manifest",
    "write_wav",
]
