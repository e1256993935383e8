"""Multi-rater label fusion for 3D segmentation masks.

Estimates a consensus probability map and per-expert reliability from
binary or soft annotations, builds intensity-gated soft masks from binary
delineations, scores masks with a soft Dice, and ships a synthetic
phantom/rater simulator for end-to-end validation.
"""

from . import errors
from .metrics import (
    EvalReport,
    ParamRecovery,
    param_recovery_error,
    precision_recall,
    soft_dice,
)
from .soft_staple import (
    ENUMERATION_GUARD,
    mc_soft_e_step_voxel,
    run_em,
    run_soft_em,
    simple_e_step,
    simple_e_step_voxel,
    simple_log_likelihood,
    simple_m_step,
    soft_e_step,
    soft_e_step_voxel,
    soft_log_likelihood,
    soft_m_step,
)
from .softmask import (
    SoftMaskConfig,
    build_soft_mask,
    build_soft_stack,
    connected_components,
)
from .staple import (
    FusionConfig,
    FusionResult,
    RaterParams,
    binarize,
    e_step,
    log_likelihood,
    m_step,
    posterior_voxel,
)
from .svol_io import read_svol, write_svol
from .synth import (
    PhantomSpec,
    RaterSpec,
    generate_phantom,
    load_simulation_config,
    simulate_raters,
    soften_votes,
)
from .volume import (
    Dim3,
    ExpertStack,
    GridKind,
    VolumeGrid,
    validate_stack,
)

__version__ = "0.1.0"

__all__ = [
    "Dim3",
    "ENUMERATION_GUARD",
    "EvalReport",
    "ExpertStack",
    "FusionConfig",
    "FusionResult",
    "GridKind",
    "ParamRecovery",
    "PhantomSpec",
    "RaterParams",
    "RaterSpec",
    "SoftMaskConfig",
    "VolumeGrid",
    "binarize",
    "build_soft_mask",
    "build_soft_stack",
    "connected_components",
    "e_step",
    "errors",
    "generate_phantom",
    "load_simulation_config",
    "log_likelihood",
    "m_step",
    "mc_soft_e_step_voxel",
    "param_recovery_error",
    "posterior_voxel",
    "precision_recall",
    "read_svol",
    "run_em",
    "run_soft_em",
    "simple_e_step",
    "simple_e_step_voxel",
    "simple_log_likelihood",
    "simple_m_step",
    "simulate_raters",
    "soft_dice",
    "soft_e_step",
    "soft_e_step_voxel",
    "soft_log_likelihood",
    "soft_m_step",
    "soften_votes",
    "validate_stack",
    "write_svol",
]
