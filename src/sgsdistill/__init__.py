"""Multi-domain dataset distillation with spectral gradient surgery.

Pure-numpy library: distribution-matching losses with exact pixel gradients,
FFT-domain cross-domain consensus and gradient decomposition, Monte-Carlo
oracles for the decomposition's preservation/attenuation behavior,
pseudo-domain clustering, a distillation pipeline, and a leave-one-domain-out
evaluation harness.
"""

from .circular import (
    DecayCurve,
    ResultantSweep,
    SpectralModel,
    attenuation_curve,
    empirical_resultant,
    resultant_sweep,
)
from .datasets import TEST, TRAIN, DataView, MultiDomainDataset, SyntheticSet
from .dm import DmGradient, class_feature_mean, dm_gradient, dm_loss
from .evaluation import (
    EvalConfig,
    EvalReport,
    MdgOutcome,
    SoftmaxClassifier,
    accuracy,
    assert_protocol_isolation,
    config_distiller,
    mdg_protocol,
    real_subsample_distiller,
    sdg_protocol,
    toy_protocol_config,
    train_classifier,
)
from .featurizers import ConvFeaturizer, LinearFeaturizer
from .fourier import fft2, ifft2, naive_dft2
from .pipeline import (
    DistillConfig,
    FeaturizerSpec,
    RunResult,
    checkpoint,
    initialize,
    restore,
    run_distillation,
    surgery_snapshot,
)
from .pseudo import (
    ClusterModel,
    assign_pseudo_domains,
    cluster_purity,
    default_style_featurizer,
    kmeans,
)
from .rng import SeededRng
from .storage import (
    export_metrics_csv,
    import_idx,
    load_dataset,
    load_grids,
    save_dataset,
    save_grids,
)
from .surgery import (
    ConsensusResult,
    DomainGradientStack,
    GradientBundle,
    batch_surgery_updates,
    consensus,
    decompose,
)
from .toydata import StyleSpec, ToySpec, generate_toy, sdg_toy_spec

__version__ = "0.1.0"

__all__ = [
    "TEST",
    "TRAIN",
    "ClusterModel",
    "ConsensusResult",
    "ConvFeaturizer",
    "DataView",
    "DecayCurve",
    "DistillConfig",
    "DmGradient",
    "DomainGradientStack",
    "EvalConfig",
    "EvalReport",
    "FeaturizerSpec",
    "GradientBundle",
    "LinearFeaturizer",
    "MdgOutcome",
    "MultiDomainDataset",
    "ResultantSweep",
    "RunResult",
    "SeededRng",
    "SoftmaxClassifier",
    "SpectralModel",
    "StyleSpec",
    "SyntheticSet",
    "ToySpec",
    "accuracy",
    "assert_protocol_isolation",
    "assign_pseudo_domains",
    "attenuation_curve",
    "batch_surgery_updates",
    "checkpoint",
    "class_feature_mean",
    "cluster_purity",
    "config_distiller",
    "consensus",
    "decompose",
    "default_style_featurizer",
    "dm_gradient",
    "dm_loss",
    "empirical_resultant",
    "export_metrics_csv",
    "fft2",
    "generate_toy",
    "ifft2",
    "import_idx",
    "initialize",
    "kmeans",
    "load_dataset",
    "load_grids",
    "mdg_protocol",
    "naive_dft2",
    "real_subsample_distiller",
    "restore",
    "resultant_sweep",
    "run_distillation",
    "save_dataset",
    "save_grids",
    "sdg_protocol",
    "sdg_toy_spec",
    "surgery_snapshot",
    "toy_protocol_config",
    "train_classifier",
]
