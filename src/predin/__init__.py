"""Dual-branch prototype learning for open-set recognition of windowed
multichannel signals."""

__version__ = "0.1.0"

from .signals import (  # noqa: F401
    UNKNOWN_LABEL,
    DatasetPartition,
    LabelSplit,
    SignalRecording,
    SyntheticConfig,
    WindowTable,
    generate_synthetic,
    load_csv,
    segment_windows,
    split_known_unknown,
    split_trials,
    standardize,
)
from .encoder import (  # noqa: F401
    EncoderParams,
    EncoderSpec,
    OptimizerState,
    encoder_backward,
    encoder_forward,
    finite_diff_check,
    init_encoder,
    lr_schedule,
    sgd_step,
)
from .prototypes import (  # noqa: F401
    compactness_loss,
    dce_loss,
    init_prototypes,
    pl_loss,
)
from .inconsistency import (  # noqa: F401
    BranchState,
    DivHyperParams,
    TrainConfig,
    TrainingError,
    div_loss,
    inconsistency_loss,
    init_branch,
    proximity_backward,
    proximity_probs,
    train,
    train_sequential,
    triplet_loss,
)
from .scoring import (  # noqa: F401
    ScoreTable,
    calibrate_threshold,
    decide,
    score_windows,
)
from .metrics import (  # noqa: F401
    agreement_confusion,
    auc,
    closed_acc,
    incon_metric,
    oscr,
    proximity_matrix,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    baseline_softmax_train,
    config_from_dict,
    load_config,
    run_ablation,
    run_experiment,
)
