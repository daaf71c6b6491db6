"""Cross-modal contrastive learning pipeline on synthetic paired data.

A radar-heatmap encoder is pre-trained label-free against a frozen image
encoder with a contrastive loss and a FIFO queue of negative keys; the same
loss doubles as a mutual-information lower-bound estimator, validated on
correlated Gaussians; a linear-probe/fine-tune/baseline evaluation harness
measures what the representation learned.
"""

from .autodiff import backward
from .config import ExperimentConfig, load_config
from .contrastive import ContrastiveConfig, NegativeQueue, info_nce, pretrain
from .datagen import (
    Dataset,
    GaussianPairConfig,
    SceneLatent,
    SimulatorConfig,
    analytic_mi,
    gen_gaussian_pairs,
    make_dataset,
    render_image,
    render_radar,
    sample_scene,
)
from .evaluation import (
    HeadConfig,
    ProbeResult,
    SweepTable,
    cluster_separation,
    finetune,
    linear_probe,
    project_2d,
    supervised_baseline,
)
from .mi import MiCriticConfig, MiEstimate, estimate_mi_gaussian, mi_lower_bound
from .models import (
    EncoderModel,
    OptimizerState,
    cosine_lr,
    init_encoder,
    load_checkpoint,
    pretrain_vision,
    save_checkpoint,
    sgd_step,
)

__version__ = "0.1.0"
