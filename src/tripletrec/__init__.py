"""Metric-learning recommender: a triplet network (user tower, weight-shared
item tower, learned weighted-distance head) trained with pairwise
cross-entropy, a two-branch pointwise baseline, and retrieval/evaluation
tooling on top of a small hand-rolled numpy autodiff core."""

from .data import (
    DataError,
    FeatureStore,
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
    load_corpus,
    load_corpus_dir,
    load_triplets,
    save_corpus,
    save_triplets,
    split_train_test,
    triplet_array,
)
from .evaluate import (
    EvalReport,
    MethodComparison,
    compare_methods,
    evaluate_model,
    item_item_precision_at_k,
    pairwise_accuracy,
    precision_at_k,
)
from .model import (
    DistanceHeadParams,
    TowerParams,
    TowerSpec,
    TripletModelParams,
    embed_item,
    embed_user,
    init_model,
    pair_logit,
    pair_prob,
    rank_items_for_item,
    rank_items_for_user,
    triplet_loss_and_grads,
    twonet_loss_and_grads,
    weighted_distance,
)
from .nn import (
    GradCheckReport,
    NonFiniteLossError,
    ParamTensor,
    RngState,
    adam_step,
    bce_loss_from_logit,
    grad_check,
    sigmoid_stable,
    zero_grads,
)
from .train import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"
