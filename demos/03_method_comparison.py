#!/usr/bin/env python3
# Triplet network vs the two-branch baseline ("twonet") on a noisy corpus.
#
# compare_methods trains one config both ways on each seed's split: the
# same towers-plus-distance-head architecture and the same triplets, with
# only the objective changed. The triplet model learns from relative
# comparisons (positive closer than negative), the baseline from pointwise
# match labels. On noisy data the relative objective wins both pairwise
# ranking accuracy and item-item retrieval.

import io

from tripletrec import model as M
from tripletrec.data import SynthConfig, generate_synthetic
from tripletrec.evaluate import compare_methods
from tripletrec.train import TrainConfig

store = generate_synthetic(
    SynthConfig(num_tags=5, users_per_tag=20, items_per_tag=60,
                feature_noise_std=4.0, seed=11, frames=6, frame_dim=30)
)
print(f"corpus: {store.n_users} users, {store.n_items} items, noisy features")

config = TrainConfig(
    epochs=25,
    batch_size=64,
    user_tower=M.TowerSpec(5, [32, 32, 16, 16], 7),
    item_tower=M.TowerSpec(180, [64, 32, 16, 16], 7),
)
comparison = compare_methods(store, config, seeds=[1, 2, 3], k=10, log_stream=io.StringIO())
print()
print(comparison.to_table())
