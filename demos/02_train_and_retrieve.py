#!/usr/bin/env python3
# Full pipeline on a synthetic corpus: generate features, assemble training
# triplets, train the triplet model, evaluate, and retrieve nearest items
# for one user and one query item.
#
# The corpus mimics the production layout: items carry flattened
# frames x frame-dim feature vectors clustered by tag, users carry a topic
# vector whose largest entry is their dominant tag.

import io

from tripletrec import model as M
from tripletrec.data import (
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
    split_train_test,
)
from tripletrec.evaluate import evaluate_model
from tripletrec.train import TrainConfig, train

corpus_cfg = SynthConfig(
    num_tags=5,
    users_per_tag=20,
    items_per_tag=40,
    feature_noise_std=0.5,
    seed=7,
    frames=6,
    frame_dim=30,
)
store = generate_synthetic(corpus_cfg)
print(f"corpus: {store.n_users} users, {store.n_items} items, "
      f"{store.item_features.shape[1]}-dim item features")

triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=7)
train_set, test_set = split_train_test(triplets, 0.2, seed=7, store=store)
print(f"triplets: {len(train_set)} train / {len(test_set)} held out")

config = TrainConfig(
    epochs=15,
    batch_size=64,
    seed=7,
    user_tower=M.TowerSpec(5, [32, 32, 16, 16], 7),
    item_tower=M.TowerSpec(180, [64, 32, 16, 16], 7),
)
log = io.StringIO()
ckpt = train(store, train_set, config, log_stream=log)
print(f"trained {config.epochs} epochs; loss {ckpt.loss_history[0]:.3f} -> "
      f"{ckpt.loss_history[-1]:.3f}")

report = evaluate_model(ckpt.model, store, test_set, k=10)
print()
print(report.to_table())

# user -> item retrieval: top items should carry the user's dominant tag
uid = int(store.user_ids[0])
user_tag = int(store.user_tags[0])
top = M.rank_items_for_user(
    ckpt.model, store.user_topics[0], store.item_ids, store.item_features, 5
)
print(f"\nnearest items for user {uid} (dominant tag {user_tag}):")
for rank, (iid, tag) in enumerate(zip(top, store.item_tags[store.item_rows(top)]), 1):
    print(f"  {rank}. item {int(iid)} tag={int(tag)}")

# item -> item retrieval in the shared latent space, query excluded
qid = int(store.item_ids[0])
neighbours = M.rank_items_for_item(
    ckpt.model, store.item_features[0], store.item_ids, store.item_features,
    5, exclude_ids=(qid,),
)
print(f"\nnearest neighbours of item {qid} (tag {int(store.item_tags[0])}):")
for rank, (iid, tag) in enumerate(zip(neighbours, store.item_tags[store.item_rows(neighbours)]), 1):
    print(f"  {rank}. item {int(iid)} tag={int(tag)}")
