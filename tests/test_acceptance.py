"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every training run is seeded, so all numbers here are deterministic
and the directional comparisons (criteria 4 and 5) reproduce bit-for-bit.
"""

import dataclasses
import io
import time

import numpy as np

from tripletrec import model as M
from tripletrec.cli import gradcheck_models
from tripletrec.data import (
    PairingStrategy,
    SynthConfig,
    build_triplets,
    generate_synthetic,
    split_train_test,
)
from tripletrec.evaluate import (
    item_item_precision_at_k,
    pairwise_accuracy,
    precision_at_k,
)
from tripletrec.nn import ParamTensor, RngState, zero_grads
from tripletrec.train import TrainConfig, load_checkpoint, save_checkpoint, train

# One model configuration shared by criteria 3-5 ("the" desk-scale model):
# towers sized for 180-dim synthetic features, latent dim 7, the stock
# dropout/learning-rate defaults, 30 epochs at batch 64.
FRAMES, FRAME_DIM = 6, 30
USER_HIDDEN = [32, 32, 16, 16]
ITEM_HIDDEN = [64, 32, 16, 16]
LATENT = 7
EPOCHS = 30
BATCH = 64
SEEDS = (1, 2, 3, 4, 5)


def desk_config(num_tags, seed, kind="triplet"):
    return TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH,
        seed=seed,
        model_kind=kind,
        user_tower=M.TowerSpec(num_tags, list(USER_HIDDEN), LATENT),
        item_tower=M.TowerSpec(FRAMES * FRAME_DIM, list(ITEM_HIDDEN), LATENT),
    )


def desk_corpus(seed, num_tags, items_per_tag, users_per_tag, noise):
    return generate_synthetic(
        SynthConfig(
            num_tags=num_tags,
            users_per_tag=users_per_tag,
            items_per_tag=items_per_tag,
            feature_noise_std=noise,
            seed=seed,
            frames=FRAMES,
            frame_dim=FRAME_DIM,
        )
    )


def train_and_score(store, strategy, seed, kind, k=10):
    triplets = build_triplets(store, strategy, seed)
    train_set, test_set = split_train_test(triplets, 0.2, seed, store)
    config = desk_config(store.user_topics.shape[1], seed, kind)
    ckpt = train(store, train_set, config, log_stream=io.StringIO())
    acc = pairwise_accuracy(ckpt.model, test_set, store)
    pii = item_item_precision_at_k(ckpt.model, store.item_ids.tolist(), store, k)
    return acc, pii


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    rep_triplet, rep_twonet = gradcheck_models(seed=1)
    elapsed = time.perf_counter() - t0
    ok = (
        rep_triplet.passed
        and rep_twonet.passed
        and rep_triplet.max_rel_error < 1e-4
        and rep_twonet.max_rel_error < 1e-4
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"triplet max rel err {rep_triplet.max_rel_error:.2e}, "
        f"twonet {rep_twonet.max_rel_error:.2e}, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_formula_fidelity():
    n = 1000
    user_spec = M.TowerSpec(3, [5, 4], 3)
    item_spec = M.TowerSpec(6, [5, 4], 3)
    model = M.init_model(user_spec, item_spec, RngState(0), 0.0)
    gen = np.random.default_rng(0)
    u = gen.normal(size=(n, 3))
    xi = gen.normal(size=(n, 6))
    xj = gen.normal(size=(n, 6))

    o = M.pair_logit(model, u, xi, xj)
    o_swapped = M.pair_logit(model, u, xj, xi)
    antisymmetric = np.array_equal(o, -o_swapped)

    complement_gap = np.abs(M.pair_prob(o) + M.pair_prob(o_swapped) - 1.0).max()

    # label-swap equivalence: loss and every gradient within 1e-12
    params = model.parameters()
    swap_ok = True
    max_loss_gap = 0.0
    max_grad_gap = 0.0
    for start in range(0, n, 25):
        sl = slice(start, start + 25)
        labels = gen.integers(0, 2, size=25).astype(float)
        zero_grads(params)
        loss_a = M.triplet_loss_and_grads(model, u[sl], xi[sl], xj[sl], labels)
        grads_a = [p.grad.copy() for p in params]
        zero_grads(params)
        loss_b = M.triplet_loss_and_grads(model, u[sl], xj[sl], xi[sl], 1.0 - labels)
        max_loss_gap = max(max_loss_gap, abs(loss_a - loss_b))
        for g_a, p in zip(grads_a, params):
            max_grad_gap = max(max_grad_gap, np.abs(g_a - p.grad).max())
    swap_ok = max_loss_gap <= 1e-12 and max_grad_gap <= 1e-12

    head = M.DistanceHeadParams(ParamTensor(np.ones((1, 3))), ParamTensor(np.zeros((1, 1))))
    a = gen.normal(size=(n, 3))
    b = gen.normal(size=(n, 3))
    reduction_gap = np.abs(
        M.weighted_distance(head, a, b) - ((a - b) ** 2).sum(axis=1)
    ).max()

    ok = (
        antisymmetric
        and complement_gap <= 1e-15
        and swap_ok
        and reduction_gap <= 1e-12
    )
    report(
        2,
        ok,
        f"antisymmetry exact={antisymmetric}, complement gap {complement_gap:.1e} "
        f"(<=1e-15), label-swap loss gap {max_loss_gap:.1e} / grad gap "
        f"{max_grad_gap:.1e} (<=1e-12), sq-Euclid reduction gap "
        f"{reduction_gap:.1e} over {n} instances",
    )


def test_criterion_3_separable_end_to_end():
    t0 = time.perf_counter()
    store = desk_corpus(seed=1, num_tags=5, items_per_tag=40, users_per_tag=20, noise=0.1)
    triplets = build_triplets(store, PairingStrategy.unbalanced(), seed=1)
    train_set, test_set = split_train_test(triplets, 0.2, seed=1, store=store)
    ckpt = train(store, train_set, desk_config(5, seed=1), log_stream=io.StringIO())
    acc = pairwise_accuracy(ckpt.model, test_set, store)
    elapsed = time.perf_counter() - t0
    final_loss = ckpt.loss_history[-1]
    ok = acc >= 0.95 and elapsed < 120.0 and final_loss < 0.1
    report(
        3,
        ok,
        f"held-out pairwise accuracy {acc:.4f} (>= 0.95), final training loss "
        f"{final_loss:.4f} (< 0.1), {elapsed:.0f}s (< 120s)",
    )


def test_criterion_4_triplet_beats_twonet():
    accs = {"triplet": [], "twonet": []}
    piis = {"triplet": [], "twonet": []}
    for seed in SEEDS:
        store = desk_corpus(seed, num_tags=5, items_per_tag=60, users_per_tag=20, noise=4.0)
        for kind in ("triplet", "twonet"):
            acc, pii = train_and_score(store, PairingStrategy.unbalanced(), seed, kind)
            accs[kind].append(acc)
            piis[kind].append(pii)

    tri_acc, two_acc = np.mean(accs["triplet"]), np.mean(accs["twonet"])
    tri_pii, two_pii = np.mean(piis["triplet"]), np.mean(piis["twonet"])
    acc_wins = sum(a > b for a, b in zip(accs["triplet"], accs["twonet"]))
    pii_wins = sum(a > b for a, b in zip(piis["triplet"], piis["twonet"]))
    in_band = 0.6 <= tri_acc <= 0.9
    ok = (
        in_band
        and tri_acc > two_acc
        and tri_pii > two_pii
        and acc_wins >= 4
        and pii_wins >= 4
    )
    report(
        4,
        ok,
        f"pairwise acc triplet {tri_acc:.3f} vs twonet {two_acc:.3f} "
        f"(wins {acc_wins}/5), item-item p@10 {tri_pii:.3f} vs {two_pii:.3f} "
        f"(wins {pii_wins}/5), triplet mean in [0.6, 0.9]={in_band}",
    )


def test_criterion_5_pairing_regime_ordering():
    regimes = {
        "one_to_n": PairingStrategy.one_to_n(10),
        "balanced": PairingStrategy.balanced(),
        "unbalanced": PairingStrategy.unbalanced(),
    }
    means = {}
    for label, strategy in regimes.items():
        accs = []
        for seed in SEEDS:
            store = desk_corpus(seed, num_tags=4, items_per_tag=15, users_per_tag=10, noise=8.0)
            acc, _ = train_and_score(store, strategy, seed, "triplet")
            accs.append(acc)
        means[label] = float(np.mean(accs))
    ok = (
        means["one_to_n"] >= means["balanced"]
        and means["balanced"] >= means["unbalanced"]
        and means["one_to_n"] > means["unbalanced"]
    )
    report(
        5,
        ok,
        f"mean pairwise acc: 1-to-10 {means['one_to_n']:.3f} >= balanced "
        f"{means['balanced']:.3f} >= unbalanced {means['unbalanced']:.3f}, "
        f"with 1-to-10 strictly above unbalanced",
    )


# ---------------------------------------------------------------------------
# criterion 6: brute-force recounts (independent implementations, loops only)
# ---------------------------------------------------------------------------


def _bf_user_ranking(model, u, store, k):
    z_u = M.embed_user(model.user_tower, u)[0]
    w, b = model.head.weight.value[0], model.head.bias.value[0, 0]
    scored = []
    for r in range(store.n_items):
        z_i = M.embed_item(model.item_tower, store.item_features[r])[0]
        scored.append((float((w * (z_u - z_i) ** 2).sum() + b), int(store.item_ids[r])))
    scored.sort()
    return [iid for _, iid in scored[: min(k, store.n_items)]]


def _bf_item_ranking(model, query_row, store, k):
    z_q = M.embed_item(model.item_tower, store.item_features[query_row])[0]
    scored = []
    for r in range(store.n_items):
        if r == query_row:
            continue
        z_i = M.embed_item(model.item_tower, store.item_features[r])[0]
        scored.append((float(((z_q - z_i) ** 2).sum()), int(store.item_ids[r])))
    scored.sort()
    return [iid for _, iid in scored[: min(k, store.n_items - 1)]]


def _bf_pairwise(model, triplets, store):
    correct = 0
    for t in triplets:
        z_u = M.embed_user(model.user_tower, store.user_topics[store.user_row(t.user_id)])[0]
        z_i = M.embed_item(model.item_tower, store.item_features[store.item_row(t.item_i_id)])[0]
        z_j = M.embed_item(model.item_tower, store.item_features[store.item_row(t.item_j_id)])[0]
        w = model.head.weight.value[0]
        o = float((w * (z_u - z_i) ** 2).sum()) - float((w * (z_u - z_j) ** 2).sum())
        if (o < 0 and t.label == 0) or (o > 0 and t.label == 1):
            correct += 1
    return correct / len(triplets)


def test_criterion_6_oracle_equivalence():
    store = desk_corpus(seed=2, num_tags=5, items_per_tag=40, users_per_tag=8, noise=0.5)
    assert store.n_items <= 200
    model = M.init_model(
        M.TowerSpec(5, [16, 8], 4), M.TowerSpec(FRAMES * FRAME_DIM, [16, 8], 4),
        RngState(3), 0.2,
    )
    triplets = build_triplets(store, PairingStrategy.one_to_n(2), seed=2)

    mismatches = []
    for k in (1, 7, store.n_items):
        for r in range(store.n_users):
            got = M.rank_items_for_user(
                model, store.user_topics[r], store.item_ids, store.item_features, k
            ).tolist()
            if got != _bf_user_ranking(model, store.user_topics[r], store, k):
                mismatches.append(f"user ranking k={k} row={r}")
    for query_row in range(0, store.n_items, 9):
        got = M.rank_items_for_item(
            model,
            store.item_features[query_row],
            store.item_ids,
            store.item_features,
            10,
            exclude_ids=(int(store.item_ids[query_row]),),
        ).tolist()
        if got != _bf_item_ranking(model, query_row, store, 10):
            mismatches.append(f"item ranking query={query_row}")

    acc = pairwise_accuracy(model, triplets, store)
    if acc != _bf_pairwise(model, triplets, store):
        mismatches.append("pairwise accuracy")

    for k in (1, 10):
        got = precision_at_k(model, store.user_ids.tolist(), store, k)
        bf = float(np.mean([
            sum(
                1 for iid in _bf_user_ranking(model, store.user_topics[r], store, k)
                if int(store.item_tags[store.item_row(iid)]) == int(store.user_tags[r])
            ) / min(k, store.n_items)
            for r in range(store.n_users)
        ]))
        if got != bf:
            mismatches.append(f"precision@{k}")

    got = item_item_precision_at_k(model, store.item_ids.tolist(), store, 10)
    bf = float(np.mean([
        sum(
            1 for iid in _bf_item_ranking(model, r, store, 10)
            if int(store.item_tags[store.item_row(iid)]) == int(store.item_tags[r])
        ) / 10
        for r in range(store.n_items)
    ]))
    if got != bf:
        mismatches.append("item-item precision@10")

    report(
        6,
        not mismatches,
        f"rankings and metrics equal brute-force recounts exactly on "
        f"{store.n_items} items" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_7_determinism_and_persistence(tmp_path):
    store = desk_corpus(seed=4, num_tags=3, items_per_tag=10, users_per_tag=5, noise=1.0)
    triplets = build_triplets(store, PairingStrategy.one_to_n(2), seed=4)
    train_set, test_set = split_train_test(triplets, 0.25, seed=4, store=store)
    config = dataclasses.replace(desk_config(3, seed=4), epochs=5)

    ckpt_a = train(store, train_set, config, log_stream=io.StringIO())
    ckpt_b = train(store, train_set, config, log_stream=io.StringIO())
    save_checkpoint(ckpt_a, tmp_path / "a.ckpt")
    save_checkpoint(ckpt_b, tmp_path / "b.ckpt")
    bitwise = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    before = (
        pairwise_accuracy(ckpt_a.model, test_set, store),
        precision_at_k(ckpt_a.model, store.user_ids.tolist(), store, 5),
        item_item_precision_at_k(ckpt_a.model, store.item_ids.tolist(), store, 5),
    )
    loaded = load_checkpoint(tmp_path / "a.ckpt")
    after = (
        pairwise_accuracy(loaded.model, test_set, store),
        precision_at_k(loaded.model, store.user_ids.tolist(), store, 5),
        item_item_precision_at_k(loaded.model, store.item_ids.tolist(), store, 5),
    )
    round_trip_exact = before == after
    ok = bitwise and round_trip_exact
    report(
        7,
        ok,
        f"identical (seed, config, data) give bitwise-identical checkpoints="
        f"{bitwise}; round trip preserves evaluation exactly={round_trip_exact} "
        f"(pairwise/p@5/ii@5 = {before[0]:.4f}/{before[1]:.4f}/{before[2]:.4f})",
    )
