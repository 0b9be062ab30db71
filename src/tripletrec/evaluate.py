"""Retrieval and ranking metrics, plus the triplet-vs-baseline comparison.

Three metrics, all computed in inference mode over frozen parameters:

* pairwise ranking accuracy — fraction of held-out triplets whose predicted
  order matches the label (a tie at probability 0.5 counts as incorrect);
* precision@k for user -> item retrieval — fraction of the top-k items
  carrying the user's dominant tag, averaged over users;
* precision@k for item -> item retrieval — same, over query items with the
  query excluded from candidates.

Each metric embeds the catalogue (and its users) once and scores every
triplet or query against those latents.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import train as T
from .data import (
    DataError,
    FeatureStore,
    PairingStrategy,
    TripletExample,
    build_triplets,
    gather_triplet_rows,
    split_train_test,
)


@dataclass
class EvalReport:
    pairwise_accuracy: float | None = None
    precision_at_k: dict[int, float] = field(default_factory=dict)
    item_item_precision_at_k: dict[int, float] = field(default_factory=dict)
    n_test: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["precision_at_k"] = {str(k): v for k, v in self.precision_at_k.items()}
        d["item_item_precision_at_k"] = {
            str(k): v for k, v in self.item_item_precision_at_k.items()
        }
        return json.dumps(d, indent=2, sort_keys=True)

    def to_table(self) -> str:
        rows = []
        if self.pairwise_accuracy is not None:
            rows.append(("pairwise accuracy", f"{self.pairwise_accuracy:.2%}"))
        for k, v in sorted(self.precision_at_k.items()):
            rows.append((f"user->item precision@{k}", f"{v:.2%}"))
        for k, v in sorted(self.item_item_precision_at_k.items()):
            rows.append((f"item->item precision@{k}", f"{v:.2%}"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def pairwise_accuracy(
    model: M.TripletModelParams, triplets: list[TripletExample], store: FeatureStore
) -> float:
    """Fraction of triplets ordered correctly: label 0 requires a negative
    pairwise logit, label 1 a positive one; a zero logit is wrong."""
    if not triplets:
        raise DataError("empty test set")
    u, i, j, labels = gather_triplet_rows(store, triplets)
    z_u = M.embed_user(model.user_tower, store.user_topics)[u]
    z_items = M.embed_item(model.item_tower, store.item_features)
    d_i, d_j = (M.distance_forward(model.head, z_u, z_items[rows])[0] for rows in (i, j))
    o = d_i - d_j
    correct = ((o < 0) & (labels == 0)) | ((o > 0) & (labels == 1))
    return float(correct.mean())


def precision_at_k(
    model: M.TripletModelParams,
    user_ids,
    store: FeatureStore,
    k: int,
) -> float:
    """Average over users of (top-k items sharing the user's dominant tag)/k.
    When fewer than k items exist the precision is over the available ones."""
    user_ids = list(user_ids)
    if not user_ids:
        raise DataError("no users to evaluate")
    tag_of = {int(iid): int(t) for iid, t in zip(store.item_ids, store.item_tags)}
    rows = [store.user_row(uid) for uid in user_ids]
    z_users = M.embed_user(model.user_tower, store.user_topics[rows])
    z_items = M.embed_item(model.item_tower, store.item_features)
    per_user = []
    for row, z_u in zip(rows, z_users):
        ranked = M.rank_latents_for_user(model, z_u, store.item_ids, z_items, k)
        hits = sum(1 for iid in ranked if tag_of[int(iid)] == int(store.user_tags[row]))
        per_user.append(hits / len(ranked))
    return float(np.mean(per_user))


def item_item_precision_at_k(
    model: M.TripletModelParams,
    item_ids,
    store: FeatureStore,
    k: int,
) -> float:
    """Average over query items of (top-k neighbours sharing the query's
    tag)/k, the query itself excluded from the candidates."""
    item_ids = list(item_ids)
    if not item_ids:
        raise DataError("no items to evaluate")
    tag_of = {int(iid): int(t) for iid, t in zip(store.item_ids, store.item_tags)}
    rows = [store.item_row(iid) for iid in item_ids]
    z_items = M.embed_item(model.item_tower, store.item_features)
    per_item = []
    for iid, row in zip(item_ids, rows):
        ranked = M.rank_latents_for_item(z_items[row], store.item_ids, z_items, k, (int(iid),))
        hits = sum(1 for r in ranked if tag_of[int(r)] == int(store.item_tags[row]))
        per_item.append(hits / len(ranked))
    return float(np.mean(per_item))


def evaluate_model(
    model: M.TripletModelParams,
    store: FeatureStore,
    test_triplets: list[TripletExample] | None = None,
    k: int = 10,
) -> EvalReport:
    """Full report: pairwise accuracy on the given triplets (if any) plus
    both retrieval precisions over the whole corpus."""
    report = EvalReport()
    if test_triplets:
        report.pairwise_accuracy = pairwise_accuracy(model, test_triplets, store)
        report.n_test["pairwise"] = len(test_triplets)
    report.precision_at_k[k] = precision_at_k(model, store.user_ids.tolist(), store, k)
    report.n_test["users"] = store.n_users
    report.item_item_precision_at_k[k] = item_item_precision_at_k(
        model, store.item_ids.tolist(), store, k
    )
    report.n_test["items"] = store.n_items
    return report


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    seed: int
    pairwise: dict[str, float]
    item_item: dict[str, float]


@dataclass
class MethodComparison:
    """Per-seed metrics for both methods with aggregate mean/std and the
    per-seed win counts of the first method over the second."""

    method_a: str
    method_b: str
    seeds: list[SeedResult]

    def _metric(self, which: str, method: str) -> np.ndarray:
        return np.array([getattr(s, which)[method] for s in self.seeds])

    def summary(self) -> dict:
        out: dict = {"methods": [self.method_a, self.method_b], "n_seeds": len(self.seeds)}
        for which in ("pairwise", "item_item"):
            a = self._metric(which, self.method_a)
            b = self._metric(which, self.method_b)
            out[which] = {
                self.method_a: {"mean": float(a.mean()), "std": float(a.std())},
                self.method_b: {"mean": float(b.mean()), "std": float(b.std())},
                "wins": {
                    self.method_a: int((a > b).sum()),
                    self.method_b: int((b > a).sum()),
                    "ties": int((a == b).sum()),
                },
            }
        return out

    def to_json(self) -> str:
        d = self.summary()
        d["per_seed"] = [dataclasses.asdict(s) for s in self.seeds]
        return json.dumps(d, indent=2, sort_keys=True)

    def to_table(self) -> str:
        s = self.summary()
        lines = [f"{'metric':<28}{self.method_a:>18}{self.method_b:>18}{'wins':>10}"]
        for which, label in (("pairwise", "pairwise accuracy"), ("item_item", "item-item p@k")):
            row = s[which]
            a, b = row[self.method_a], row[self.method_b]
            lines.append(
                f"{label:<28}"
                f"{a['mean']:>10.4f} ±{a['std']:.4f}"
                f"{b['mean']:>10.4f} ±{b['std']:.4f}"
                f"{row['wins'][self.method_a]:>5}-{row['wins'][self.method_b]}"
            )
        return "\n".join(lines)


def compare_methods(
    store: FeatureStore,
    config_a: T.TrainConfig,
    config_b: T.TrainConfig,
    seeds: list[int],
    strategy: PairingStrategy | None = None,
    test_fraction: float = 0.2,
    k: int = 10,
    log_stream=None,
) -> MethodComparison:
    """Train both configurations per seed on identical triplet data and
    report per-seed and aggregate metrics."""
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds for a comparison")
    strategy = strategy or PairingStrategy.unbalanced()
    name_a, name_b = config_a.model_kind, config_b.model_kind
    if name_a == name_b:
        name_a, name_b = f"{name_a}-a", f"{name_b}-b"

    results = []
    for seed in seeds:
        triplets = build_triplets(store, strategy, seed)
        train_set, test_set = split_train_test(triplets, test_fraction, seed, store)
        pairwise: dict[str, float] = {}
        item_item: dict[str, float] = {}
        for name, config in ((name_a, config_a), (name_b, config_b)):
            run_cfg = dataclasses.replace(config, seed=seed)
            ckpt = T.train(store, train_set, run_cfg, log_stream=log_stream)
            pairwise[name] = pairwise_accuracy(ckpt.model, test_set, store)
            item_item[name] = item_item_precision_at_k(
                ckpt.model, store.item_ids.tolist(), store, k
            )
        results.append(SeedResult(seed, pairwise, item_item))
    return MethodComparison(name_a, name_b, results)
