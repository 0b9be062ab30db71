"""Retrieval and ranking metrics, plus the triplet-vs-baseline comparison.

Three metrics, all computed in inference mode over frozen parameters:

* pairwise ranking accuracy — fraction of held-out triplets whose predicted
  order matches the label (a tie at probability 0.5 counts as incorrect);
* precision@k for user -> item retrieval — fraction of the top-k items
  carrying the user's dominant tag, averaged over users;
* precision@k for item -> item retrieval — same, over query items with the
  query excluded from candidates.

Each metric embeds its users once and takes the catalogue's latents from
the model's cache (``model.catalogue_latents``), so a full evaluation embeds
the catalogue at most once; every triplet or query is scored against those
latents, and ids map to rows in whole arrays (``FeatureStore.user_rows`` and
``item_rows``, through an id table when the ids are dense).

Both precisions rank their queries in blocks of rows, one distance pass and
one partition per block, with the ids and warnings of one ranking call per
query: users by ``model.rank_latent_rows_for_users``, whose block distances
are each user's ``model.rank_latents_for_user`` distances bit for bit, and
items by ``model.rank_latent_rows_for_items``, which adds each distance's
terms left to right over the latent dimensions, as
``model.rank_latents_for_item`` does, at every latent width. A row with a tie
at the cut-off is ranked by ``model._top_k`` from its own distances, an item
query's id excluded by an id mask.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import train as T
from .data import (
    DataError,
    FeatureStore,
    PairingStrategy,
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
    # wall seconds of each metric in evaluate_model: JSON only, not the table
    seconds: dict[str, float] = field(default_factory=dict)

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
    model: M.TripletModelParams, triplets: np.recarray, store: FeatureStore
) -> float:
    """Fraction of triplets ordered correctly: label 0 requires a negative
    pairwise logit, label 1 a positive one; a zero logit is wrong."""
    if triplets is None or len(triplets) == 0:
        raise DataError("empty test set")
    u, i, j, labels = gather_triplet_rows(store, triplets)
    z_u = M.embed_user(model.user_tower, store.user_topics)[u]
    z_items = M.catalogue_latents(model, store.item_features)
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
    When fewer than k items exist the precision is over the available ones.

    The users are ranked in blocks (``model.rank_latent_rows_for_users``):
    each gets the ids, and any warning, of its own
    ``model.rank_latents_for_user`` call, whose distances its block forms
    bit for bit, and a user with a tie at the k-th place is ranked by
    ``model._top_k`` from the distances its block holds."""
    user_ids = list(user_ids)
    if not user_ids:
        raise DataError("no users to evaluate")
    rows = store.user_rows(user_ids)
    z_users = M.embed_user(model.user_tower, store.user_topics[rows])
    z_items = M.catalogue_latents(model, store.item_features)
    ranked = M.rank_latent_rows_for_users(model, z_users, store.item_ids, z_items, k)
    hits = store.item_tags[store.item_rows(ranked)] == store.user_tags[rows, None]
    return float(np.mean(hits.sum(axis=1) / ranked.shape[1]))


def item_item_precision_at_k(
    model: M.TripletModelParams,
    item_ids,
    store: FeatureStore,
    k: int,
) -> float:
    """Average over query items of (top-k neighbours sharing the query's
    tag)/k, the query itself excluded from the candidates. A catalogue of
    fewer than 2 items leaves no candidate, so it raises DataError.

    The queries are ranked in blocks (``model.rank_latent_rows_for_items``):
    each gets the ids, and any warning, of its own
    ``model.rank_latents_for_item`` call, whose distances its block forms
    bit for bit at every latent width, and a query with a tie at the k-th
    place is ranked by ``model._top_k`` from the distances its block holds,
    the query's id excluded by an id mask."""
    item_ids = list(item_ids)
    if not item_ids:
        raise DataError("no items to evaluate")
    if store.n_items < 2:
        raise DataError(
            f"item-item precision needs at least 2 catalogue items, got {store.n_items}: "
            f"no candidate is left once the query is excluded"
        )
    rows = store.item_rows(item_ids)
    z_items = M.catalogue_latents(model, store.item_features)
    ranked = M.rank_latent_rows_for_items(store.item_ids, z_items, rows, k)
    hits = store.item_tags[store.item_rows(ranked)] == store.item_tags[rows, None]
    return float(np.mean(hits.sum(axis=1) / ranked.shape[1]))


def evaluate_model(
    model: M.TripletModelParams,
    store: FeatureStore,
    test_triplets: np.recarray | None = None,
    k: int = 10,
) -> EvalReport:
    """Full report: pairwise accuracy on the given triplets (if any) plus
    both retrieval precisions over the whole corpus, with each metric's
    wall time in ``seconds``."""
    report = EvalReport()

    def timed(name, metric, *args):
        start = time.perf_counter()
        value = metric(model, *args)
        report.seconds[name] = time.perf_counter() - start
        return value

    if test_triplets is not None and len(test_triplets) > 0:
        report.pairwise_accuracy = timed("pairwise", pairwise_accuracy, test_triplets, store)
        report.n_test["pairwise"] = len(test_triplets)
    report.precision_at_k[k] = timed("precision_at_k", precision_at_k,
                                     store.user_ids.tolist(), store, k)
    report.n_test["users"] = store.n_users
    report.item_item_precision_at_k[k] = timed("item_item_precision_at_k", item_item_precision_at_k,
                                               store.item_ids.tolist(), store, k)
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
    """Per-seed metrics of the triplet model and the twonet baseline, with
    aggregate mean/std and the per-seed win counts of each over the other."""

    seeds: list[SeedResult]

    def _metric(self, which: str, method: str) -> np.ndarray:
        return np.array([getattr(s, which)[method] for s in self.seeds])

    def summary(self) -> dict:
        out: dict = {"methods": ["triplet", "twonet"], "n_seeds": len(self.seeds)}
        for which in ("pairwise", "item_item"):
            a = self._metric(which, "triplet")
            b = self._metric(which, "twonet")
            out[which] = {
                "triplet": {"mean": float(a.mean()), "std": float(a.std())},
                "twonet": {"mean": float(b.mean()), "std": float(b.std())},
                "wins": {
                    "triplet": int((a > b).sum()),
                    "twonet": int((b > a).sum()),
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
        lines = [f"{'metric':<28}{'triplet':>18}{'twonet':>18}{'wins':>10}"]
        for which, label in (("pairwise", "pairwise accuracy"), ("item_item", "item-item p@k")):
            row = s[which]
            a, b = row["triplet"], row["twonet"]
            lines.append(
                f"{label:<28}"
                f"{a['mean']:>10.4f} ±{a['std']:.4f}"
                f"{b['mean']:>10.4f} ±{b['std']:.4f}"
                f"{row['wins']['triplet']:>5}-{row['wins']['twonet']}"
            )
        return "\n".join(lines)


MIN_SEEDS = 3  # the fewest seeds compare_methods accepts


def check_seeds(seeds: list[int]) -> None:
    """ValueError unless ``seeds`` holds at least MIN_SEEDS seeds, none of
    them twice: a repeated seed would count one run as two."""
    if len(seeds) < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} seeds for a comparison, got {len(seeds)}")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ValueError(f"seed {repeated} given more than once")


def compare_methods(
    store: FeatureStore,
    config: T.TrainConfig,
    seeds: list[int],
    strategy: PairingStrategy | None = None,
    k: int = 10,
    log_stream=None,
) -> MethodComparison:
    """Train ``config`` as ``"triplet"`` and then as ``"twonet"`` per seed,
    on that seed's one split of its triplets (a fifth held out), and report
    per-seed and aggregate metrics. Each run's config is ``config`` with
    only ``model_kind`` and ``seed`` set, so the two runs of a seed differ
    in nothing but the objective."""
    check_seeds(seeds)
    strategy = strategy or PairingStrategy.unbalanced()
    results = []
    for seed in seeds:
        triplets = build_triplets(store, strategy, seed)
        train_set, test_set = split_train_test(triplets, 0.2, seed, store)
        pairwise: dict[str, float] = {}
        item_item: dict[str, float] = {}
        for kind in ("triplet", "twonet"):
            run_cfg = dataclasses.replace(config, model_kind=kind, seed=seed)
            ckpt = T.train(store, train_set, run_cfg, log_stream=log_stream)
            pairwise[kind] = pairwise_accuracy(ckpt.model, test_set, store)
            item_item[kind] = item_item_precision_at_k(
                ckpt.model, store.item_ids.tolist(), store, k
            )
        results.append(SeedResult(seed, pairwise, item_item))
    return MethodComparison(results)
