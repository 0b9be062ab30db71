"""Corpus handling: CSV ingestion, a seeded synthetic corpus generator, and
triplet assembly under three pairing regimes.

File formats (UTF-8, '.' decimal separator):

* users file:    header ``user_id,t0,...,t{d-1}[,tag]``; when the tag column
  is absent the dominant tag is the argmax of the topic vector (ties go to
  the lowest index).
* items file:    header ``item_id,tag,f0,...,f{d-1}`` with the item features
  flattened frame-major (frame 0 first).
* triplets file: header ``user_id,item_i,item_j,label`` with label 0 for a
  (matching, non-matching) ordering and 1 for the reverse.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed corpus or triplet data; message carries the location."""


@dataclass
class UserRecord:
    user_id: int
    topic_vector: np.ndarray
    dominant_tag: int


@dataclass
class ItemRecord:
    item_id: int
    features: np.ndarray
    tag: int


@dataclass(frozen=True)
class TripletExample:
    """(user, item_i, item_j) plus the orientation label: 0 when item_i is
    the item matching the user's dominant tag, 1 when item_j is."""

    user_id: int
    item_i_id: int
    item_j_id: int
    label: int


@dataclass(frozen=True)
class PairingStrategy:
    """How negatives are paired with positives when building triplets.

    * ``unbalanced``: one negative per positive, drawn uniformly over all
      items of other tags; tag-combination counts fall as they may.
    * ``balanced``: every (positive-tag, negative-tag) combination ends up
      with the same triplet count, excess trimmed at random.
    * ``one_to_n``: n distinct negatives per positive.
    """

    variant: str
    n: int = 1

    def __post_init__(self):
        if self.variant not in ("unbalanced", "balanced", "one_to_n"):
            raise ValueError(f"unknown pairing variant: {self.variant!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @classmethod
    def unbalanced(cls) -> "PairingStrategy":
        return cls("unbalanced")

    @classmethod
    def balanced(cls) -> "PairingStrategy":
        return cls("balanced")

    @classmethod
    def one_to_n(cls, n: int) -> "PairingStrategy":
        return cls("one_to_n", n)


@dataclass
class SynthConfig:
    """Synthetic corpus: per-tag feature prototypes plus Gaussian noise, and
    users whose topic vectors concentrate on their tag."""

    num_tags: int = 5
    users_per_tag: int = 20
    items_per_tag: int = 40
    feature_noise_std: float = 0.1
    topic_sharpness: float = 4.0
    seed: int = 0
    frames: int = 20
    frame_dim: int = 378

    def __post_init__(self):
        if min(self.num_tags, self.users_per_tag, self.items_per_tag, self.frames, self.frame_dim) < 1:
            raise ValueError("all synthetic corpus counts must be >= 1")
        if self.feature_noise_std < 0:
            raise ValueError("feature noise std must be >= 0")


@dataclass
class FeatureStore:
    """Column-oriented corpus: user topic vectors with dominant tags, item
    feature vectors with tags, and id -> row lookups."""

    user_ids: np.ndarray
    user_topics: np.ndarray
    user_tags: np.ndarray
    item_ids: np.ndarray
    item_features: np.ndarray
    item_tags: np.ndarray
    _user_row: dict = field(init=False, repr=False)
    _item_row: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._user_row = {int(uid): i for i, uid in enumerate(self.user_ids)}
        self._item_row = {int(iid): i for i, iid in enumerate(self.item_ids)}

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def user_row(self, user_id: int) -> int:
        try:
            return self._user_row[int(user_id)]
        except KeyError:
            raise DataError(f"unknown user id {user_id}") from None

    def item_row(self, item_id: int) -> int:
        try:
            return self._item_row[int(item_id)]
        except KeyError:
            raise DataError(f"unknown item id {item_id}") from None

    def user(self, user_id: int) -> UserRecord:
        r = self.user_row(user_id)
        return UserRecord(int(self.user_ids[r]), self.user_topics[r], int(self.user_tags[r]))

    def item(self, item_id: int) -> ItemRecord:
        r = self.item_row(item_id)
        return ItemRecord(int(self.item_ids[r]), self.item_features[r], int(self.item_tags[r]))

    def item_rows_by_tag(self) -> dict[int, np.ndarray]:
        return {int(t): np.flatnonzero(self.item_tags == t) for t in np.unique(self.item_tags)}


def dominant_tag(topic_vector: np.ndarray) -> int:
    """Argmax of the topic vector; ties resolve to the lowest index."""
    return int(np.argmax(topic_vector))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_float(text: str, line_no: int, col: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"line {line_no}: column {col}: not a number: {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"line {line_no}: column {col}: non-finite value {text!r}")
    return v


def _parse_int(text: str, line_no: int, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"line {line_no}: column {col}: not an integer: {text!r}") from None


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    return header, rows


def load_corpus(users_path, items_path) -> FeatureStore:
    """Read users and items CSVs into a validated FeatureStore."""
    header, rows = _read_rows(users_path)
    if not header or header[0] != "user_id" or len(header) < 2:
        raise DataError(f"{users_path}: expected header user_id,t0,...[,tag]")
    has_tag = header[-1] == "tag"
    topic_dim = len(header) - 1 - (1 if has_tag else 0)
    if topic_dim < 1:
        raise DataError(f"{users_path}: no topic columns in header")
    if not rows:
        raise DataError(f"{users_path}: no users")

    user_ids, topics, user_tags = [], [], []
    for line_no, row in rows:
        if len(row) != len(header):
            raise DataError(
                f"{users_path}: line {line_no}: expected {len(header)} fields, found {len(row)}"
            )
        uid = _parse_int(row[0], line_no, "user_id")
        vec = [_parse_float(row[1 + j], line_no, header[1 + j]) for j in range(topic_dim)]
        tag = _parse_int(row[-1], line_no, "tag") if has_tag else dominant_tag(np.array(vec))
        user_ids.append(uid)
        topics.append(vec)
        user_tags.append(tag)
    if len(set(user_ids)) != len(user_ids):
        raise DataError(f"{users_path}: duplicate user ids")

    header, rows = _read_rows(items_path)
    if len(header) < 3 or header[0] != "item_id" or header[1] != "tag":
        raise DataError(f"{items_path}: expected header item_id,tag,f0,...")
    feat_dim = len(header) - 2
    if not rows:
        raise DataError(f"{items_path}: no items")

    item_ids, feats, item_tags = [], [], []
    for line_no, row in rows:
        if len(row) != len(header):
            raise DataError(
                f"{items_path}: line {line_no}: expected {len(header)} fields "
                f"({feat_dim} features), found {len(row)}"
            )
        item_ids.append(_parse_int(row[0], line_no, "item_id"))
        item_tags.append(_parse_int(row[1], line_no, "tag"))
        feats.append([_parse_float(row[2 + j], line_no, header[2 + j]) for j in range(feat_dim)])
    if len(set(item_ids)) != len(item_ids):
        raise DataError(f"{items_path}: duplicate item ids")

    return FeatureStore(
        user_ids=np.array(user_ids, dtype=np.int64),
        user_topics=np.array(topics, dtype=np.float64),
        user_tags=np.array(user_tags, dtype=np.int64),
        item_ids=np.array(item_ids, dtype=np.int64),
        item_features=np.array(feats, dtype=np.float64),
        item_tags=np.array(item_tags, dtype=np.int64),
    )


def load_corpus_dir(corpus_dir) -> FeatureStore:
    d = Path(corpus_dir)
    return load_corpus(d / "users.csv", d / "items.csv")


def save_corpus(store: FeatureStore, corpus_dir) -> None:
    """Write users.csv and items.csv into a directory."""
    d = Path(corpus_dir)
    d.mkdir(parents=True, exist_ok=True)
    topic_dim = store.user_topics.shape[1]
    with open(d / "users.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", *[f"t{j}" for j in range(topic_dim)], "tag"])
        for i in range(store.n_users):
            w.writerow(
                [int(store.user_ids[i]),
                 *[repr(float(v)) for v in store.user_topics[i]],
                 int(store.user_tags[i])]
            )
    feat_dim = store.item_features.shape[1]
    with open(d / "items.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "tag", *[f"f{j}" for j in range(feat_dim)]])
        for i in range(store.n_items):
            w.writerow(
                [int(store.item_ids[i]), int(store.item_tags[i]),
                 *[repr(float(v)) for v in store.item_features[i]]]
            )


def save_triplets(triplets: list[TripletExample], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "item_i", "item_j", "label"])
        for t in triplets:
            w.writerow([t.user_id, t.item_i_id, t.item_j_id, t.label])


def load_triplets(path) -> list[TripletExample]:
    header, rows = _read_rows(path)
    if header != ["user_id", "item_i", "item_j", "label"]:
        raise DataError(f"{path}: expected header user_id,item_i,item_j,label")
    out = []
    for line_no, row in rows:
        if len(row) != 4:
            raise DataError(f"{path}: line {line_no}: expected 4 fields, found {len(row)}")
        label = _parse_int(row[3], line_no, "label")
        if label not in (0, 1):
            raise DataError(f"{path}: line {line_no}: label must be 0 or 1, got {label}")
        out.append(
            TripletExample(
                _parse_int(row[0], line_no, "user_id"),
                _parse_int(row[1], line_no, "item_i"),
                _parse_int(row[2], line_no, "item_j"),
                label,
            )
        )
    if not out:
        raise DataError(f"{path}: no triplets")
    return out


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


def generate_synthetic(config: SynthConfig) -> FeatureStore:
    """Seeded synthetic corpus. Per tag: a Gaussian feature prototype in the
    (frames x frame_dim) layout, items = prototype + noise, flattened
    frame-major; users get a topic vector whose entry for their own tag
    always dominates, with concentration growing with ``topic_sharpness``."""
    cfg = config
    gen = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    prototypes = gen.normal(size=(cfg.num_tags, cfg.frames, cfg.frame_dim))

    feat_dim = cfg.frames * cfg.frame_dim
    n_items = cfg.num_tags * cfg.items_per_tag
    item_features = np.empty((n_items, feat_dim))
    item_tags = np.empty(n_items, dtype=np.int64)
    for t in range(cfg.num_tags):
        noise = gen.normal(scale=cfg.feature_noise_std,
                           size=(cfg.items_per_tag, cfg.frames, cfg.frame_dim))
        block = prototypes[t] + noise
        sl = slice(t * cfg.items_per_tag, (t + 1) * cfg.items_per_tag)
        item_features[sl] = block.reshape(cfg.items_per_tag, feat_dim)
        item_tags[sl] = t

    n_users = cfg.num_tags * cfg.users_per_tag
    user_topics = np.empty((n_users, cfg.num_tags))
    user_tags = np.empty(n_users, dtype=np.int64)
    for t in range(cfg.num_tags):
        raw = gen.uniform(size=(cfg.users_per_tag, cfg.num_tags))
        raw[:, t] += 1.0 + cfg.topic_sharpness  # own tag strictly dominates
        sl = slice(t * cfg.users_per_tag, (t + 1) * cfg.users_per_tag)
        user_topics[sl] = raw / raw.sum(axis=1, keepdims=True)
        user_tags[sl] = t

    return FeatureStore(
        user_ids=np.arange(n_users, dtype=np.int64),
        user_topics=user_topics,
        user_tags=user_tags,
        item_ids=np.arange(n_items, dtype=np.int64),
        item_features=item_features,
        item_tags=item_tags,
    )


# ---------------------------------------------------------------------------
# Triplet assembly
# ---------------------------------------------------------------------------


def build_triplets(store: FeatureStore, strategy: PairingStrategy, seed: int) -> list[TripletExample]:
    """Pair each user's positives (items carrying the user's dominant tag)
    with negatives from other tags according to the strategy, then emit each
    triplet in a random orientation: (pos, neg, label 0) or (neg, pos,
    label 1) with equal probability, so labels are balanced."""
    rows_by_tag = store.item_rows_by_tag()
    if len(rows_by_tag) < 2:
        raise DataError("need at least 2 distinct item tags to build triplets")
    for t in np.unique(store.user_tags):
        if int(t) not in rows_by_tag:
            raise DataError(f"tag {int(t)} has users but no items")

    gen = np.random.default_rng(np.random.SeedSequence(seed))
    item_tags_sorted = sorted(rows_by_tag)
    base: list[tuple[int, int, int, int, int]] = []  # (uid, pos_id, neg_id, pos_tag, neg_tag)
    warned_replacement = False

    for u_row in range(store.n_users):
        uid = int(store.user_ids[u_row])
        t = int(store.user_tags[u_row])
        pos_rows = rows_by_tag[t]
        neg_pool = np.flatnonzero(store.item_tags != t)
        if strategy.variant == "balanced":
            for p_row in pos_rows:
                pos_id = int(store.item_ids[p_row])
                for s in item_tags_sorted:
                    if s == t:
                        continue
                    n_row = int(gen.choice(rows_by_tag[s]))
                    base.append((uid, pos_id, int(store.item_ids[n_row]), t, s))
        else:
            n_neg = 1 if strategy.variant == "unbalanced" else strategy.n
            for p_row in pos_rows:
                pos_id = int(store.item_ids[p_row])
                if n_neg <= neg_pool.size:
                    neg_rows = gen.choice(neg_pool, size=n_neg, replace=False)
                else:
                    if not warned_replacement:
                        warnings.warn(
                            f"requested {n_neg} negatives per positive but only "
                            f"{neg_pool.size} are available; sampling with replacement"
                        )
                        warned_replacement = True
                    neg_rows = gen.choice(neg_pool, size=n_neg, replace=True)
                for n_row in neg_rows:
                    base.append(
                        (uid, pos_id, int(store.item_ids[n_row]), t, int(store.item_tags[n_row]))
                    )

    if strategy.variant == "balanced":
        groups: dict[tuple[int, int], list[int]] = {}
        for idx, (_, _, _, t, s) in enumerate(base):
            groups.setdefault((t, s), []).append(idx)
        m = min(len(v) for v in groups.values())
        keep: list[int] = []
        for key in sorted(groups):
            idxs = groups[key]
            if len(idxs) > m:
                picked = gen.choice(len(idxs), size=m, replace=False)
                keep.extend(idxs[i] for i in sorted(picked))
            else:
                keep.extend(idxs)
        base = [base[i] for i in sorted(keep)]

    out = []
    flips = gen.random(len(base)) < 0.5
    for (uid, pos_id, neg_id, _, _), flip in zip(base, flips):
        if flip:
            out.append(TripletExample(uid, neg_id, pos_id, 1))
        else:
            out.append(TripletExample(uid, pos_id, neg_id, 0))
    return out


def gather_triplet_rows(store: FeatureStore, triplets: list[TripletExample]):
    """Store rows (user, item_i, item_j) and float labels of each triplet."""
    u = np.array([store.user_row(t.user_id) for t in triplets], dtype=np.intp)
    i = np.array([store.item_row(t.item_i_id) for t in triplets], dtype=np.intp)
    j = np.array([store.item_row(t.item_j_id) for t in triplets], dtype=np.intp)
    labels = np.array([t.label for t in triplets], dtype=np.float64)
    return u, i, j, labels


def pairs_from_triplets(
    triplets: list[TripletExample], store: FeatureStore
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten triplets into (user, item, match-label) examples for the
    two-branch baseline: each triplet yields its matching item with label 1
    and its non-matching item with label 0 — the same information the
    triplet model sees, presented pointwise."""
    user_ids, item_ids, labels = [], [], []
    for t in triplets:
        pos, neg = (t.item_i_id, t.item_j_id) if t.label == 0 else (t.item_j_id, t.item_i_id)
        user_ids.extend((t.user_id, t.user_id))
        item_ids.extend((pos, neg))
        labels.extend((1.0, 0.0))
    return (
        np.array(user_ids, dtype=np.int64),
        np.array(item_ids, dtype=np.int64),
        np.array(labels, dtype=np.float64),
    )


def split_train_test(
    triplets: list[TripletExample],
    test_fraction: float,
    seed: int,
    store: FeatureStore,
) -> tuple[list[TripletExample], list[TripletExample]]:
    """Disjoint split stratified by the triplet user's dominant tag; falls
    back to an unstratified split (with a warning) on degenerate strata."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(triplets)
    if n < 2:
        raise DataError("need at least 2 triplets to split")
    gen = np.random.default_rng(np.random.SeedSequence(seed))
    target_test = int(round(test_fraction * n))
    target_test = min(max(target_test, 1), n - 1)

    strata: dict[int, list[int]] = {}
    for idx, t in enumerate(triplets):
        tag = int(store.user_tags[store.user_row(t.user_id)])
        strata.setdefault(tag, []).append(idx)

    if any(len(v) < 2 for v in strata.values()):
        warnings.warn("degenerate strata; falling back to an unstratified split")
        perm = gen.permutation(n)
        test_idx = set(perm[:target_test].tolist())
    else:
        # Largest-remainder apportionment of the test budget across strata.
        keys = sorted(strata)
        ideal = {k: test_fraction * len(strata[k]) for k in keys}
        counts = {k: int(ideal[k]) for k in keys}
        counts = {k: min(max(counts[k], 1), len(strata[k]) - 1) for k in keys}
        remaining = target_test - sum(counts.values())
        order = sorted(keys, key=lambda k: ideal[k] - int(ideal[k]), reverse=True)
        i = 0
        while remaining != 0 and i < 10 * len(keys):
            k = order[i % len(keys)]
            if remaining > 0 and counts[k] < len(strata[k]) - 1:
                counts[k] += 1
                remaining -= 1
            elif remaining < 0 and counts[k] > 1:
                counts[k] -= 1
                remaining += 1
            i += 1
        test_idx = set()
        for k in keys:
            idxs = np.array(strata[k])
            perm = gen.permutation(len(idxs))
            test_idx.update(idxs[perm[: counts[k]]].tolist())

    train = [t for i, t in enumerate(triplets) if i not in test_idx]
    test = [t for i, t in enumerate(triplets) if i in test_idx]
    return train, test
