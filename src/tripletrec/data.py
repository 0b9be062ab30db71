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

In memory a triplet set is one numpy record array (``triplet_array``) with
four int64 fields, ``user_id``, ``item_i_id``, ``item_j_id`` and ``label``:
``triplets.user_id`` is a column, ``len(triplets)`` the count, and each row
reads ``t.user_id`` and so on. Functions that take triplets map whole id
columns to store rows with ``FeatureStore.user_rows`` and ``item_rows``.

``generate_synthetic`` draws, from one generator seeded by the config, every
tag's prototype, then every item's noise, then every user's topic weights.

``build_triplets`` takes each negative as one bounded draw of an index into
its pool, from one generator seeded by the caller: one ``integers`` call
draws them all for ``unbalanced``, ``one_to_n(1)`` and ``balanced``, and
``one_to_n(n)`` with n >= 2 makes one ``choice`` call per positive. These are
the draws one ``choice`` call per negative or per positive makes, in the same
order, so a seed gives the same triplets as such a loop would.

Loading gives exactly what was saved or raises DataError naming the file, the
line and, for a bad cell, the column: bytes that are not UTF-8, CSV syntax
errors, rows whose width differs from the header's, cells that are not finite
numbers, and ids or tags outside int64. ``csv`` reads the header; one
``np.loadtxt`` call parses the whole body in C, with ids and tags as int64 and
topics and features as float64. A file that call rejects, or might read
otherwise than ``csv`` and Python's ``int`` and ``float`` would (a non-ASCII
byte, a cell over csv's field limit, a header over more than one line, a
non-finite value), goes to the Python reader, which loads what it accepts and
raises the DataError for the rest.

What makes a corpus whole beyond its cells is checked once, by
``FeatureStore`` when it is built, whoever builds it (``load_corpus``,
``generate_synthetic`` or a caller): its id and tag columns are int64
arrays, each side has rows, its columns have one row per id, and no id
repeats. Its DataError names the side and the column's dtype, the id or the
lengths, not the file. A lookup takes ids as int64 integers only, and
refuses any other value with DataError naming the side. ``load_triplets``'
own checks (no triplets, a label other than 0 or 1) name the file.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np


class DataError(ValueError):
    """Malformed corpus or triplet data; message carries the location."""


def int_field(name: str, value) -> int:
    """An integer config field's value as a Python int (a numpy integer
    converts), or ValueError naming the field: a float or a bool is refused,
    as a checkpoint header refuses them."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


_TRIPLET_DTYPE = np.dtype([(name, np.int64)
                           for name in ("user_id", "item_i_id", "item_j_id", "label")])


def triplet_array(user_id, item_i_id, item_j_id, label) -> np.recarray:
    """A triplet set from its four columns: one int64 record per (user,
    item_i, item_j) plus the orientation label, 0 when item_i is the item
    matching the user's dominant tag and 1 when item_j is."""
    return np.rec.fromarrays([user_id, item_i_id, item_j_id, label], dtype=_TRIPLET_DTYPE)


@dataclass(frozen=True)
class PairingStrategy:
    """How negatives are paired with positives when building triplets.

    * ``unbalanced``: one negative per positive, drawn uniformly over all
      items of other tags; tag-combination counts fall as they may. It is
      ``one_to_n(1)``: the same draws give the same triplets.
    * ``balanced``: every (positive-tag, negative-tag) combination ends up
      with the same triplet count, excess trimmed at random.
    * ``one_to_n``: n distinct negatives per positive, a Python int (see
      :func:`int_field`). The other two refuse an n other than 1.
    """

    variant: str
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", int_field("n", self.n))
        if self.variant not in ("unbalanced", "balanced", "one_to_n"):
            raise ValueError(f"unknown pairing variant: {self.variant!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n != 1 and self.variant != "one_to_n":
            raise ValueError(f"n applies to one_to_n only, got n={self.n} for {self.variant!r}")

    @classmethod
    def unbalanced(cls) -> "PairingStrategy":
        return cls("unbalanced")

    @classmethod
    def balanced(cls) -> "PairingStrategy":
        return cls("balanced")

    @classmethod
    def one_to_n(cls, n: int) -> "PairingStrategy":
        return cls("one_to_n", n)


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic corpus: per-tag feature prototypes plus Gaussian noise, and
    users whose topic vectors concentrate on their tag. Frozen, so every
    config :func:`generate_synthetic` reads was validated whole; the counts
    and the seed are kept as Python ints (see :func:`int_field`)."""

    num_tags: int = 5
    users_per_tag: int = 20
    items_per_tag: int = 40
    feature_noise_std: float = 0.1
    topic_sharpness: float = 4.0
    seed: int = 0
    frames: int = 20
    frame_dim: int = 378

    def __post_init__(self):
        for name in ("num_tags", "users_per_tag", "items_per_tag", "seed", "frames", "frame_dim"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        if min(self.num_tags, self.users_per_tag, self.items_per_tag, self.frames, self.frame_dim) < 1:
            raise ValueError("all synthetic corpus counts must be >= 1")
        if not (math.isfinite(self.feature_noise_std) and self.feature_noise_std >= 0):
            raise ValueError(f"feature noise std must be a finite number >= 0, "
                             f"got {self.feature_noise_std}")
        if not (math.isfinite(self.topic_sharpness) and self.topic_sharpness >= 0):
            raise ValueError(f"topic sharpness must be a finite number >= 0, "
                             f"got {self.topic_sharpness}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FeatureStore:
    """Column-oriented corpus: user topic vectors with dominant tags, item
    feature vectors with tags, and id -> row lookups.

    Checked once, when built: the id and tag columns are int64 arrays, each
    side has at least one row, its three columns have one row per id, and no
    id repeats, else DataError naming the side and the dtype, the lengths or
    the least repeated id. The fields are frozen, so no id column changes
    under its index; ``dataclasses.replace`` makes a changed copy, checked
    again. The arrays stay writable."""

    user_ids: np.ndarray
    user_topics: np.ndarray
    user_tags: np.ndarray
    item_ids: np.ndarray
    item_features: np.ndarray
    item_tags: np.ndarray
    _user_index: _IdIndex = field(init=False, repr=False)
    _item_index: _IdIndex = field(init=False, repr=False)

    def __post_init__(self):
        for what, kind, ids, values, tags in (
                ("user", "topic", self.user_ids, self.user_topics, self.user_tags),
                ("item", "feature", self.item_ids, self.item_features, self.item_tags)):
            for name, column in (("ids", ids), ("tags", tags)):
                dtype = getattr(column, "dtype", type(column).__name__)
                if dtype != np.int64:
                    raise DataError(f"{what} {name} must be an int64 array, got {dtype}")
            if not len(ids) == len(values) == len(tags):
                raise DataError(f"{what} columns differ in length: {len(ids)} ids, "
                                f"{len(values)} {kind} rows, {len(tags)} tags")
            object.__setattr__(self, f"_{what}_index", _id_index(ids, what))

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def user_rows(self, user_ids) -> np.ndarray:
        """Rows of an array of user ids, in its shape; DataError on an unknown
        one or on a value that is not an int64 integer (see :func:`_rows`)."""
        return _rows(self._user_index, user_ids, "user")

    def item_rows(self, item_ids) -> np.ndarray:
        """Rows of an array of item ids, in its shape; DataError on an unknown
        one or on a value that is not an int64 integer (see :func:`_rows`)."""
        return _rows(self._item_index, item_ids, "item")

    def user_row(self, user_id: int) -> int:
        return int(self.user_rows(user_id))

    def item_row(self, item_id: int) -> int:
        return int(self.item_rows(item_id))

    def item_rows_by_tag(self) -> dict[int, np.ndarray]:
        return {int(t): np.flatnonzero(self.item_tags == t) for t in np.unique(self.item_tags)}


# Integer ids that span at most this many values per id map to rows through
# a table indexed by id - min id; any others through a sorted search.
ID_TABLE_SPAN = 4


class _IdIndex(NamedTuple):  # one id column's id -> row lookup
    ids: np.ndarray
    order: np.ndarray  # argsort of the ids, which are distinct
    lo: int  # the least and greatest id, when there is a table
    hi: int
    table: np.ndarray | None  # row of id lo + t at t; -1 for none


def _id_index(ids: np.ndarray, what: str) -> _IdIndex:
    """The lookup of a side's int64 id column, or DataError if it is empty or
    an id repeats (naming the least such id, found among sorted neighbours)."""
    if not len(ids):
        raise DataError(f"no {what}s")
    order = np.argsort(ids)
    s = ids[order]
    repeats = np.flatnonzero(s[1:] == s[:-1])
    if repeats.size:
        raise DataError(f"duplicate {what} id {s[repeats[0]]}")
    if int(s[-1]) - int(s[0]) >= ID_TABLE_SPAN * len(ids):
        return _IdIndex(ids, order, 0, 0, None)
    table = np.full(int(s[-1] - s[0]) + 1, -1, dtype=np.intp)
    table[s - s[0]] = order
    return _IdIndex(ids, order, int(s[0]), int(s[-1]), table)


def _rows(index: _IdIndex, wanted, what: str) -> np.ndarray:
    """Where each wanted id sits in ``index.ids``, in the wanted shape, or
    DataError naming the first wanted value that is no stored id. Ids are
    integers in int64's range: a signed-integer array or scalar, or a Python
    int. Any other value (a float, a bool, a uint64, an int beyond int64)
    raises DataError naming its first value and dtype; an empty input gives
    no rows.

    With a table, an id is compared with the least and greatest stored id
    before the least is subtracted from it, so no id near int64's ends wraps;
    without one, ``index.order`` sorts the ids for ``np.searchsorted``."""
    raw = np.asarray(wanted)
    if raw.dtype.kind != "i" and raw.size:
        raise DataError(f"{what} ids must be integers in int64's range, "
                        f"got {raw.ravel()[:1].tolist()[0]!r} ({raw.dtype})")
    wanted = raw.astype(np.int64, copy=False)
    ids, order, lo, hi, table = index
    if table is not None:
        inside = (wanted >= lo) & (wanted <= hi)
        rows = table[np.where(inside, wanted, lo) - lo]
        unknown = ~inside | (rows < 0)
    else:
        rows = order[np.searchsorted(ids, wanted, sorter=order).clip(max=len(ids) - 1)]
        unknown = ids[rows] != wanted
    if unknown.any():
        raise DataError(f"unknown {what} id {wanted[unknown][0]}")
    return rows


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


class _Table(NamedTuple):  # a CSV file's header and its non-blank (line number, row) pairs
    path: Path
    header: list[str]
    rows: list[tuple[int, list[str]]]


def _read_table(path) -> _Table:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError:  # the first line that decoding with replacement alters
        line = next(n for n, raw in enumerate(path.read_bytes().splitlines(), start=1)
                    if raw.decode("utf-8", "replace").encode() != raw)
        raise DataError(f"{path}: line {line}: not UTF-8") from None
    except csv.Error as e:
        raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    for line, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}: line {line}: expected {len(header)} fields, found {len(row)}")
    return _Table(path, header, rows)


def _to_array(cells, parse, dtype) -> np.ndarray | None:
    """Cell texts as a flat array, or None if one is not a finite number of the dtype."""
    try:
        flat = np.array([parse(c) for c in cells], dtype=dtype)
    except (ValueError, OverflowError):
        return None
    return flat if np.isfinite(flat).all() else None


def _parse_columns(table: _Table, cols: slice, dtype) -> np.ndarray:
    """Columns ``cols`` of every row as a (rows, columns) int64 or finite
    float64 array, or DataError naming the first cell that is neither."""
    parse, kind = (int, "an int64 integer") if dtype is np.int64 else (float, "a finite number")
    names = table.header[cols]
    flat = _to_array((c for _, row in table.rows for c in row[cols]), parse, dtype)
    if flat is None:
        line, col, text = next(
            (line, col, text)
            for line, row in table.rows
            if _to_array(row[cols], parse, dtype) is None
            for col, text in zip(names, row[cols])
            if _to_array([text], parse, dtype) is None
        )
        raise DataError(f"{table.path}: line {line}: column {col}: not {kind}: {text!r}")
    return flat.reshape(len(table.rows), len(names))


def _plain_bytes(path) -> bool:
    """Whether the file's bytes leave ``np.loadtxt`` no way to read a cell
    otherwise than ``csv`` and Python's ``int`` and ``float``. Every byte is
    ASCII: numpy's int64 parser has read the cell U+2D6EA as 186042. None is
    0x1c-0x1f, which numpy strips around a number and Python rejects. And no
    cell passes csv's field limit: each aligned block of (limit + 2) // 2
    bytes holds a comma, which bounds every run between two commas by it.
    A smaller block only tightens that bound, so a raised limit is capped to
    keep the chunks read at a few MB."""
    block = (min(csv.field_size_limit(), 1 << 20) + 2) // 2
    with open(path, "rb") as fh:
        while chunk := fh.read(16 * block):
            if not chunk.isascii() or any(c in chunk for c in b"\x1c\x1d\x1e\x1f"):
                return False
            b = np.frombuffer(chunk, np.uint8)
            if not (b[: len(b) // block * block].reshape(-1, block) == ord(",")).any(axis=1).all():
                return False
    return True


def _loadtxt_columns(path, groups) -> list[np.ndarray] | None:
    """``_load_columns`` in one ``np.loadtxt`` call, or None where that call
    fails, warns, or might read the file otherwise than the csv path."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            one_line = reader.line_num == 1
    except (OSError, ValueError, csv.Error):
        return None
    dtype = np.dtype([(f"c{k}", dt, (len(header[cols]),))
                      for k, (cols, dt) in enumerate(groups(path, header))])
    if not one_line or not _plain_bytes(path):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body only warns
            body = np.loadtxt(path, dtype, delimiter=",", comments=None, skiprows=1,
                              encoding="utf-8", ndmin=1)
    except (OSError, ValueError, Warning):
        return None
    arrays = [np.ascontiguousarray(body[name]) for name in dtype.names]
    return arrays if all(np.isfinite(a).all() for a in arrays) else None


def _load_columns(path, groups) -> list[np.ndarray]:
    """A CSV table's column groups as ``_parse_columns`` gives them: one
    (rows, columns) array each. ``groups(path, header)`` checks the header
    and returns (columns, dtype) pairs that cover it left to right. The body is
    parsed by one ``np.loadtxt`` call; a file that call rejects goes to
    ``_read_table`` and ``_parse_columns``, which load it or raise the
    DataError naming its line and column."""
    arrays = _loadtxt_columns(path, groups)
    if arrays is None:
        table = _read_table(path)
        arrays = [_parse_columns(table, cols, dtype) for cols, dtype in groups(path, table.header)]
    return arrays


# Each file kind's header check: its column groups as (columns, dtype) pairs,
# or DataError.


def _user_groups(path, header):
    if header[:1] != ["user_id"]:
        raise DataError(f"{path}: expected header user_id,t0,...[,tag]")
    topics_end = len(header) - (header[-1] == "tag")
    if topics_end < 2:
        raise DataError(f"{path}: no topic columns in header")
    tag = [(slice(topics_end, None), np.int64)] if topics_end < len(header) else []
    return [(slice(0, 1), np.int64), (slice(1, topics_end), np.float64), *tag]


def _item_groups(path, header):
    if len(header) < 3 or header[:2] != ["item_id", "tag"]:
        raise DataError(f"{path}: expected header item_id,tag,f0,...")
    return [(slice(0, 1), np.int64), (slice(1, 2), np.int64), (slice(2, None), np.float64)]


def _triplet_groups(path, header):
    if header != ["user_id", "item_i", "item_j", "label"]:
        raise DataError(f"{path}: expected header user_id,item_i,item_j,label")
    return [(slice(0, 4), np.int64)]


def load_corpus(users_path, items_path) -> FeatureStore:
    """Read users and items CSVs into a FeatureStore, which checks the corpus."""
    users = _load_columns(users_path, _user_groups)
    user_ids, user_topics = users[0][:, 0], users[1]
    if len(users) == 3:
        user_tags = users[2][:, 0]
    else:  # each row's argmax; a tie goes to the lowest index
        user_tags = np.argmax(user_topics, axis=1).astype(np.int64)

    item_ids, item_tags, item_features = _load_columns(items_path, _item_groups)
    item_ids, item_tags = item_ids[:, 0], item_tags[:, 0]
    return FeatureStore(user_ids, user_topics, user_tags, item_ids, item_features, item_tags)


def load_corpus_dir(corpus_dir) -> FeatureStore:
    d = Path(corpus_dir)
    return load_corpus(d / "users.csv", d / "items.csv")


def _write_csv(path, header: list[str], rows) -> None:
    """Rows of Python ints and floats, each cell its ``repr``: the bytes
    ``csv.writer`` writes for them, CRLF line ends included."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def save_corpus(store: FeatureStore, corpus_dir) -> None:
    """Write users.csv and items.csv into a directory."""
    d = Path(corpus_dir)
    d.mkdir(parents=True, exist_ok=True)
    topics = store.user_topics.astype(np.float64, copy=False)
    _write_csv(d / "users.csv", ["user_id", *[f"t{j}" for j in range(topics.shape[1])], "tag"],
               ([uid, *row.tolist(), tag] for uid, row, tag in
                zip(store.user_ids.tolist(), topics, store.user_tags.tolist())))
    features = store.item_features.astype(np.float64, copy=False)
    _write_csv(d / "items.csv", ["item_id", "tag", *[f"f{j}" for j in range(features.shape[1])]],
               ([iid, tag, *row.tolist()] for iid, tag, row in
                zip(store.item_ids.tolist(), store.item_tags.tolist(), features)))


def save_triplets(triplets: np.recarray, path) -> None:
    _write_csv(path, ["user_id", "item_i", "item_j", "label"], triplets.tolist())


def load_triplets(path) -> np.recarray:
    (cells,) = _load_columns(path, _triplet_groups)
    if not len(cells):
        raise DataError(f"{path}: no triplets")
    bad = np.flatnonzero(~np.isin(cells[:, 3], (0, 1)))
    if bad.size:
        line = _read_table(path).rows[bad[0]][0]
        raise DataError(f"{path}: line {line}: label must be 0 or 1, got {cells[bad[0], 3]}")
    return triplet_array(*cells.T)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


def generate_synthetic(config: SynthConfig) -> FeatureStore:
    """Seeded synthetic corpus, items and users tag by tag, each id its row.
    Three draws from one generator, in this order: a standard normal
    prototype per tag in the (frames x frame_dim) layout; every item's noise
    (std ``feature_noise_std``), added to its tag's prototype and flattened
    frame-major; every user's uniform topic weights, its own tag's raised by
    ``1 + topic_sharpness`` so that it dominates, then divided by the row sum."""
    cfg = config
    gen = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    prototypes = gen.normal(size=(cfg.num_tags, 1, cfg.frames, cfg.frame_dim))
    features = gen.normal(scale=cfg.feature_noise_std,
                          size=(cfg.num_tags, cfg.items_per_tag, cfg.frames, cfg.frame_dim))
    features += prototypes
    topics = (gen.uniform(size=(cfg.num_tags, cfg.users_per_tag, cfg.num_tags))
              + (1.0 + cfg.topic_sharpness) * np.eye(cfg.num_tags)[:, None])
    topics /= topics.sum(axis=2, keepdims=True)
    topics = topics.reshape(-1, cfg.num_tags)
    features = features.reshape(cfg.num_tags * cfg.items_per_tag, -1)
    tags = np.arange(cfg.num_tags, dtype=np.int64)
    return FeatureStore(np.arange(len(topics), dtype=np.int64), topics,
                        np.repeat(tags, cfg.users_per_tag),
                        np.arange(len(features), dtype=np.int64), features,
                        np.repeat(tags, cfg.items_per_tag))


# ---------------------------------------------------------------------------
# Triplet assembly
# ---------------------------------------------------------------------------


def build_triplets(store: FeatureStore, strategy: PairingStrategy, seed: int) -> np.recarray:
    """Pair each user's positives (items carrying the user's dominant tag)
    with negatives from other tags according to the strategy, then emit each
    triplet in a random orientation: (pos, neg, label 0) or (neg, pos,
    label 1) with equal probability, so labels are balanced.

    Triplets run user row by user row, each user's positives in item-row
    order, each positive's negatives in the order drawn. All draws come from
    one generator seeded by ``seed``, and each negative is one bounded draw
    of an index into its pool:

    * ``unbalanced`` and ``one_to_n(1)``: one ``integers`` call with one
      bound per positive, the number of items of other tags;
    * ``balanced``: one ``integers`` call with one bound per (positive,
      other tag), other tags ascending, the number of items of that tag; then
      one ``choice`` per (positive tag, negative tag) group that is trimmed;
    * ``one_to_n(n)``, n >= 2: one ``choice(pool, size=n, replace=False)``
      per positive, or, for a user with fewer than n negatives (which warns
      once), one ``integers`` call over all its positives with replacement.

    One ``random`` call then draws the orientations. These are the draws,
    in the same order, of one ``choice`` call per negative (``balanced``) or
    per positive, so a seed gives the same triplets as that loop, which the
    tests keep as the reference.
    """
    rows_by_tag = store.item_rows_by_tag()
    if len(rows_by_tag) < 2:
        raise DataError("need at least 2 distinct item tags to build triplets")
    for t in np.unique(store.user_tags):
        if int(t) not in rows_by_tag:
            raise DataError(f"tag {int(t)} has users but no items")

    gen = np.random.default_rng(np.random.SeedSequence(seed))
    pos_of_user = [rows_by_tag[int(t)] for t in store.user_tags]
    n_pos = np.array([len(rows) for rows in pos_of_user], dtype=np.int64)
    user = np.repeat(np.arange(store.n_users), n_pos)
    pos = np.concatenate(pos_of_user)
    pos_tag = store.item_tags[pos]

    # k[i, j] is the index of positive i's j-th negative in its pool
    if strategy.variant == "balanced":
        # the pool of column j is the rows of the j-th other tag
        tags, n_of_tag = np.unique(store.item_tags, return_counts=True)
        others = np.array([np.delete(np.arange(len(tags)), i) for i in range(len(tags))])
        other = others[np.searchsorted(tags, pos_tag)]
        k = gen.integers(0, n_of_tag[other])
        by_tag = np.argsort(store.item_tags, kind="stable")  # each tag's rows, in order
        tag_start = np.cumsum(n_of_tag) - n_of_tag  # in by_tag
        neg = by_tag[tag_start[other] + k]
    else:
        # the pool is the rows not of the positive's tag
        n_pool = store.n_items - n_pos  # of each user
        if strategy.n == 1:
            k = gen.integers(0, np.repeat(n_pool, n_pos))[:, None]
        else:
            k = np.empty((len(pos), strategy.n), dtype=np.int64)
            stop = np.cumsum(n_pos)
            warned_replacement = False
            for u, start in enumerate(stop - n_pos):
                if strategy.n <= n_pool[u]:
                    for i in range(start, stop[u]):
                        k[i] = gen.choice(n_pool[u], size=strategy.n, replace=False)
                else:
                    if not warned_replacement:
                        warnings.warn(
                            f"requested {strategy.n} negatives per positive but only "
                            f"{n_pool[u]} are available; sampling with replacement"
                        )
                        warned_replacement = True
                    k[start : stop[u]] = gen.integers(0, n_pool[u], size=(n_pos[u], strategy.n))
        neg = np.empty_like(k)
        for t in np.unique(pos_tag):
            at = pos_tag == t
            neg[at] = np.flatnonzero(store.item_tags != t)[k[at]]

    per_pos = k.shape[1]
    base = np.stack([np.repeat(store.user_ids[user], per_pos),
                     np.repeat(store.item_ids[pos], per_pos), store.item_ids[neg].ravel(),
                     np.repeat(pos_tag, per_pos), store.item_tags[neg].ravel()],
                    axis=1, dtype=np.int64)  # (uid, pos_id, neg_id, pos_tag, neg_tag)
    if strategy.variant == "balanced":
        # trim each (positive tag, negative tag) group, in sorted order, to
        # the smallest group's size at random, keeping the triplet order
        _, group, sizes = np.unique(base[:, 3:], axis=0, return_inverse=True, return_counts=True)
        group, m = group.reshape(-1), sizes.min()
        keep = np.ones(len(base), dtype=bool)
        for g in np.flatnonzero(sizes > m):
            idxs = np.flatnonzero(group == g)
            keep[idxs] = False
            keep[idxs[gen.choice(len(idxs), size=m, replace=False)]] = True
        base = base[keep]

    uid, pos_id, neg_id = base[:, :3].T
    flip = gen.random(len(base)) < 0.5
    return triplet_array(uid, np.where(flip, neg_id, pos_id), np.where(flip, pos_id, neg_id), flip)


def gather_triplet_rows(store: FeatureStore, triplets: np.recarray):
    """Store rows (user, item_i, item_j) and float labels of each triplet."""
    return (store.user_rows(triplets.user_id), store.item_rows(triplets.item_i_id),
            store.item_rows(triplets.item_j_id), triplets.label.astype(np.float64))


def split_train_test(
    triplets: np.recarray,
    test_fraction: float,
    seed: int,
    store: FeatureStore,
) -> tuple[np.recarray, np.recarray]:
    """Disjoint split stratified by the triplet user's dominant tag; falls
    back to an unstratified split (with a warning) on degenerate strata.
    Each stratum keeps 1 to its size less 1 test triplets; passes over the
    strata move their counts toward the target until it is met or a pass
    moves none, and a target missed warns with both test-set sizes."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(triplets)
    if n < 2:
        raise DataError("need at least 2 triplets to split")
    gen = np.random.default_rng(np.random.SeedSequence(seed))
    target_test = int(round(test_fraction * n))
    target_test = min(max(target_test, 1), n - 1)

    tags = store.user_tags[store.user_rows(triplets.user_id)]
    keys, sizes = np.unique(tags, return_counts=True)
    test = np.zeros(n, dtype=bool)
    if (sizes < 2).any():
        warnings.warn("degenerate strata; falling back to an unstratified split")
        test[gen.permutation(n)[:target_test]] = True
    else:
        # Largest-remainder apportionment of the test budget across strata.
        ideal = test_fraction * sizes
        counts = np.clip(np.trunc(ideal).astype(np.int64), 1, sizes - 1)
        remaining = target_test - int(counts.sum())
        order = np.argsort(np.trunc(ideal) - ideal, kind="stable")  # largest remainder first
        while remaining != 0:  # a pass: one step for each stratum with room, in order
            step = 1 if remaining > 0 else -1
            has_room = counts < sizes - 1 if step > 0 else counts > 1
            moved = order[has_room[order]][: abs(remaining)]
            if len(moved) == 0:
                break
            counts[moved] += step
            remaining -= step * len(moved)
        if remaining != 0:
            warnings.warn(f"stratified split: requested {target_test} test triplets, "
                          f"the strata allow {target_test - remaining}")
        for key, count in zip(keys, counts):
            idxs = np.flatnonzero(tags == key)
            test[idxs[gen.permutation(len(idxs))[:count]]] = True
    return triplets[~test], triplets[test]
