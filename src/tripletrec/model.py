"""Triplet ranking model and its two-branch baseline.

Three pieces: a user tower mapping tag-topic vectors into a latent space,
one item tower mapping flattened item features into the same space (both
item branches of a triplet read and update this single parameter set), and
a weighted-distance head. The head squares the element-wise difference of
two latent vectors and feeds it through a learned linear layer, so the
scalar it produces is a per-dimension weighted squared distance plus bias.

Training objectives:

* triplet: for (user, item_i, item_j) the pairwise logit is
  o = D(user, item_i) - D(user, item_j); sigmoid(o) is matched against a
  binary label (0 when item_i is the matching item, 1 when the order is
  swapped) with cross-entropy.
* twonet baseline: one (user, item) pair at a time, sigmoid(-D) matched
  against a tag-match label. Same towers and head, no relative comparison.
"""

from __future__ import annotations

import functools
import operator
import warnings
import weakref
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import DataError, int_field
from .nn import (
    Array,
    NonFiniteLossError,
    ParamTensor,
    RngState,
    bce_loss_from_logit,
    check_dropout_p,
    dropout_backward,
    dropout_forward,
    glorot_fill,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
    linear_param_backward,
    param_arena,
    relu_backward,
    relu_forward,
    sigmoid_stable,
    writing,
)


@dataclass(frozen=True)
class TowerSpec:
    """Shape of one fully connected tower, an immutable value (``hidden_dims``
    is kept as a tuple, and every width as a Python int: see
    :func:`data.int_field`). Every hidden layer runs linear -> layer norm -> ReLU ->
    dropout, and a final linear layer maps to the latent space. The dropout rate
    is the model's (see :func:`allocate_model`)."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (32, 32, 16, 16)
    output_dim: int = 7
    # not a field: every hidden layer normalizes; only bench/pipeline.py reads it
    normalize: ClassVar[bool] = True

    def __post_init__(self):
        for name in ("input_dim", "output_dim"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        object.__setattr__(self, "hidden_dims", tuple(
            int_field(f"hidden_dims[{i}]", d) for i, d in enumerate(self.hidden_dims)))
        if not self.hidden_dims:
            raise ValueError("a tower needs at least one hidden layer")
        if min(self.input_dim, self.output_dim, *self.hidden_dims) < 1:
            raise ValueError("tower dimensions must be positive")


def check_latent_dims(user_spec: TowerSpec, item_spec: TowerSpec) -> None:
    """Raise ValueError unless the two towers map into one latent space."""
    if user_spec.output_dim != item_spec.output_dim:
        raise ValueError(f"towers must share the latent dimension, got "
                         f"{user_spec.output_dim} vs {item_spec.output_dim}")


@dataclass
class TowerParams:
    """One tower's weights, biases, norm gains and shifts, and dropout rate."""

    spec: TowerSpec
    dropout_p: float
    weights: list[ParamTensor]
    biases: list[ParamTensor]
    gains: list[ParamTensor]
    shifts: list[ParamTensor]

    def parameters(self) -> list[ParamTensor]:
        return [*self.weights, *self.biases, *self.gains, *self.shifts]


def tower_layout(spec: TowerSpec) -> list[tuple[str, str, int, tuple[int, int]]]:
    """(name, TowerParams field, layer, shape) of each tower tensor in checkpoint
    order: weight and bias per linear layer, then gain and shift per norm."""
    dims = [spec.input_dim, *spec.hidden_dims, spec.output_dim]
    out = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        out += [(f"w{i}", "weights", i, (d_in, d_out)), (f"b{i}", "biases", i, (1, d_out))]
    for i, d in enumerate(spec.hidden_dims):
        out += [(f"gain{i}", "gains", i, (1, d)), (f"shift{i}", "shifts", i, (1, d))]
    return out


def _tower_of(spec: TowerSpec, dropout_p: float, parts) -> TowerParams:
    """The tower whose tensors, in tower_layout order, are the next ones
    ``parts`` yields."""
    fields = {"weights": [], "biases": [], "gains": [], "shifts": []}
    for (_, f, _, _), part in zip(tower_layout(spec), parts):
        fields[f].append(part)
    return TowerParams(spec, dropout_p, **fields)


@dataclass
class DistanceHeadParams:
    """Final linear layer over the squared latent difference: weight (1, L)
    and scalar bias (1, 1)."""

    weight: ParamTensor
    bias: ParamTensor

    @property
    def latent_dim(self) -> int:
        return self.weight.value.shape[1]

    def parameters(self) -> list[ParamTensor]:
        return [self.weight, self.bias]


@dataclass
class TripletModelParams:
    """User tower, the single shared item tower, and the distance head.

    One ``item_tower`` serves both item branches of every triplet: training
    runs it once over both branches stacked, so their gradients add up in one
    backward pass.
    Every tensor is a part of ``arena``, laid out in model_layout order, so
    the arena's value buffer is the checkpoint's tensor section. Only
    :func:`allocate_model` builds one. ``catalogue`` is the one entry of the
    model's catalogue-latent cache (see :func:`catalogue_latents`).
    """

    user_tower: TowerParams
    item_tower: TowerParams
    head: DistanceHeadParams
    arena: ParamTensor
    catalogue: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def parameters(self) -> list[ParamTensor]:
        return [
            *self.user_tower.parameters(),
            *self.item_tower.parameters(),
            *self.head.parameters(),
        ]


def allocate_model(user_spec: TowerSpec, item_spec: TowerSpec, dropout_p: float) -> TripletModelParams:
    """A model of these shapes, both towers dropping ``dropout_p``, with every
    parameter zero, all parts of one arena in model_layout order. Draws nothing."""
    check_dropout_p(dropout_p)
    check_latent_dims(user_spec, item_spec)
    parts = param_arena([shape for _, shape, _ in model_layout(user_spec, item_spec)])
    rest = iter(parts)
    return TripletModelParams(
        user_tower=_tower_of(user_spec, dropout_p, rest),
        item_tower=_tower_of(item_spec, dropout_p, rest),
        head=DistanceHeadParams(next(rest), next(rest)),
        arena=parts[0].arena,
    )


def init_model(user_spec: TowerSpec, item_spec: TowerSpec, rng: RngState,
               dropout_p: float) -> TripletModelParams:
    """A model of these shapes, both towers dropping ``dropout_p``, with
    Glorot-uniform weights, zero biases and identity normalization. The user
    tower, the item tower and the head each take the next generator of
    ``rng``, in that order."""
    model = allocate_model(user_spec, item_spec, dropout_p)
    for tower in (model.user_tower, model.item_tower):
        gen = rng.next_generator()
        for w in tower.weights:
            with writing(w) as value:
                glorot_fill(value, gen)
        for gain in tower.gains:
            with writing(gain) as value:
                value[...] = 1.0
    with writing(model.head.weight) as value:
        glorot_fill(value.T, rng.next_generator())
    return model


def model_layout(user_spec: TowerSpec, item_spec: TowerSpec) -> list[tuple[str, tuple, tuple]]:
    """(name, shape, (owner, field, layer)) of every parameter of such a model
    in checkpoint order, allocating nothing; the head's layer is None."""
    out = [(f"{side}.{name}", shape, (f"{side}_tower", f, i))
           for side, spec in (("user", user_spec), ("item", item_spec))
           for name, f, i, shape in tower_layout(spec)]
    return out + [("head.weight", (1, user_spec.output_dim), ("head", "weight", None)),
                  ("head.bias", (1, 1), ("head", "bias", None))]


def named_parameters(model: TripletModelParams) -> list[tuple[str, ParamTensor]]:
    """(name, tensor) of every parameter, in model_layout (checkpoint) order."""
    out = []
    for name, _, (owner, f, i) in model_layout(model.user_tower.spec, model.item_tower.spec):
        tensor = getattr(getattr(model, owner), f)
        out.append((name, tensor if i is None else tensor[i]))
    return out


# ---------------------------------------------------------------------------
# Forward / backward through a tower
# ---------------------------------------------------------------------------


def tower_forward(
    tower: TowerParams,
    x,
    training: bool = False,
    rng: RngState | None = None,
    rows: tuple | None = None,
):
    """Run a batch through the tower; returns (latent, caches) where caches
    carry everything the matching backward pass needs.

    The batch is ``x``, one array of input rows. With ``rows``, a tuple of
    integer arrays, one per branch of a shared tower, the batch is instead
    ``x[rows[0]]``, ``x[rows[1]]``, ... stacked: the first linear layer then
    multiplies each distinct row of ``x`` they name once and gathers its
    output back to the batch's rows, so ``x`` may be a whole catalogue and
    the batch's input rows are never formed. Every layer is one
    :func:`linear_forward` call.

    In training, branch b's dropout masks come from the generators a
    separate pass over that branch alone would draw, branch after branch, so
    each branch's output equals that pass's bit for bit.

    An ``x`` whose width is not the tower's input width raises DataError
    naming both, and a row of ``rows`` outside ``x`` ValueError naming it,
    before any layer runs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != tower.spec.input_dim:
        raise DataError(f"tower expects input dim {tower.spec.input_dim}, got {x.shape[1]}")
    inverse, branches = None, 1
    if rows is not None:
        distinct, inverse = np.unique(np.concatenate(rows), return_inverse=True)
        if len(distinct) and (distinct[0] < 0 or distinct[-1] >= len(x)):
            bad = distinct[0] if distinct[0] < 0 else distinct[-1]
            raise ValueError(f"row {bad} is outside the {len(x)} input rows")
        branches = len(rows)
        if not np.array_equal(distinct, np.arange(len(x))):  # else x[distinct] is x
            x = x[distinct]
    n_hidden = len(tower.spec.hidden_dims)
    p = tower.dropout_p
    # generator b * n_hidden + i masks branch b at hidden layer i
    gens = ([rng.next_generator() for _ in range(branches * n_hidden)]
            if training and p > 0.0 and rng is not None else None)
    h, hidden_caches = x, []
    for i in range(n_hidden):
        h, lin_cache = linear_forward(h, tower.weights[i], tower.biases[i])
        if i == 0 and inverse is not None:
            h = h[inverse]
        h, norm_cache = layer_norm_forward(h, tower.gains[i], tower.shifts[i])
        h, relu_cache = relu_forward(h)
        h, drop_mask = dropout_forward(h, p, None if gens is None else gens[i::n_hidden], training)
        hidden_caches.append((lin_cache, norm_cache, relu_cache, drop_mask))
    z, final_cache = linear_forward(h, tower.weights[n_hidden], tower.biases[n_hidden])
    return z, (hidden_caches, final_cache, inverse)


def tower_backward(d_z: Array, caches) -> None:
    """Backpropagate ``d_z``, the loss gradient at the tower's output, adding
    every layer's parameter gradients to its tensors. Nothing reads the
    gradient at the tower's input, so the first linear layer adds only its
    weight and bias gradients, ``d_out @ W.T`` is never formed and the
    function returns None. Where the forward pass gathered the first layer's
    output from distinct rows, every batch row's gradient is first added
    onto its distinct row, repeats included."""
    hidden_caches, final_cache, inverse = caches
    d = linear_backward(d_z, final_cache)
    for i in reversed(range(len(hidden_caches))):
        lin_cache, norm_cache, relu_cache, drop_mask = hidden_caches[i]
        d = dropout_backward(d, drop_mask)
        d = relu_backward(d, relu_cache)
        d = layer_norm_backward(d, norm_cache)
        if i:
            d = linear_backward(d, lin_cache)
    first = hidden_caches[0][0]
    if inverse is not None:
        d_distinct = np.zeros((first[0].shape[0], d.shape[1]))
        np.add.at(d_distinct, inverse, d)
        d = d_distinct
    linear_param_backward(d, first)


def embed_user(tower: TowerParams, u: Array) -> Array:
    """Map user tag-topic vectors (batch, input_dim) into the latent space,
    in inference mode (no dropout)."""
    return tower_forward(tower, u)[0]


def embed_item(tower: TowerParams, x: Array) -> Array:
    """Map flattened item features (batch, input_dim) into the latent space,
    in inference mode (no dropout)."""
    return tower_forward(tower, x)[0]


# ---------------------------------------------------------------------------
# Weighted distance head
# ---------------------------------------------------------------------------


def distance_forward(head: DistanceHeadParams, z_u: Array, z_i: Array):
    """D = sum_k w_k * (z_u_k - z_i_k)^2 + bias, per row. Broadcasts a
    single-row z_u against a batch of items (and vice versa)."""
    diff = z_u - z_i
    sq = diff * diff
    d = sq @ head.weight.value[0] + head.bias.value[0, 0]
    return d, (diff, sq)


def distance_backward(head: DistanceHeadParams, d_up: Array, cache):
    """Backward for a (batch,) upstream gradient; returns (d_zu, d_zi)."""
    diff, sq = cache
    head.weight.grad += (d_up @ sq).reshape(1, -1)
    head.bias.grad += d_up.sum()
    d_diff = (2.0 * diff) * (d_up[:, None] * head.weight.value)
    return d_diff, -d_diff


def weighted_distance(head: DistanceHeadParams, z_u: Array, z_i: Array) -> Array:
    """Distance only, no cache; accepts 1-D vectors or (batch, L) arrays."""
    z_u = np.atleast_2d(np.asarray(z_u, dtype=np.float64))
    z_i = np.atleast_2d(np.asarray(z_i, dtype=np.float64))
    if z_u.shape[1] != head.latent_dim or z_i.shape[1] != head.latent_dim:
        raise ValueError(
            f"latent dims {z_u.shape[1]}/{z_i.shape[1]} do not match head "
            f"dim {head.latent_dim}"
        )
    return distance_forward(head, z_u, z_i)[0]


# ---------------------------------------------------------------------------
# Pairwise logit / probability and the two losses
# ---------------------------------------------------------------------------


def pair_logit(model: TripletModelParams, u: Array, item_i: Array, item_j: Array) -> Array:
    """o = D(user, item_i) - D(user, item_j) per row, in inference mode, both
    items embedded by the one shared item tower."""
    z_u = embed_user(model.user_tower, u)
    z_i = embed_item(model.item_tower, item_i)
    z_j = embed_item(model.item_tower, item_j)
    d_i = distance_forward(model.head, z_u, z_i)[0]
    d_j = distance_forward(model.head, z_u, z_j)[0]
    return d_i - d_j


def pair_prob(o) -> Array:
    """Sigmoid of the pairwise logit. A negative logit (item_i closer to the
    user) maps below one half, a positive one above."""
    return sigmoid_stable(o)


def _check_finite_losses(losses: Array, context: str) -> None:
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise NonFiniteLossError(
            f"non-finite {context} loss at batch indices {bad[:8].tolist()}"
        )


def _pair_loss_and_grads(model, u, branches, signs, labels, training, rng, items, what):
    """The body of both losses: the logit o = sum_b signs[b] * D(user,
    branch b), taken left to right from the first term, matched by
    cross-entropy against ``labels``; every gradient is populated.

    Each branch is a feature array, or with ``items`` given, row indices into
    it. Feature arrays are first stacked into one catalogue, each branch its
    own run of rows. The item tower then runs once, forward and backward,
    over every branch's rows stacked in order (see :func:`tower_forward`).

    ``labels`` must be 1-D and, like every branch, hold one entry per user
    row, else ValueError naming the lengths, before any tower runs.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = len(np.atleast_2d(u))
    if items is None:
        blocks = [np.atleast_2d(b) for b in branches]
        ends = np.cumsum([len(b) for b in blocks])
        items = np.concatenate(blocks)
        branches = [np.arange(end - len(b), end) for b, end in zip(blocks, ends)]
    lengths = [len(b) for b in branches]
    if labels.ndim != 1 or {len(labels), *lengths} != {n}:
        raise ValueError(f"a batch of {n} users needs 1-D labels and branches of {n} rows, "
                         f"got labels of shape {labels.shape} and branches of {lengths} rows")
    z_u, cache_u = tower_forward(model.user_tower, u, training, rng)
    z, cache_z = tower_forward(model.item_tower, items, training, rng, rows=tuple(branches))
    ds, cds = zip(*(distance_forward(model.head, z_u, z[b * n : (b + 1) * n])
                    for b in range(len(signs))))
    terms = [s * d for s, d in zip(signs, ds)]
    o = sum(terms[1:], terms[0])
    losses = bce_loss_from_logit(o, labels)
    _check_finite_losses(losses, what)
    d_o = (sigmoid_stable(o) - labels) / o.shape[0]
    d_zu, d_z = zip(*(distance_backward(model.head, s * d_o, cd) for s, cd in zip(signs, cds)))
    tower_backward(sum(d_zu[1:], d_zu[0]), cache_u)
    tower_backward(np.concatenate(d_z), cache_z)
    return float(losses.mean())


def triplet_loss_and_grads(
    model: TripletModelParams,
    u: Array,
    item_i: Array,
    item_j: Array,
    labels: Array,
    training: bool = False,
    rng: RngState | None = None,
    items: Array | None = None,
) -> float:
    """Mean cross-entropy of sigmoid(o), o = D(user, item_i) - D(user,
    item_j), against the orientation labels, computed from logits. Populates
    gradients of the user tower, the shared item tower and the head. The head
    bias cancels in o, so its gradient here is exactly 0 and triplet training
    leaves it at its initial value.

    ``item_i`` and ``item_j`` are feature arrays, or with ``items`` given,
    row indices into it. Feature arrays are stacked into one catalogue, each
    branch its own run of rows, so the item tower's first layer runs one
    product over both; with ``items``, it multiplies each distinct row of
    ``items`` once (see :func:`tower_forward`). The loss and the dropout
    draws equal those of one pass per branch, branch i's first; the
    gradients differ only in summation order.
    """
    return _pair_loss_and_grads(model, u, (item_i, item_j), (1, -1), labels, training, rng,
                                items, "triplet")


def twonet_loss_and_grads(
    model: TripletModelParams,
    u: Array,
    item: Array,
    match_labels: Array,
    training: bool = False,
    rng: RngState | None = None,
    items: Array | None = None,
) -> float:
    """Baseline loss: sigmoid(-D(user, item)) as match probability (smaller
    distance, higher probability) against tag-match labels; the pair loss of
    :func:`triplet_loss_and_grads` with the one branch ``item``, a feature
    array or, with ``items`` given, row indices into it."""
    return _pair_loss_and_grads(model, u, (item,), (-1,), match_labels, training, rng,
                                items, "twonet")


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


# From this many candidates up, _top_k partitions before it sorts. Below
# it, one lexsort of every candidate is cheaper: 5.7 against 11.3 us at 199
# candidates, 26 against 16 us at 999, crossing near 500 (one core, k=10).
TOP_K_PARTITION_MIN = 512


def _top_k(item_ids: Array, distances: Array, k: int, what: str, exclude_ids=()) -> Array:
    """The first k ids by distance ascending, then id: ``np.lexsort`` order,
    among the candidates whose id is not in ``exclude_ids``.

    Ids are int64, as a store's are, and excluded ids are integers (Python
    ints, beyond int64 too, or numpy integers). Exclusion is an id mask, one
    ``item_ids != e`` per distinct id e, which numpy compares exactly.

    For k below the count left and at least TOP_K_PARTITION_MIN of them, one
    partition of every distance finds the (k + m)-th, m the count dropped:
    at least k of the k + m smallest are kept, so it is at or above the
    k-th kept distance, and only the kept candidates at or below it, every
    tie at the k-th included, are sorted. A NaN there (fewer than k + m
    numbers) falls back to sorting every kept candidate. Fewer than k left
    warns, giving the count left."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = None
    n = item_ids.shape[0]
    if len(exclude_ids):
        keep = functools.reduce(operator.and_, [item_ids != e for e in set(exclude_ids)])
        n = int(np.count_nonzero(keep))
    if k > n:
        warnings.warn(
            f"requested top-{k} {what} but only {n} candidates exist; returning all",
            stacklevel=3,
        )
        k = n
    if k < n and n >= TOP_K_PARTITION_MIN:
        cut = k + item_ids.shape[0] - n - 1
        kth = np.partition(distances, cut)[cut]
        if not np.isnan(kth):
            near = distances <= kth
            keep = near if keep is None else near & keep
    if keep is not None:
        item_ids, distances = item_ids[keep], distances[keep]
    order = np.lexsort((item_ids, distances))  # distance ascending, then id
    return item_ids[order[:k]]


def rank_latents_for_user(
    model: TripletModelParams, z_u: Array, item_ids: Array, z_items: Array, k: int
) -> Array:
    """Top-k item ids for one user latent against already embedded items, by
    learned weighted distance ascending; ties broken by ascending item id."""
    d = distance_forward(model.head, z_u, z_items)[0]
    return _top_k(np.asarray(item_ids), d, k, "items for user")


def rank_latents_for_item(
    z_q: Array, item_ids: Array, z_items: Array, k: int, exclude_ids
) -> Array:
    """Top-k neighbours of one item latent among already embedded items by
    squared Euclidean distance (the head scores user-item pairs only), ties
    by ascending id; ``exclude_ids`` drops candidates, typically the query.
    One :func:`_top_k` call over every candidate's distance: the exclusion
    is its id mask, and fewer than k left warns, giving the count left.
    Each distance adds its L terms left to right, as numpy sums the rows of
    a column-major array (but a lone row, n = 1, pairwise from 8 terms up),
    so the latents are read column-major, copied if row-major."""
    d = ((np.asfortranarray(z_items) - z_q) ** 2).sum(axis=1)
    return _top_k(np.asarray(item_ids), d, k, "item neighbours", exclude_ids)


# Elements of one block's distance work in the block rankers: query rows
# times candidates in rank_latent_rows_for_items, so a distance buffer takes
# about ITEM_BLOCK * 8 bytes, and users times items times latent dims, the
# difference, in rank_latent_rows_for_users. A catalogue too large for that
# goes one query row per block.
ITEM_BLOCK = 1 << 16


def item_distances(z_items: Array, rows: Array) -> Array:
    """Squared Euclidean distances of the rows ``rows`` of ``z_items`` (n, L)
    to all n rows, as a (len(rows), n) array whose row i holds the distances
    :func:`rank_latents_for_item` forms for ``z_items[rows[i]]``, bit for bit
    at every width L and in either memory layout, for n >= 2: one latent
    dimension at a time over whole columns, its L terms added left to right."""
    rows = np.asarray(rows, dtype=np.intp)
    cols, z_q = np.ascontiguousarray(z_items.T), z_items[rows]
    shape = (rows.shape[0], cols.shape[1])
    if not cols.shape[0]:
        return np.zeros(shape)
    d, term = np.empty(shape), np.empty(shape)
    for l in range(cols.shape[0]):
        # (q_l - col_l)^2, the same bits as (col_l - q_l)^2: numpy subtracts
        # a per-row scalar about 3x slower than a copy and a full subtraction
        out = term if l else d
        np.copyto(out, z_q[:, l, None])
        np.subtract(out, cols[l], out=out)
        np.square(out, out=out)
        if l:
            d += term
    return d


def _rank_rows(item_ids: Array, n_rows: int, step: int, block_distances, k: int,
               what: str, own_ids=None) -> Array:
    """The top-k ids of each of ``n_rows`` query rows, taken ``step`` rows at
    a time: ``block_distances(lo, hi)`` gives rows lo to hi's distances to
    every candidate, and ``own_ids[i]``, if given, is row i's excluded id.

    Each block is partitioned once, at its (k + m)-th distance, m = 1 with
    an excluded id and 0 without. A row this cannot settle exactly is ranked
    by :func:`_top_k` from its own distances, with its own warning: one where
    more than k + m candidates lie at or below that distance (a tie at it)
    or fewer (it is NaN), one whose excluded id does not fill exactly one of
    the k + m places, and every row when k < 1 or k >= n. The ids are
    distinct and each excluded id is one of them, so every row gets
    min(k, n - m) ids."""
    n, m = item_ids.shape[0], int(own_ids is not None)
    cut = k + m
    out = np.empty((n_rows, max(min(k, n - m), 0)), dtype=item_ids.dtype)
    for lo in range(0, n_rows, step):
        d = block_distances(lo, lo + step)
        own = None if own_ids is None else own_ids[lo : lo + step]
        settled = np.zeros(d.shape[0], dtype=bool)
        if 1 <= k < n:
            near = np.argpartition(d, cut - 1, axis=1)[:, :cut]
            d_near = np.take_along_axis(d, near, axis=1)
            ids_near = item_ids[near]
            ranked = np.take_along_axis(ids_near, np.lexsort((ids_near, d_near), axis=1), axis=1)
            mine = np.zeros(ranked.shape, dtype=bool) if own is None else ranked == own[:, None]
            settled = ((np.count_nonzero(d <= d_near[:, cut - 1, None], axis=1) == cut)
                       & (np.count_nonzero(mine, axis=1) == cut - k))
            out[lo : lo + step][settled] = ranked[settled][~mine[settled]].reshape(-1, k)
        for j in np.flatnonzero(~settled).tolist():
            out[lo + j] = _top_k(item_ids, d[j], k, what, () if own is None else (own[j],))
    return out


def rank_latent_rows_for_users(
    model: TripletModelParams, z_users: Array, item_ids: Array, z_items: Array, k: int
) -> Array:
    """Row i is ``rank_latents_for_user(model, z_users[i], item_ids, z_items,
    k)``: the same ids and warnings.

    Users go in blocks whose (users, items, L) difference holds about
    ITEM_BLOCK elements, and each block's distances come from one
    ``distance_forward(model.head, z_block[:, None, :], z_items)`` call,
    which forms every user's row as its own call does, bit for bit. Each
    block is ranked by :func:`_rank_rows`, with no excluded id."""
    item_ids = np.asarray(item_ids)
    step = max(1, ITEM_BLOCK // max(z_items.size, 1))
    return _rank_rows(
        item_ids, z_users.shape[0], step,
        lambda lo, hi: distance_forward(model.head, z_users[lo:hi, None, :], z_items)[0],
        k, "items for user")


def rank_latent_rows_for_items(item_ids: Array, z_items: Array, rows: Array, k: int) -> Array:
    """Row i is ``rank_latents_for_item(z_items[rows[i]], item_ids, z_items,
    k, (item_ids[rows[i]],))``: the top-k neighbours of each catalogue row
    in ``rows``, its own id excluded, with the same ids and warnings.

    Queries go in blocks of about ITEM_BLOCK distances, which
    :func:`item_distances` forms in the one left-to-right order of
    :func:`rank_latents_for_item`, and each block is ranked by
    :func:`_rank_rows`, the query's own id excluded. The ids must be
    distinct, as a store's are: a query excludes every row of its id, so
    with a repeated one its row would be short."""
    item_ids, rows = np.asarray(item_ids), np.asarray(rows, dtype=np.intp)
    step = max(1, ITEM_BLOCK // max(item_ids.shape[0], 1))
    return _rank_rows(item_ids, rows.shape[0], step,
                      lambda lo, hi: item_distances(z_items, rows[lo:hi]),
                      k, "item neighbours", item_ids[rows])


def catalogue_latents(model: TripletModelParams, item_features: Array) -> Array:
    """``embed_item(model.item_tower, item_features)``, cached per model: the
    latents of every catalogue item, a catalogue-row query's included (see
    :func:`rank_items_for_item`).

    The cache holds one entry, keyed by the version of the model's arena
    (which every parameter write moves, see :func:`nn.writing`) and by
    ``item_features``, held by weakref. A fill makes ``item_features``
    and every array on its ``.base`` chain read-only, so the catalogue cannot
    change under its latents; it caches only when that chain ends in an
    array that owns its memory, and otherwise embeds on every call. The
    cached latents are read-only too. A view of that memory made before the
    fill stays writable, and a write through it goes unseen.
    """
    version, entry = model.arena.version, model.catalogue
    if entry is not None and entry[0] == version and entry[1]() is item_features:
        return entry[2]
    latents = embed_item(model.item_tower, item_features)
    if isinstance(item_features, np.ndarray):
        chain = [item_features]
        while isinstance(chain[-1].base, np.ndarray):
            chain.append(chain[-1].base)
        if chain[-1].flags.owndata:
            for a in (*chain, latents):
                a.flags.writeable = False
            model.catalogue = (version, weakref.ref(item_features), latents)
    return latents


def rank_items_for_user(
    model: TripletModelParams, u: Array, item_ids: Array, item_features: Array, k: int
) -> Array:
    """Embed the user (inference mode, no dropout), take the items' latents
    from :func:`catalogue_latents`, then rank as
    :func:`rank_latents_for_user` does.

    The first call freezes ``item_features`` (see :func:`catalogue_latents`),
    but a writable view of its memory made before that call stays writable,
    and a write through it goes unseen: later calls rank with stale latents.
    Pass a new array after changing the catalogue that way."""
    z_u = embed_user(model.user_tower, u)
    z_items = catalogue_latents(model, item_features)
    return rank_latents_for_user(model, z_u, item_ids, z_items, k)


def _catalogue_row(query: Array, item_features) -> int | None:
    """Index of the first row of a 2-D ndarray ``item_features`` equal to
    ``query``, one row of its width, else None: a scan of the first column
    for the query's first value, each candidate confirmed whole. A NaN
    anywhere in the query matches no row."""
    if not isinstance(item_features, np.ndarray) or item_features.ndim != 2:
        return None
    q = query[0] if query.ndim == 2 and query.shape[0] == 1 else query
    if q.shape != item_features.shape[1:] or not q.shape[0]:
        return None
    for row in np.flatnonzero(item_features[:, 0] == q[0]).tolist():
        if np.array_equal(item_features[row], q):
            return row
    return None


def rank_items_for_item(
    model: TripletModelParams, query_features: Array, item_ids: Array,
    item_features: Array, k: int, exclude_ids=(),
) -> Array:
    """Take the items' latents from :func:`catalogue_latents` and the
    query's as below, then rank as :func:`rank_latents_for_item` does:
    ``exclude_ids`` drops candidates by an id mask (see :func:`_top_k`).

    A query equal to a row of ``item_features`` (the first such row, found
    by :func:`_catalogue_row`) takes that row's latent from the same call,
    so it embeds nothing of its own and ranks as it does in
    ``evaluate.item_item_precision_at_k``. Any other query, such as a new
    item's features, is embedded alone, before the catalogue is read. The
    catalogue-cache limit of :func:`rank_items_for_user` holds here too."""
    query = np.asarray(query_features, dtype=np.float64)
    row = _catalogue_row(query, item_features)
    if row is None:
        z_q = embed_item(model.item_tower, query)
        z_items = catalogue_latents(model, item_features)
    else:
        z_items = catalogue_latents(model, item_features)
        z_q = z_items[row]
    return rank_latents_for_item(z_q, item_ids, z_items, k, exclude_ids)
