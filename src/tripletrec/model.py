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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .nn import (
    Array,
    NonFiniteLossError,
    ParamTensor,
    RngState,
    bce_loss_from_logit,
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
)


@dataclass
class TowerSpec:
    """Shape of one fully connected tower.

    Hidden layers run linear -> per-row normalize -> ReLU -> dropout; a final
    linear layer maps to the latent space with no activation.
    """

    input_dim: int
    hidden_dims: list[int] = field(default_factory=lambda: [32, 32, 16, 16])
    output_dim: int = 7
    dropout_p: float = 0.2
    normalize: bool = True

    def __post_init__(self):
        if not self.hidden_dims:
            raise ValueError("a tower needs at least one hidden layer")
        if min(self.input_dim, self.output_dim, *self.hidden_dims) < 1:
            raise ValueError("tower dimensions must be positive")


def item_tower_spec(
    input_dim: int = 7560,
    hidden_dims: list[int] | None = None,
    output_dim: int = 7,
    dropout_p: float = 0.2,
) -> TowerSpec:
    """Default item tower: geometric taper from the flat feature vector."""
    if hidden_dims is None:
        hidden_dims = [1024, 256, 64, 16]
    return TowerSpec(input_dim, list(hidden_dims), output_dim, dropout_p)


def user_tower_spec(
    input_dim: int = 7,
    hidden_dims: list[int] | None = None,
    output_dim: int = 7,
    dropout_p: float = 0.2,
) -> TowerSpec:
    if hidden_dims is None:
        hidden_dims = [32, 32, 16, 16]
    return TowerSpec(input_dim, list(hidden_dims), output_dim, dropout_p)


@dataclass
class TowerParams:
    """Parameters of one tower: per-layer weights/biases plus normalization
    gain/shift for each hidden layer (empty when normalization is off)."""

    spec: TowerSpec
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
    for i, d in enumerate(spec.hidden_dims if spec.normalize else []):
        out += [(f"gain{i}", "gains", i, (1, d)), (f"shift{i}", "shifts", i, (1, d))]
    return out


def _tower_of(spec: TowerSpec, parts) -> TowerParams:
    """The tower whose tensors, in tower_layout order, are the next ones
    ``parts`` yields."""
    fields = {"weights": [], "biases": [], "gains": [], "shifts": []}
    for (_, f, _, _), part in zip(tower_layout(spec), parts):
        fields[f].append(part)
    return TowerParams(spec, **fields)


def _init_tower_values(tower: TowerParams, rng: RngState) -> None:
    """Glorot-uniform weights and identity normalization over zero tensors."""
    gen = rng.next_generator()
    for w in tower.weights:
        glorot_fill(w.value, gen)
    for gain in tower.gains:
        gain.value[...] = 1.0


def init_tower(spec: TowerSpec, rng: RngState) -> TowerParams:
    """Glorot-uniform weights, zero biases, identity normalization, held in an
    arena of the tower's own."""
    tower = _tower_of(spec, param_arena([shape for *_, shape in tower_layout(spec)]))
    _init_tower_values(tower, rng)
    return tower


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

    One ``item_tower`` serves both item branches of every triplet, so the
    branches' backward passes accumulate into the same gradient buffers.
    """

    user_tower: TowerParams
    item_tower: TowerParams
    head: DistanceHeadParams

    def parameters(self) -> list[ParamTensor]:
        return [
            *self.user_tower.parameters(),
            *self.item_tower.parameters(),
            *self.head.parameters(),
        ]


def allocate_model(user_spec: TowerSpec, item_spec: TowerSpec) -> TripletModelParams:
    """A model of these shapes with every parameter zero, all of them parts of
    one arena in model_layout order (so the arena's value buffer is the
    checkpoint's tensor section). Draws nothing."""
    if user_spec.output_dim != item_spec.output_dim:
        raise ValueError(
            f"towers must share the latent dimension, got "
            f"{user_spec.output_dim} vs {item_spec.output_dim}"
        )
    parts = iter(param_arena([shape for _, shape, _ in model_layout(user_spec, item_spec)]))
    return TripletModelParams(
        user_tower=_tower_of(user_spec, parts),
        item_tower=_tower_of(item_spec, parts),
        head=DistanceHeadParams(next(parts), next(parts)),
    )


def init_model(user_spec: TowerSpec, item_spec: TowerSpec, rng: RngState) -> TripletModelParams:
    """Glorot-initialised towers (user, then item, as init_tower does) and
    head over one arena; each takes the next generator of ``rng``."""
    model = allocate_model(user_spec, item_spec)
    _init_tower_values(model.user_tower, rng)
    _init_tower_values(model.item_tower, rng)
    glorot_fill(model.head.weight.value.T, rng.next_generator())
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


def tower_forward(tower: TowerParams, x: Array, training: bool = False, rng: RngState | None = None):
    """Run a batch through the tower; returns (latent, caches) where caches
    carry everything the matching backward pass needs."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != tower.spec.input_dim:
        raise ValueError(
            f"tower expects input dim {tower.spec.input_dim}, got {x.shape[1]}"
        )
    h = x
    hidden_caches = []
    n_hidden = len(tower.spec.hidden_dims)
    for i in range(n_hidden):
        h, lin_cache = linear_forward(h, tower.weights[i], tower.biases[i])
        norm_cache = None
        if tower.spec.normalize:
            h, norm_cache = layer_norm_forward(h, tower.gains[i], tower.shifts[i])
        h, relu_cache = relu_forward(h)
        h, drop_mask = dropout_forward(h, tower.spec.dropout_p, rng, training)
        hidden_caches.append((lin_cache, norm_cache, relu_cache, drop_mask))
    z, final_cache = linear_forward(h, tower.weights[n_hidden], tower.biases[n_hidden])
    return z, (hidden_caches, final_cache)


def tower_backward(tower: TowerParams, d_z: Array, caches) -> None:
    """Backpropagate ``d_z``, the loss gradient at the tower's output, adding
    every layer's parameter gradients to its tensors. Nothing reads the
    gradient at the tower's input, so the first linear layer adds only its
    weight and bias gradients, ``d_out @ W.T`` is never formed and the
    function returns None."""
    hidden_caches, final_cache = caches
    d = linear_backward(d_z, final_cache)
    for i in reversed(range(len(hidden_caches))):
        lin_cache, norm_cache, relu_cache, drop_mask = hidden_caches[i]
        d = dropout_backward(d, drop_mask)
        d = relu_backward(d, relu_cache)
        if norm_cache is not None:
            d = layer_norm_backward(d, norm_cache)
        if i:
            d = linear_backward(d, lin_cache)
    linear_param_backward(d, hidden_caches[0][0])


def embed_user(tower: TowerParams, u: Array, training: bool = False, rng: RngState | None = None) -> Array:
    """Map user tag-topic vectors (batch, input_dim) into the latent space."""
    return tower_forward(tower, u, training, rng)[0]


def embed_item(tower: TowerParams, x: Array, training: bool = False, rng: RngState | None = None) -> Array:
    """Map flattened item features (batch, input_dim) into the latent space."""
    return tower_forward(tower, x, training, rng)[0]


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


def pair_logit(
    model: TripletModelParams,
    u: Array,
    item_i: Array,
    item_j: Array,
    training: bool = False,
    rng: RngState | None = None,
) -> Array:
    """o = D(user, item_i) - D(user, item_j) per row, both items embedded by
    the one shared item tower."""
    z_u = embed_user(model.user_tower, u, training, rng)
    z_i = embed_item(model.item_tower, item_i, training, rng)
    z_j = embed_item(model.item_tower, item_j, training, rng)
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


def triplet_loss_and_grads(
    model: TripletModelParams,
    u: Array,
    item_i: Array,
    item_j: Array,
    labels: Array,
    training: bool = False,
    rng: RngState | None = None,
) -> float:
    """Mean cross-entropy of sigmoid(o) against the orientation labels,
    computed from logits. Populates gradients of the user tower, the shared
    item tower (both branches accumulate) and the head. The head bias cancels
    in o = D_i - D_j, so its gradient here is exactly 0 and triplet training
    leaves it at its initial value.
    """
    labels = np.asarray(labels, dtype=np.float64)
    z_u, cache_u = tower_forward(model.user_tower, u, training, rng)
    z_i, cache_i = tower_forward(model.item_tower, item_i, training, rng)
    z_j, cache_j = tower_forward(model.item_tower, item_j, training, rng)
    d_i, cd_i = distance_forward(model.head, z_u, z_i)
    d_j, cd_j = distance_forward(model.head, z_u, z_j)
    o = d_i - d_j
    losses = bce_loss_from_logit(o, labels)
    _check_finite_losses(losses, "triplet")
    n = o.shape[0]
    d_o = (sigmoid_stable(o) - labels) / n
    d_zu_i, d_zi = distance_backward(model.head, d_o, cd_i)
    d_zu_j, d_zj = distance_backward(model.head, -d_o, cd_j)
    tower_backward(model.user_tower, d_zu_i + d_zu_j, cache_u)
    tower_backward(model.item_tower, d_zi, cache_i)
    tower_backward(model.item_tower, d_zj, cache_j)
    return float(losses.mean())


def twonet_loss_and_grads(
    model: TripletModelParams,
    u: Array,
    item: Array,
    match_labels: Array,
    training: bool = False,
    rng: RngState | None = None,
) -> float:
    """Baseline loss: sigmoid(-D(user, item)) as match probability (smaller
    distance, higher probability) against tag-match labels."""
    match_labels = np.asarray(match_labels, dtype=np.float64)
    z_u, cache_u = tower_forward(model.user_tower, u, training, rng)
    z_i, cache_i = tower_forward(model.item_tower, item, training, rng)
    d, cd = distance_forward(model.head, z_u, z_i)
    o = -d
    losses = bce_loss_from_logit(o, match_labels)
    _check_finite_losses(losses, "twonet")
    n = o.shape[0]
    d_d = -(sigmoid_stable(o) - match_labels) / n
    d_zu, d_zi = distance_backward(model.head, d_d, cd)
    tower_backward(model.user_tower, d_zu, cache_u)
    tower_backward(model.item_tower, d_zi, cache_i)
    return float(losses.mean())


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def _top_k(item_ids: Array, distances: Array, k: int, what: str) -> Array:
    if k < 1:
        raise ValueError("k must be >= 1")
    n = item_ids.shape[0]
    if k > n:
        warnings.warn(
            f"requested top-{k} {what} but only {n} candidates exist; returning all",
            stacklevel=3,
        )
        k = n
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
    by ascending id; ``exclude_ids`` drops candidates, typically the query."""
    item_ids = np.asarray(item_ids)
    d = ((z_items - z_q) ** 2).sum(axis=1)
    if len(exclude_ids):
        keep = ~np.isin(item_ids, np.asarray(list(exclude_ids)))
        item_ids, d = item_ids[keep], d[keep]
    return _top_k(item_ids, d, k, "item neighbours")


def rank_items_for_user(
    model: TripletModelParams, u: Array, item_ids: Array, item_features: Array, k: int
) -> Array:
    """Embed the user and the items (inference mode, no dropout), then rank
    as :func:`rank_latents_for_user` does."""
    z_u = embed_user(model.user_tower, u)
    z_items = embed_item(model.item_tower, item_features)
    return rank_latents_for_user(model, z_u, item_ids, z_items, k)


def rank_items_for_item(
    model: TripletModelParams, query_features: Array, item_ids: Array,
    item_features: Array, k: int, exclude_ids=(),
) -> Array:
    """Embed the query and the items, then rank as
    :func:`rank_latents_for_item` does."""
    z_q = embed_item(model.item_tower, query_features)
    z_items = embed_item(model.item_tower, item_features)
    return rank_latents_for_item(z_q, item_ids, z_items, k, exclude_ids)
