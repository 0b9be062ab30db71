"""Span tracing for the benchmark, installed from outside the package.

A wrapper replaces the module attribute that each caller looks up at call
time. ``model.py`` binds the ``nn`` layer functions with ``from .nn import``
and ``train.py`` binds ``adam_step``/``zero_grads`` the same way, so those
are patched on ``tripletrec.model`` and ``tripletrec.train``; patching
``tripletrec.nn`` alone would time nothing. :meth:`Tracer.uninstall` puts
every original back.

A span is the tuple ``(name, start, end, parent, request, size)``: ``parent``
is the index of the enclosing span (-1 at the top), ``request`` is the
``(kind, id)`` of the training step, query or phase it belongs to, and
``size`` is a call-shape count (rows embedded, multiply-adds, tensors).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# Training-phase metrics are milliseconds per training step, summed over the
# span names listed.
PER_STEP = {
    "nn.adam_step_ms": ("nn.adam_step",),
    "nn.zero_grads_ms": ("nn.zero_grads",),
    "nn.dropout_ms": ("nn.dropout_forward", "nn.dropout_backward"),
    "nn.layer_norm_forward_ms": ("nn.layer_norm_forward",),
    "nn.layer_norm_backward_ms": ("nn.layer_norm_backward",),
    "nn.relu_ms": ("nn.relu_forward", "nn.relu_backward"),
    "nn.linear_forward_ms": ("nn.linear_forward",),
    "nn.linear_backward_ms": ("nn.linear_backward",),
    "model.user_tower_forward_train_ms": ("model.user_tower_forward_train",),
    "model.item_tower_forward_train_ms": ("model.item_tower_forward_train",),
    "model.tower_backward_ms": ("model.tower_backward",),
    "model.distance_ms": ("model.distance_forward", "model.distance_backward"),
    "model.loss_and_grads_ms": ("model.triplet_loss_and_grads",),
}

# Query-stream metrics are milliseconds per query.
PER_QUERY = {
    "model.user_tower_forward_infer_ms": ("model.user_tower_forward_infer",),
    "model.item_tower_forward_infer_ms": ("model.item_tower_forward_infer",),
}

# Phase metrics are the median span duration in seconds.
PER_CALL_S = {
    "data.load_corpus_s": "data.load_corpus",
    "data.build_triplets_s": "data.build_triplets",
    "data.split_train_test_s": "data.split_train_test",
    "train.save_checkpoint_s": "train.save_checkpoint",
    "train.load_checkpoint_s": "train.load_checkpoint",
    "evaluate.pairwise_accuracy_s": "evaluate.pairwise_accuracy",
    "evaluate.precision_at_k_s": "evaluate.precision_at_k",
    "evaluate.item_item_precision_at_k_s": "evaluate.item_item_precision_at_k",
}

LAYERS = ("data", "nn", "model", "train", "evaluate")


def _rows(args, kwargs):
    x = args[1]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


def _linear_macs(args, kwargs):
    d_out, (_, w, _) = args
    return d_out.shape[0] * w.value.size


def _n_tensors(args, kwargs):
    return len(args[0])


class Tracer:
    """Records spans around calls into tripletrec while installed.

    ``request`` is set by the benchmark before each query, update or phase;
    while ``train()`` runs, the tracer itself advances it to a new
    ``("step", n)`` after every ``zero_grads``. ``item_input_dim`` tells the
    item tower from the user tower by its input width.
    """

    def __init__(self, item_input_dim: int):
        self.item_input_dim = item_input_dim
        self.spans: list[tuple] = []
        self.request: tuple = ("run", 0)
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._step = 0
        self._in_train = False

    def _wrap(self, fn, name, size=None, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            n = size(args, kwargs) if size is not None else 0
            request = self.request
            if before is not None:
                before()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, request, n)
                if after is not None:
                    after(request)

        traced.__wrapped__ = fn
        return traced

    def _tower_name(self, args, kwargs):
        tower = args[0]
        training = args[2] if len(args) > 2 else kwargs.get("training", False)
        kind = "item" if tower.spec.input_dim == self.item_input_dim else "user"
        return f"model.{kind}_tower_forward_{'train' if training else 'infer'}"

    def _next_step(self):
        self._step += 1
        self.request = ("step", self._step)

    def _train_started(self):
        self._in_train = True
        self._next_step()

    def _train_ended(self, request):
        self._in_train = False
        self.request = request

    def _grads_zeroed(self, request):
        if self._in_train:
            self._next_step()

    def _patch(self, owner, attr, name, **hooks):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **hooks))

    def install(self, D, M, N, T, E) -> None:
        """Wrap the data, model, nn, train and evaluate modules' entry points."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for fn in ("linear_forward", "relu_forward", "relu_backward",
                   "layer_norm_forward", "layer_norm_backward",
                   "dropout_forward", "dropout_backward"):
            self._patch(M, fn, f"nn.{fn}")
        self._patch(M, "linear_backward", "nn.linear_backward", size=_linear_macs)
        self._patch(N.RngState, "next_generator", "nn.next_generator")
        self._patch(M, "tower_forward", self._tower_name, size=_rows)
        for fn in ("tower_backward", "distance_forward", "distance_backward",
                   "triplet_loss_and_grads", "pair_logit",
                   "rank_items_for_user", "rank_items_for_item"):
            self._patch(M, fn, f"model.{fn}")
        self._patch(T, "adam_step", "nn.adam_step", size=_n_tensors)
        self._patch(T, "zero_grads", "nn.zero_grads", after=self._grads_zeroed)
        self._patch(T, "train", "train.train",
                    before=self._train_started, after=self._train_ended)
        for fn in ("save_checkpoint", "load_checkpoint"):
            self._patch(T, fn, f"train.{fn}")
        for fn in ("load_corpus", "generate_synthetic", "save_corpus",
                   "build_triplets", "split_train_test"):
            self._patch(D, fn, f"data.{fn}")
        for fn in ("evaluate_model", "pairwise_accuracy", "precision_at_k",
                   "item_item_precision_at_k"):
            self._patch(E, fn, f"evaluate.{fn}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis of a finished span list
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and strictly nested, so children of one span
    never overlap and their durations can simply be summed."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]


def layer_self_seconds(spans) -> dict[str, float]:
    """Self time summed per layer, the layer being the span name's prefix."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += own
    return {layer: totals[layer] for layer in LAYERS}


def _unused_input_grad_share(spans) -> float:
    """Share of linear-backward multiply-adds spent on ``d_out @ W.T`` of a
    tower's first layer, whose input gradient nobody reads.

    Each linear backward does two products of ``batch*d_in*d_out``
    multiply-adds; a tower backward runs its layers last to first, so the
    last linear backward under each tower backward is the first layer."""
    total = 0
    last_child: dict[int, tuple[float, int]] = {}
    for name, start, _, parent, _, size in spans:
        if name != "nn.linear_backward":
            continue
        total += 2 * size
        if parent >= 0 and spans[parent][0] == "model.tower_backward":
            if parent not in last_child or start > last_child[parent][0]:
                last_child[parent] = (start, size)
    unused = sum(size for _, size in last_child.values())
    return unused / total if total else float("nan")


def _train_steps(spans):
    """(interval_ms, input_wait_ms) for every training step after the first
    of each ``train()`` call. A step runs from the end of the previous
    ``zero_grads`` to the end of its own; input wait is the part covered by
    neither the loss, the Adam step nor the gradient reset."""
    by_call = defaultdict(lambda: defaultdict(dict))
    for name, start, end, parent, (kind, step), _ in spans:
        if kind == "step" and parent >= 0 and spans[parent][0] == "train.train":
            by_call[parent][step][name] = (start, end)
    out = []
    for steps in by_call.values():
        ordered = [steps[k] for k in sorted(steps) if "nn.zero_grads" in steps[k]]
        for prev, cur in zip(ordered, ordered[1:]):
            interval = cur["nn.zero_grads"][1] - prev["nn.zero_grads"][1]
            busy = sum(e - s for n, (s, e) in cur.items()
                       if n in ("model.triplet_loss_and_grads", "nn.adam_step", "nn.zero_grads"))
            out.append((1e3 * interval, 1e3 * (interval - busy)))
    return out


def layer_metrics(spans, n_items: int) -> dict[str, float]:
    """Per-layer metrics derivable from spans alone: every per-layer metric
    BENCHMARK.json lists except the byte counts, the quality guards and the
    tracing overhead, which the pipeline measures itself."""
    total = defaultdict(float)  # (request kind, name) -> seconds
    count = defaultdict(int)
    size = defaultdict(int)
    durations = defaultdict(list)
    requests = defaultdict(set)
    for name, start, end, _, (kind, rid), n in spans:
        total[kind, name] += end - start
        count[kind, name] += 1
        size[kind, name] += n
        durations[name].append(end - start)
        requests[kind].add(rid)

    n_steps = count["step", "nn.adam_step"]
    n_queries = len(requests["query"])
    n_updates = len(requests["update"])
    n_evals = len(requests["eval"])
    m = {}
    for metric, names in PER_STEP.items():
        m[metric] = 1e3 * sum(total["step", n] for n in names) / n_steps
    for metric, names in PER_QUERY.items():
        m[metric] = 1e3 * sum(total["query", n] for n in names) / n_queries
    for metric, name in PER_CALL_S.items():
        m[metric] = statistics.median(durations[name])
    m.update({f"{layer}.self_s": s for layer, s in layer_self_seconds(spans).items()})
    m["nn.param_tensors"] = size["step", "nn.adam_step"] / n_steps
    m["nn.rng_generators_per_step"] = count["step", "nn.next_generator"] / n_steps
    m["model.unused_input_grad_share"] = _unused_input_grad_share(spans)
    for metric, name in (("model.rank_user_ms", "model.rank_items_for_user"),
                         ("model.rank_item_ms", "model.rank_items_for_item")):
        m[metric] = 1e3 * total["query", name] / count["query", name]
    m["model.item_rows_embedded_per_query"] = (
        size["query", "model.item_tower_forward_infer"] / n_queries
    )
    steps = _train_steps(spans)
    m["train.step_ms"] = statistics.fmean(s for s, _ in steps)
    m["train.input_wait_ms"] = statistics.fmean(w for _, w in steps)
    m["train.update_ms"] = 1e3 * sum(
        total["update", n]
        for n in ("model.triplet_loss_and_grads", "nn.adam_step", "nn.zero_grads")
    ) / n_updates
    m["evaluate.embeds_per_distinct_item"] = (
        size["eval", "model.item_tower_forward_infer"] / n_evals / n_items
    )
    m["trace.spans"] = len(spans)
    return m
