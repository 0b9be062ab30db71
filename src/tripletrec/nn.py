"""Dense layers with manual reverse-mode differentiation, plus the optimizer
and a finite-difference gradient checker used as the correctness oracle.

Everything operates on 2-D float64 numpy arrays (batch rows, feature columns).
Each operation is a forward/backward pair: the forward returns
``(output, cache)``, the backward consumes the upstream gradient and the
cache, accumulates parameter gradients in place on the owning
:class:`ParamTensor`, and returns the gradient with respect to the input
(:func:`linear_param_backward`, for a layer whose input gradient nothing
reads, returns nothing).
Accumulation (``+=``) is deliberate: parameters referenced from several
branches of a network collect contributions from every branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

# Variance floor for per-row normalization; keeps constant rows finite.
NORM_VAR_FLOOR = 1e-5

# Probability clamp for log() in the probability-space loss.
BCE_EPS = 1e-12


class NonFiniteLossError(ArithmeticError):
    """Raised when a loss evaluates to NaN/Inf; message names the batch."""


@dataclass
class RngState:
    """Counter-based random stream: (seed, counter) fully determines every draw.

    Each call to :meth:`next_generator` derives a fresh numpy Generator from
    ``(seed, counter)`` and bumps the counter, so a sequence of draws is
    reproducible from the initial state alone and independent of how many
    values each consumer pulls.
    """

    seed: int
    counter: int = 0

    def next_generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.counter,))
        self.counter += 1
        return np.random.default_rng(seq)


@dataclass
class ParamTensor:
    """A trainable tensor: value plus gradient and Adam moment buffers.

    All four arrays share one shape and are C-contiguous float64. ``grad``
    is accumulated by backward passes and must be cleared with
    :func:`zero_grads` between optimizer steps.

    :func:`param_arena` lays tensors end to end in one flat tensor, their
    arena: each one's four arrays are reshaped views of the arena's, and its
    ``arena`` is that flat tensor. Writing through either writes both. (The arena keeps no
    list of its parts, so a dropped model is freed at once, with no
    reference cycle left for the garbage collector.)
    """

    value: Array
    grad: Array | None = None
    moment1: Array | None = None
    moment2: Array | None = None
    arena: ParamTensor | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad, self.moment1, self.moment2 = (
            np.zeros(self.value.shape) if buf is None
            else np.ascontiguousarray(buf, dtype=np.float64)
            for buf in (self.grad, self.moment1, self.moment2)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def param_arena(shapes) -> list[ParamTensor]:
    """Zero tensors of the given shapes, in order, laid end to end in one
    fresh 1-D arena. Its four buffers come from ``np.zeros``, so pages
    nothing writes cost no memory."""
    sizes = [math.prod(shape) for shape in shapes]
    arena = ParamTensor(np.zeros(sum(sizes)))
    buffers = (arena.value, arena.grad, arena.moment1, arena.moment2)
    parts, start = [], 0
    for shape, size in zip(shapes, sizes):
        part = ParamTensor(*(buf[start : start + size].reshape(shape) for buf in buffers))
        part.arena = arena
        parts.append(part)
        start += size
    return parts


def fuse(params) -> list[ParamTensor]:
    """``[arena]`` when ``params`` are distinct parts of one arena that cover
    it, in any order; otherwise ``params`` as a list. Adam and zeroing act
    elementwise, so doing either to the arena does it to each part."""
    params = list(params)
    arena = params[0].arena if params else None
    if (
        arena is not None
        and all(p.arena is arena for p in params)
        and len({id(p) for p in params}) == len(params)
        and sum(p.value.size for p in params) == arena.value.size
    ):
        return [arena]
    return params


def zero_grads(params) -> None:
    """Clear the gradients; the parts of one arena take one ``fill``."""
    for p in fuse(params):
        p.grad.fill(0.0)


def glorot_fill(w: Array, gen: np.random.Generator) -> None:
    """Fill ``w`` of shape (d_in, d_out) in place with uniform draws in
    +-sqrt(6/(d_in+d_out)). Rows are drawn a block of about 32k elements at
    a time, so no full-size temporary is made; the draws, in row-major
    order, are those of one ``gen.uniform`` call over the whole shape."""
    d_in, d_out = w.shape
    limit = math.sqrt(6.0 / (d_in + d_out))
    rows = max(1, 32768 // d_out)
    for r in range(0, d_in, rows):
        w[r : r + rows] = gen.uniform(-limit, limit, size=w[r : r + rows].shape)


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------


def linear_forward(x: Array, w: ParamTensor, b: ParamTensor):
    """y = x @ W + b with x (batch, d_in), W (d_in, d_out), b (1, d_out)."""
    if x.ndim != 2 or x.shape[1] != w.value.shape[0]:
        raise ValueError(
            f"linear_forward: input shape {x.shape} does not conform to "
            f"weight shape {w.value.shape}"
        )
    if b.value.shape != (1, w.value.shape[1]):
        raise ValueError(
            f"linear_forward: bias shape {b.value.shape} does not conform to "
            f"weight shape {w.value.shape}"
        )
    out = x @ w.value + b.value
    return out, (x, w, b)


def linear_backward(d_out: Array, cache) -> Array:
    linear_param_backward(d_out, cache)
    return d_out @ cache[1].value.T


def linear_param_backward(d_out: Array, cache) -> None:
    """The weight and bias half of :func:`linear_backward`, for a layer whose
    input gradient nothing reads."""
    x, w, b = cache
    w.grad += x.T @ d_out
    b.grad += d_out.sum(axis=0, keepdims=True)


def relu_forward(x: Array):
    return np.maximum(x, 0.0), x


def relu_backward(d_out: Array, cache: Array) -> Array:
    # Subgradient at exactly 0 is taken as 0.
    return d_out * (cache > 0.0)


def layer_norm_forward(x: Array, gain: ParamTensor, shift: ParamTensor):
    """Standardize each row to zero mean / unit variance, then scale and shift.

    The variance is floored at NORM_VAR_FLOOR so constant rows map to the
    shift instead of blowing up. Per-feature gain/shift have shape (1, d).
    """
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    above = var > NORM_VAR_FLOOR
    denom = np.sqrt(np.maximum(var, NORM_VAR_FLOOR))
    xhat = centered / denom
    out = xhat * gain.value + shift.value
    return out, (xhat, denom, above, gain, shift)


def layer_norm_backward(d_out: Array, cache) -> Array:
    xhat, denom, above, gain, shift = cache
    gain.grad += (d_out * xhat).sum(axis=0, keepdims=True)
    shift.grad += d_out.sum(axis=0, keepdims=True)
    d_xhat = d_out * gain.value
    # Where the variance sits at the floor the denominator is a constant,
    # so the variance term of the usual layer-norm gradient drops out.
    mean_d = d_xhat.mean(axis=1, keepdims=True)
    proj = (d_xhat * xhat).mean(axis=1, keepdims=True)
    return (d_xhat - mean_d - above * xhat * proj) / denom


def dropout_forward(x: Array, p: float, rng: RngState | None, training: bool):
    """Inverted dropout: zero entries with probability p and scale survivors
    by 1/(1-p) during training; at inference the op is the identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in training mode needs an RngState")
    gen = rng.next_generator()
    mask = (gen.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(d_out: Array, mask) -> Array:
    if mask is None:
        return d_out
    return d_out * mask


# ---------------------------------------------------------------------------
# Scalar nonlinearities and losses (elementwise over arrays)
# ---------------------------------------------------------------------------


def sigmoid_stable(x):
    """1/(1+exp(-x)) without overflow for any finite input (branch on sign)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
    return out if out.ndim else float(out)


def bce_loss(p, label):
    """-label*log(p) - (1-label)*log(1-p), with p clamped to [eps, 1-eps].

    Prefer :func:`bce_loss_from_logit` whenever the logit is available.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    label = np.asarray(label, dtype=np.float64)
    out = -(label * np.log(p) + (1.0 - label) * np.log1p(-p))
    return out if out.ndim else float(out)


def bce_loss_from_logit(logit, label):
    """Binary cross-entropy of sigmoid(logit) against label, computed from
    the logit: max(o,0) - o*y + log(1+exp(-|o|))."""
    o = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    out = np.maximum(o, 0.0) - o * y + np.log1p(np.exp(-np.abs(o)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


# Elements per Adam pass: the chunk's slices of the four buffers and the two
# scratch buffers stay in cache.
ADAM_CHUNK = 32768


def adam_step(
    params,
    lr: float = 1e-3,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    step: int = 1,
) -> None:
    """One Adam update with bias correction, in place. ``step`` is 1-based.

    The parts of one arena are updated as the arena (see :func:`fuse`). Each
    tensor is walked ADAM_CHUNK elements at a time with in-place ufuncs and
    two scratch buffers, no full-size temporaries, in the operation order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    value -= lr*(m/c1) / (sqrt(v/c2) + eps), so the result is bit-identical
    to that formula evaluated tensor by tensor. Gradients are left untouched;
    the caller zeroes them between steps.
    """
    if step < 1:
        raise ValueError(f"adam_step: step is 1-based, got {step}")
    b1, b2 = betas
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    params = fuse(params)
    n = min(ADAM_CHUNK, max((p.value.size for p in params), default=0))
    scratch_a, scratch_b = np.empty(n), np.empty(n)
    for p in params:
        flat = [buf.reshape(-1) for buf in (p.value, p.grad, p.moment1, p.moment2)]
        for start in range(0, flat[0].size, ADAM_CHUNK):
            value, g, m, v = (buf[start : start + ADAM_CHUNK] for buf in flat)
            a, b = scratch_a[: g.size], scratch_b[: g.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            value -= a


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    worst_param: int
    worst_entry: int
    n_entries: int
    tol: float
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.max_rel_error < self.tol

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        msg = (
            f"grad check {status}: max relative error {self.max_rel_error:.3e} "
            f"over {self.n_entries} entries (tol {self.tol:.1e})"
        )
        if self.failures:
            msg += f"; {len(self.failures)} non-finite probes"
        return msg


def grad_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of a scalar loss against central differences.

    ``f()`` must evaluate the loss and populate ``p.grad`` for every tensor in
    ``params`` as a side effect, and must be deterministic across calls (any
    internal randomness has to be frozen by the caller). Relative error per
    entry is |a-n| / max(1e-8, |a|+|n|). Non-finite loss values at a probe
    point are recorded as failures.
    """
    params = list(params)
    zero_grads(params)
    base = float(f())
    if not math.isfinite(base):
        return GradCheckReport(math.inf, -1, -1, 0, tol, ["non-finite loss at base point"])
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    worst = (-1, -1)
    n_entries = 0
    failures: list[str] = []
    for pi, p in enumerate(params):
        flat = p.value.reshape(-1)
        a_flat = analytic[pi].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lo_plus = float(f())
            flat[j] = orig - h
            lo_minus = float(f())
            flat[j] = orig
            n_entries += 1
            if not (math.isfinite(lo_plus) and math.isfinite(lo_minus)):
                failures.append(f"param {pi} entry {j}: non-finite loss at probe")
                continue
            numeric = (lo_plus - lo_minus) / (2.0 * h)
            a = a_flat[j]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > max_rel:
                max_rel = rel
                worst = (pi, j)
    # Leave the analytic gradients in place for the caller.
    for p, g in zip(params, analytic):
        p.grad[...] = g
    return GradCheckReport(max_rel, worst[0], worst[1], n_entries, tol, failures)
