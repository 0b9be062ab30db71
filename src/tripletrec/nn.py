"""Dense layers with manual reverse-mode differentiation, plus the optimizer
and a finite-difference gradient checker used as the correctness oracle.

Everything operates on 2-D float64 numpy arrays (batch rows, feature columns).
Each operation is a forward/backward pair: the forward returns
``(output, cache)``, the backward consumes the upstream gradient and the
cache, accumulates parameter gradients in place on the owning
:class:`ParamTensor`, and returns the gradient with respect to the input
(:func:`linear_param_backward`, for a layer whose input gradient nothing
reads, returns nothing). :func:`zero_grads` clears them between steps.
In one loss call of ``tripletrec.model`` every tower tensor receives exactly
one gradient contribution, since the shared item tower runs once over both
item branches stacked; only the distance head receives one per branch (two
in the triplet loss), and ``+=`` is what sums them.

A few large products and passes run as fixed blocks on a per-process pool of
worker threads: the forward and weight-gradient products of a linear layer
whose weight has at least SPLIT_MIN elements (at the production shape only
the item tower's 7560 x 1024 first layer), and the ADAM_CHUNK chunks of
:func:`adam_step` and :func:`zero_grads`. The pool has one worker per CPU the
process may run on at one BLAS thread (``OPENBLAS_NUM_THREADS=1``); with t
BLAS threads, each block's product runs its own t threads and the pool has
one worker per t CPUs, so with the BLAS's default of one thread per CPU it
has one and runs every block on the calling thread. The blocks depend on
array shapes only, never on the worker count, so the bits depend on the BLAS
thread count but not on the CPU count.
"""

from __future__ import annotations

import math
import mmap
import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

Array = np.ndarray

# Variance floor for per-row normalization; keeps constant rows finite.
NORM_VAR_FLOOR = 1e-5


class NonFiniteLossError(ArithmeticError):
    """Raised when a loss evaluates to NaN/Inf; message names the batch.

    Raised out of ``train.train``, ``last_epoch`` is the JSON line of the
    last epoch it finished, as a dict, or None if the first epoch failed.
    """

    last_epoch: dict | None = None


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

    def __post_init__(self):
        if self.seed < 0 or self.counter < 0:
            raise ValueError(f"seed and counter must be >= 0, got {self.seed} and {self.counter}")

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
    ``arena`` is that flat tensor. The ``value`` of an arena and of its parts
    is read-only: :func:`writing` is the one writer, and each write through
    it adds one to the arena's ``version``, so a cache of anything computed
    from the values can tell that they changed. (The arena keeps no
    list of its parts, so a dropped model is freed at once, with no
    reference cycle left for the garbage collector.)
    """

    value: Array
    grad: Array | None = None
    moment1: Array | None = None
    moment2: Array | None = None
    arena: ParamTensor | None = field(default=None, init=False, repr=False, compare=False)
    version: int = field(default=0, init=False, repr=False, compare=False)

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


# An arena of at least SPARE_MIN elements keeps its values in an anonymous
# mapping of its own. When the last array on that mapping is dropped, the
# mapping becomes the process's one spare, and the next arena of the same size
# takes it, zeroed, in place of fresh pages. Loading a checkpoint into a new
# model then costs the same whatever the machine did with its free memory
# meanwhile: on a 2-vCPU VM whose host takes back memory the guest leaves
# free, the first touch of 64 MB of fresh pages took 20-95 ms, and of the
# spare 20-25 ms (zeroing included).
SPARE_MIN = 1 << 20
_spare: dict[int, mmap.mmap] = {}  # at most one mapping, by its length


def _keep_spare(raw: mmap.mmap) -> None:
    _spare.clear()
    _spare[len(raw)] = raw


def _arena_values(n: int) -> Array:
    """``n`` zeros for an arena's values (see SPARE_MIN)."""
    if n < SPARE_MIN or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(n)
    raw = _spare.pop(8 * n, None)
    if raw is not None:
        values = np.frombuffer(raw)
        values.fill(0.0)
    else:
        raw = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises for its large arrays
            raw.madvise(mmap.MADV_HUGEPAGE)
        values = np.frombuffer(raw)
    # every view of ``values`` holds it, so this runs once none is left
    weakref.finalize(values, _keep_spare, raw)
    return values


def param_arena(shapes) -> list[ParamTensor]:
    """Zero tensors of the given shapes, in order, laid end to end in one
    fresh 1-D arena. Its gradient and moment buffers come from ``np.zeros``,
    and its values from ``np.zeros`` or a fresh mapping, so pages nothing
    writes cost no memory; a large arena may take the values of a dropped one
    instead (see SPARE_MIN). The parts' values and the arena's are
    read-only; write them with :func:`writing`."""
    sizes = [math.prod(shape) for shape in shapes]
    arena = ParamTensor(_arena_values(sum(sizes)))
    buffers = (arena.value, arena.grad, arena.moment1, arena.moment2)
    parts, start = [], 0
    for shape, size in zip(shapes, sizes):
        part = ParamTensor(*(buf[start : start + size].reshape(shape) for buf in buffers))
        part.arena = arena
        part.value.flags.writeable = False
        parts.append(part)
        start += size
    arena.value.flags.writeable = False
    return parts


@contextmanager
def writing(tensor: ParamTensor):
    """The one writer of parameter values: yields ``tensor.value`` writable,
    and on exit makes it read-only again if it was and adds one to the
    ``version`` of the tensor's arena (of the tensor itself when it has
    none). Rank nothing inside the block: the version moves when it ends."""
    arena = tensor.arena or tensor
    views = (arena.value,) if tensor is arena else (arena.value, tensor.value)
    frozen = [v for v in views if not v.flags.writeable]
    for v in frozen:
        v.flags.writeable = True
    try:
        yield tensor.value
    finally:
        for v in reversed(frozen):
            v.flags.writeable = False
        arena.version += 1


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


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


class _Pool:
    """``size`` workers for :func:`_spread`; a pool of one has no threads."""

    def __init__(self, size: int):
        # imported here, so a process that never splits does not pay the
        # 0.6 MB of resident memory that the thread machinery takes
        from concurrent.futures import ThreadPoolExecutor

        self.size = size
        self.executor = ThreadPoolExecutor(size) if size > 1 else None


_pool: _Pool | None = None  # made by the first _spread over more than one block


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_forget_pool)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads per BLAS product, read as OpenBLAS reads them at load: the
    first positive of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else one per CPU, and at most one per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), _cpu_count())
    return _cpu_count()


def _workers() -> int:
    """The pool's size: the CPUs this process may run on, shared out among
    the BLAS threads, so that workers and BLAS threads (which spin while they
    wait for work) do not contend for the same CPUs."""
    return max(1, _cpu_count() // _blas_threads())


def _spread(n: int, work, *scratch: tuple[int, ...]) -> None:
    """Call ``work(lo, hi, *buffers)`` over contiguous ranges [lo, hi) that
    cover blocks 0..n-1, one range per worker of the process's pool, and
    return once every range is done, raising the first error. Each range
    gets its own ``np.empty`` buffers of the ``scratch`` shapes, made here,
    so no worker allocates anything large. Writes to parameter values must
    happen inside the caller's :func:`writing` block.

    The ranges depend on the worker count, the blocks do not, so ``work``
    must do each block the same way whichever range holds it. It may call
    only numpy, no tripletrec function: the bench's tracer wraps those and
    is not thread-safe. The pool is made at the first call with ``n > 1``,
    so importing the package or training at a small shape starts no thread.
    """
    global _pool
    if n > 1 and _pool is None:
        _pool = _Pool(_workers())
    k = min(n, _pool.size) if n > 1 else 1
    if k == 1:
        work(0, n, *(np.empty(s) for s in scratch))
        return
    from concurrent.futures import wait

    bounds = [n * i // k for i in range(k + 1)]
    futures = [_pool.executor.submit(work, lo, hi, *(np.empty(s) for s in scratch))
               for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    for f in futures:
        f.result()


def _n_chunks(size: int) -> int:
    return -(-size // ADAM_CHUNK)


def _zero_chunks(flat: Array, lo: int, hi: int) -> None:
    flat[lo * ADAM_CHUNK : hi * ADAM_CHUNK].fill(0.0)


def zero_grads(params) -> None:
    """Clear the gradients; the parts of one arena are cleared as the arena,
    its ADAM_CHUNK chunks spread over the worker pool."""
    for p in fuse(params):
        flat = p.grad.reshape(-1)
        _spread(_n_chunks(flat.size), partial(_zero_chunks, flat))


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


# A linear layer whose weight has at least SPLIT_MIN elements runs its
# forward and weight-gradient products as blocks of output rows on the worker
# pool, each block one product into its rows of the output. The bounds below
# keep every row summed as in the single product. With OpenBLAS 0.3.31 on an
# AVX-512 Xeon, a block sums some rows otherwise when it holds one row, or,
# where the output's width is no multiple of 8, when it ends inside a 48-row
# tile or does fewer than 100**3 multiply-adds. tests/test_nn.py::TestSplit
# checks the bits.
SPLIT_MIN = 1 << 20
# The forward splits the input's rows into a power-of-two count of blocks of
# at least SPLIT_ROWS rows, their bounds rounded to multiples of SPLIT_ALIGN.
# Each block packs the whole weight again (about 15 ms at 7560 x 1024 on one
# core), so smaller blocks cost more than a second worker saves.
SPLIT_ROWS = 64
SPLIT_ALIGN = 48
# The weight gradient splits the weight's rows into blocks of the fewest
# multiples of GRAD_ROWS rows that give a block's product SPLIT_MIN
# multiply-adds; the last block takes the rows left over.
GRAD_ROWS = 192


def _forward_bounds(rows: int) -> list[int]:
    k = 1 << max(0, (rows // SPLIT_ROWS).bit_length() - 1)
    step = k * SPLIT_ALIGN
    return [(rows * i + step // 2) // step * SPLIT_ALIGN for i in range(k)] + [rows]


def _grad_bounds(d_in: int, d_out: int, batch: int) -> list[int]:
    step = GRAD_ROWS * -(-SPLIT_MIN // (GRAD_ROWS * d_out * max(batch, 1)))
    return [step * i for i in range(max(1, d_in // step))] + [d_in]


def _matmul_rows(x: Array, w: Array, out: Array, bounds, lo: int, hi: int) -> None:
    for r0, r1 in zip(bounds[lo:hi], bounds[lo + 1 : hi + 1]):
        np.matmul(x[r0:r1], w, out=out[r0:r1])


def _weight_grad_rows(x: Array, d_out: Array, grad: Array, bounds, lo: int, hi: int,
                      scratch: Array) -> None:
    for r0, r1 in zip(bounds[lo:hi], bounds[lo + 1 : hi + 1]):
        grad[r0:r1] += np.matmul(x[:, r0:r1].T, d_out, out=scratch[: r1 - r0])


def linear_forward(x: Array, w: ParamTensor, b: ParamTensor):
    """y = x @ W + b with x (batch, d_in), W (d_in, d_out), b (1, d_out).

    From SPLIT_MIN weight elements, ``x @ W`` runs as one product per block
    of x's rows (see SPLIT_ROWS) on the worker pool."""
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
    if w.value.size < SPLIT_MIN:
        return x @ w.value + b.value, (x, w, b)
    out = np.empty((x.shape[0], w.value.shape[1]))
    bounds = _forward_bounds(x.shape[0])
    _spread(len(bounds) - 1, partial(_matmul_rows, x, w.value, out, bounds))
    out += b.value
    return out, (x, w, b)


def linear_backward(d_out: Array, cache) -> Array:
    linear_param_backward(d_out, cache)
    return d_out @ cache[1].value.T


def linear_param_backward(d_out: Array, cache) -> None:
    """The weight and bias half of :func:`linear_backward`, for a layer whose
    input gradient nothing reads. From SPLIT_MIN weight elements, ``x.T @
    d_out`` is added one block of the weight's rows at a time (see
    GRAD_ROWS) on the worker pool, so the whole product is never formed."""
    x, w, b = cache
    if w.value.size < SPLIT_MIN:
        w.grad += x.T @ d_out
    else:
        bounds = _grad_bounds(*w.value.shape, x.shape[0])
        work = partial(_weight_grad_rows, x, d_out, w.grad, bounds)
        _spread(len(bounds) - 1, work, (bounds[-1] - bounds[-2], d_out.shape[1]))
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
    width = x.shape[1]
    mean = np.add.reduce(x, axis=1, keepdims=True) / width
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / width
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
    width = d_xhat.shape[1]
    # Where the variance sits at the floor the denominator is a constant,
    # so the variance term of the usual layer-norm gradient drops out.
    mean_d = np.add.reduce(d_xhat, axis=1, keepdims=True) / width
    proj = np.add.reduce(d_xhat * xhat, axis=1, keepdims=True) / width
    return (d_xhat - mean_d - above * xhat * proj) / denom


def check_dropout_p(p: float) -> None:
    """Raise ValueError unless p is a dropout probability: 0 <= p < 1 (NaN is not)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")


def dropout_forward(x: Array, p: float, rng, training: bool):
    """Inverted dropout: zero entries with probability p and scale survivors
    by 1/(1-p) during training; at inference the op is the identity.

    ``rng`` is a sequence of numpy generators, or None where nothing is
    drawn (at inference or p == 0). The generators split x's rows into as
    many equal blocks, the b-th drawing block b's mask as it would draw the
    mask of that block alone, so stacked blocks get the masks separate calls
    would. One generator draws the whole mask."""
    check_dropout_p(p)
    if not training or p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in training mode needs generators")
    draws = np.empty(x.shape)
    rows, rest = divmod(x.shape[0], len(rng))
    if rest:
        raise ValueError(f"{x.shape[0]} rows do not split into {len(rng)} equal blocks")
    for b, gen in enumerate(rng):
        gen.random(out=draws[b * rows : (b + 1) * rows])
    mask = (draws >= p) / (1.0 - p)
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


# Adam's moment decay rates (b1, b2) and the epsilon of its denominator.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# Elements per Adam pass: the chunk's slices of the four buffers and the two
# scratch buffers stay in cache.
ADAM_CHUNK = 32768


def _adam_chunks(bufs, coeffs, lo: int, hi: int, scratch_a: Array, scratch_b: Array) -> None:
    """Adam over chunks lo..hi-1 of the flat (value, grad, m, v) buffers."""
    lr, b1, b2, eps, c1, c2 = coeffs
    for start in range(lo * ADAM_CHUNK, hi * ADAM_CHUNK, ADAM_CHUNK):
        value, g, m, v = (buf[start : start + ADAM_CHUNK] for buf in bufs)
        a, b = scratch_a[: g.size], scratch_b[: g.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        np.square(g, out=a)
        a *= 1.0 - b2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        value -= a


def adam_step(params, lr: float = 1e-3, step: int = 1) -> None:
    """One Adam update with bias correction, in place, with ADAM_BETAS and
    ADAM_EPS. ``step`` is 1-based.

    The parts of one arena are updated as the arena (see :func:`fuse`). Each
    tensor is walked ADAM_CHUNK elements at a time with in-place ufuncs and
    two scratch buffers per worker, no full-size temporaries, in the
    operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    value -= lr*(m/c1) / (sqrt(v/c2) + eps), so the result is bit-identical
    to that formula evaluated tensor by tensor. The chunks are spread over
    the worker pool, each worker taking a contiguous range of them, and the
    arena's ``version`` moves once, after every chunk is done. Gradients are
    left untouched; the caller zeroes them between steps.
    """
    if step < 1:
        raise ValueError(f"adam_step: step is 1-based, got {step}")
    b1, b2 = ADAM_BETAS
    coeffs = (lr, b1, b2, ADAM_EPS, 1.0 - b1 ** step, 1.0 - b2 ** step)
    for p in fuse(params):
        with writing(p) as values:
            bufs = [buf.reshape(-1) for buf in (values, p.grad, p.moment1, p.moment2)]
            n = min(ADAM_CHUNK, values.size)
            _spread(_n_chunks(values.size), partial(_adam_chunks, bufs, coeffs), (n,), (n,))


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


def _write_entry(p: ParamTensor, j: int, x) -> None:
    """Set entry ``j`` of ``p.value`` in row-major order, through :func:`writing`."""
    with writing(p) as value:
        value.reshape(-1)[j] = x


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
            _write_entry(p, j, orig + h)
            lo_plus = float(f())
            _write_entry(p, j, orig - h)
            lo_minus = float(f())
            _write_entry(p, j, orig)
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
