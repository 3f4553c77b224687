"""Teacher-forced maximum-likelihood training, checkpoint serialization, and
per-epoch instrumentation.

Every step's loss is computed from ground-truth conditioning, so the
steps are independent of each other; the batched edge-attention masking
makes one step's loss identical to deciding its candidates strictly
sequentially.  Training runs the steps of a graph in chunks: runs of
consecutive steps whose prefixes hold at most CHUNK_ROWS nodes together.
A chunk is one batched forward pass (Model.teacher_forced) and one
backward pass on a tape of its own, so peak memory tracks the largest
chunk of a graph, not the sum of its steps.

Because the steps are independent, a batch's gradient is a sum of chunk
gradients.  train() lists a batch's (graph, chunk) pairs in batch order and
cuts the list once into two runs of consecutive chunks (shard_cut).
Shard 1 is one function (_shard_1): from no gradient, it writes its leaf
gradients into a shared buffer and returns its chunk NLLs and counters.
It runs in a child process forked for the batch, which sees the current
parameters by copy-on-write and pipes back what the function returns,
while shard 0 runs in the training process.  With one CPU, a shard 1 too
small to pay for a fork (FORK_MIN_COST) or a failed fork, the training
process runs the same function itself, first.  Either way shard 1's
gradients are then added to shard 0's by one rule, so the results do not
depend on the number of CPUs.
"""
from __future__ import annotations

import functools
import json
import math
import mmap
import os
import struct
import sys
import warnings
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from . import graphs as G
from .model import Model, ModelConfig, StepCounters
from .optim import adam_step, clip_global_norm
from .tensor import Tape
from .workers import Worker


class TrainError(ValueError):
    pass


class NonFiniteError(RuntimeError):
    """A loss or gradient norm became NaN or infinite during training."""


class CheckpointError(ValueError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    resample_orderings: bool = True
    grad_clip: float = 1.0

    def __post_init__(self):
        wrong = G.field_type_errors(self)
        if wrong:
            raise TrainError("; ".join(wrong))
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise TrainError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise TrainError(f"grad_clip must be finite and >= 0 (0 turns clipping off), "
                             f"got {self.grad_clip}")


# Prefix nodes (the sum of s over a chunk's steps) that one batched pass
# evaluates.  The pass computes the chunk's first prefix in full and of each
# later one only the rows the new node reaches (model.Prefixes.dirty), so at
# the default model size a chunk's tape keeps about 65 KB per prefix node of
# a BFS-ordered grid, the arrays that backward reads (90 KB when every row
# was computed): about 16 MB for a full chunk of a 49-node grid.
CHUNK_ROWS = 256

# The estimated cost of shard 1 (its prefix rows times d_model^2) from which
# it runs in a forked child.  Timed on a 2-core VM, one BLAS thread: a fork
# broke even near 1.3e5 (at d_model 16, 260 rows ran 15 % slower forked and
# 710 rows 7-34 % faster; at d_model 32, 130 rows 4-11 % faster), so twice
# that leaves room for a second CPU busy with other work.  A train-grid batch
# (d_model 128, 25- and 49-node grids) costs about 1.2e7.
FORK_MIN_COST = 1 << 18


def step_chunks(steps: range) -> list:
    """The steps cut into runs of consecutive steps (ranges) whose prefix
    sizes, s for step s, sum to at most CHUNK_ROWS; a step larger than that
    is a run of its own."""
    chunks = []
    lo, rows = steps.start, 0
    for s in steps:
        if rows and rows + s > CHUNK_ROWS:
            chunks.append(range(lo, s))
            lo, rows = s, 0
        rows += s
    if rows:
        chunks.append(range(lo, steps.stop))
    return chunks


def chunk_loss(model: Model, og: G.OrderedGraph, steps):
    """Negative log-likelihood of the given steps of one graph, in one
    batched pass: each step's label of the node at position s (the stop
    class when s == n) and, below n, its edges to the candidate positions.
    Returns (scalar loss tensor, StepCounters)."""
    c = model.config
    out = model.teacher_forced(og, steps)
    targets = np.append(og.labels, c.a)[list(steps)]  # the stop class at s == n
    parts = [T.cross_entropy_logits(out.node_logits, targets)]
    if out.edge_logits is not None:
        parts.append(T.cross_entropy_logits(out.edge_logits, out.edge_codes))
    return T.sum_along(T.concat(parts, axis=0), 0), out.counters


def _backward_chunk(model: Model, og: G.OrderedGraph, steps, weight: float):
    # the chunk's tape and loss tensor go out of scope on return
    with Tape() as tape:
        loss, cnt = chunk_loss(model, og, steps)
        tape.backward(T.mul(loss, T.const(weight)))
    return loss.item(), cnt


def shard_cut(rows) -> int:
    """The cut k of a batch's chunks, rows[i] prefix rows each, into the
    shards [:k] and [k:] whose larger one holds the fewest rows; the
    largest such k, so that a single chunk is shard 0 and shard 1 is
    empty."""
    total, tail = sum(rows), 0
    best, cut = total, len(rows)
    for k in range(len(rows) - 1, -1, -1):
        tail += rows[k]
        larger = max(total - tail, tail)
        if larger < best:
            best, cut = larger, k
    return cut


def run_shard(model: Model, work, weight: float):
    """Accumulate the gradient of weight times the loss of each (graph,
    steps) pair of work, in order, one backward pass per chunk.  Returns
    (the chunks' NLLs, summed StepCounters)."""
    nlls, counters = [], StepCounters()
    for og, steps in work:
        nll, cnt = _backward_chunk(model, og, steps, weight)
        nlls.append(nll)
        counters.add(cnt)
    return nlls, counters


class _SharedGradients:
    """One shared anonymous mapping, made once per train() call, with a
    view per parameter: shard 1 writes its gradients into the views, in a
    forked child or in this process, and batch_backward adds them to shard
    0's, freeing the pages as it goes."""

    def __init__(self, params):
        sizes = [p.data.size for p in params]
        self.map = mmap.mmap(-1, 8 * sum(sizes))
        flat = np.frombuffer(self.map, dtype=np.float64)
        offsets = np.cumsum([0] + sizes)
        self.views = [flat[lo:hi].reshape(p.data.shape)
                      for p, lo, hi in zip(params, offsets, offsets[1:])]
        self.ends = [8 * int(hi) for hi in offsets[1:]]  # byte end of each view
        self.freed = 0  # the pages below this byte are free

    def release(self, end=None):
        """Free the whole pages below byte end not yet freed; with no end,
        free every page left.  The next shard 1 writes into fresh pages, so
        between batches the buffer holds no memory, in the parent or
        anywhere else."""
        last = end is None
        end = len(self.map) if last else end - end % mmap.PAGESIZE
        if end > self.freed:
            self.map.madvise(mmap.MADV_REMOVE, self.freed, end - self.freed)
        self.freed = 0 if last else end


def _shard_1(model: Model, work, weight: float, views):
    """Shard 1 of a batch, from no gradient: run work, move each leaf
    gradient into its view of a _SharedGradients and clear it.  Returns
    (chunk NLLs, StepCounters, names of the parameters left without a
    gradient), which a forked child sends back with no array pickled."""
    nlls, counters = run_shard(model, work, weight)
    missing = []
    for p, view in zip(model.parameters(), views):
        if p.tensor.grad is None:
            missing.append(p.name)
        else:
            view[...] = p.tensor.grad
            p.tensor.grad = None
    return nlls, counters, missing


def batch_backward(model: Model, work, weight: float, shared):
    """Accumulate the gradient of weight times the loss of every (graph,
    steps) pair of work, cut into two shards by shard_cut, starting from no
    gradient (ValueError names a parameter that holds one).  Shard 1 runs
    in a forked child when the process may run on two CPUs and its cost
    reaches FORK_MIN_COST, else (or when the fork fails) here, first; either
    way its gradients land in shared (a _SharedGradients) and are then
    added to shard 0's.  Returns (the chunks' NLLs in work order,
    StepCounters)."""
    params = model.parameters()
    for p in params:
        if p.tensor.grad is not None:
            raise ValueError(f"batch_backward: parameter {p.name!r} already holds a gradient")
    rows = [sum(steps) for _, steps in work]
    cut = shard_cut(rows)
    head, tail = work[:cut], work[cut:]
    if not tail:
        return run_shard(model, head, weight)
    cost = sum(rows[cut:]) * model.config.d_model ** 2
    child = None
    if len(os.sched_getaffinity(0)) > 1 and cost >= FORK_MIN_COST:
        try:
            child = Worker("training shard 1", lambda worker: worker.put(
                _shard_1(model, tail, weight, shared.views)))
        except OSError:  # no second process: shard 1 runs here
            pass
    if child is None:
        tail_nlls, tail_counters, missing = _shard_1(model, tail, weight, shared.views)
        nlls, counters = run_shard(model, head, weight)
    else:
        try:
            nlls, counters = run_shard(model, head, weight)
            tail_nlls, tail_counters, missing = child.get()
        finally:
            child.close()
    # one parameter at a time; the shared pages already added are freed as
    # the merge goes, so it never holds a second copy of shard 1's gradients
    missing = set(missing)
    for p, view, end in zip(params, shared.views, shared.ends):
        if p.name not in missing:
            if p.tensor.grad is None:
                p.tensor.grad = np.array(view)
            else:
                p.tensor.grad += view
        shared.release(end)
    shared.release()
    counters.add(tail_counters)
    return nlls + tail_nlls, counters


@dataclass
class EpochStats:
    epoch: int
    mean_nll: float
    mean_alpha: float
    mean_beta: float


HISTORY_HEADER = "epoch,mean_nll,mean_alpha,mean_beta"


def history_to_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        lines.append(f"{row.epoch},{row.mean_nll!r},{row.mean_alpha!r},{row.mean_beta!r}")
    return "\n".join(lines) + "\n"


def train(dataset, model: Model, tconfig: TrainConfig, checkpoint_dir=None,
          keep_all_checkpoints=False, log=None):
    """Run the full training loop; returns the per-epoch history.

    The model is updated in place.  With a checkpoint_dir, every epoch
    writes its checkpoint there and rewrites history.csv, the history so
    far, beside it.  Given the same seed, dataset, and configuration, two
    runs produce bit-identical parameters and history, whether a batch's
    second shard runs in a forked child (two or more usable CPUs and a
    shard that reaches FORK_MIN_COST) or in this process.
    A failed or killed child raises RuntimeError.  A non-finite loss or
    gradient norm raises NonFiniteError naming the epoch and the dataset
    index of the graph (or of the batch's graphs).
    """
    if not dataset:
        raise TrainError("dataset is empty")
    c = model.config
    index = [k for k, g in enumerate(dataset) if g.n > c.seed_size]
    usable = [dataset[k] for k in index]
    if len(usable) < len(dataset):
        warnings.warn(f"skipping {len(dataset) - len(usable)} graphs with "
                      f"<= {c.seed_size} nodes")
    if not usable:
        raise TrainError(f"no graph exceeds the seed size {c.seed_size}")
    rng = np.random.default_rng(tconfig.seed)
    params = model.parameters()
    history = []

    def sample_orderings():
        return [G.random_ordering(g, rng) for g in usable]

    ogs = sample_orderings()
    shared = _SharedGradients(params)
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    for epoch in range(1, tconfig.epochs + 1):
        if tconfig.resample_orderings and epoch > 1:
            ogs = sample_orderings()
        order = rng.permutation(len(usable))
        total_nll = 0.0
        agg = StepCounters()
        for lo in range(0, len(order), tconfig.batch_size):
            batch = order[lo:lo + tconfig.batch_size]
            work = [(i, steps) for i in batch
                    for steps in step_chunks(range(c.seed_size, ogs[i].n + 1))]
            nlls, cnt = batch_backward(model, [(ogs[i], steps) for i, steps in work],
                                       1.0 / len(batch), shared)
            agg.add(cnt)
            graph_nll = dict.fromkeys(batch, 0.0)
            for (i, _), nll in zip(work, nlls):
                graph_nll[i] += nll
            for i, nll in graph_nll.items():
                if not np.isfinite(nll):
                    raise NonFiniteError(f"epoch {epoch}: non-finite loss {nll} "
                                         f"on graph {index[i]}")
                total_nll += nll
            norm = clip_global_norm(params, tconfig.grad_clip)
            if not np.isfinite(norm):
                raise NonFiniteError(f"epoch {epoch}: non-finite gradient norm {norm} "
                                     f"on the batch of graphs {sorted(index[i] for i in batch)}")
            adam_step(params, lr=tconfig.lr)
        steps = max(agg.edge_steps, 1)
        stats = EpochStats(epoch, total_nll / len(usable),
                           agg.alpha_sum / steps, agg.beta_sum / steps)
        history.append(stats)
        if log is not None:
            log(f"epoch {stats.epoch}: nll={stats.mean_nll:.4f} "
                f"alpha={stats.mean_alpha:.2f} beta={stats.mean_beta:.2f}")
        if ckpt_dir is not None:
            name = f"checkpoint_epoch{epoch:04d}.bin" if keep_all_checkpoints else "checkpoint.bin"
            save_checkpoint(ckpt_dir / name, model, epoch, rng)
            (ckpt_dir / "history.csv").write_text(history_to_csv(history))
    return history


# ---------------------------------------------------------------------------
# checkpoint format: 8-byte magic, u32 version, length-prefixed config JSON,
# parameter table (length-prefixed name, rank, u32 extents, little-endian
# f64 values, then u64 step count and the two moment arrays), u32 epoch,
# length-prefixed rng-state JSON.  Version 2 stores each attention table
# head-batched as one entry X.wq of shape (H, ...).
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"GRAMCKPT"
CHECKPOINT_VERSION = 2


def save_checkpoint(path, model: Model, epoch: int, rng=None):
    """Write a checkpoint atomically: the bytes go to a temporary file in the
    same directory, which then replaces path.  A failure part-way leaves
    any previous file at path untouched and removes the temporary file.
    The file is synced before the rename and its directory after it, so a
    crash once this returns keeps the new checkpoint."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            _write_checkpoint(f, model, epoch, rng)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_checkpoint(f, model: Model, epoch: int, rng):
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = json.dumps(G.config_json(model.config), sort_keys=True).encode("utf-8")
    f.write(struct.pack("<I", len(cfg)) + cfg)
    params = model.parameters()
    f.write(struct.pack("<I", len(params)))
    for p in params:
        name = p.name.encode("utf-8")
        f.write(struct.pack("<H", len(name)) + name)
        arr = p.tensor.data
        f.write(struct.pack("<B", arr.ndim))
        for ext in arr.shape:
            f.write(struct.pack("<I", ext))
        _write_values(f, arr)
        f.write(struct.pack("<Q", p.step))
        _write_values(f, p.m)
        _write_values(f, p.v)
    f.write(struct.pack("<I", epoch))
    state = rng.bit_generator.state if rng is not None else None
    rj = json.dumps(state, sort_keys=True).encode("utf-8")
    f.write(struct.pack("<I", len(rj)) + rj)


def _write_values(f, arr: np.ndarray):
    """Write arr as little-endian float64 values in C order, from its own
    buffer when it already is that, else from a converted copy."""
    if arr.dtype != np.dtype("<f8") or not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr, dtype="<f8")
    f.write(memoryview(arr))


def _from_little_endian(arr: np.ndarray):
    """Turn the little-endian float64 bytes read into arr into its values."""
    if sys.byteorder == "big":
        arr.byteswap(inplace=True)


class _Reader:
    """Reads a checkpoint from an open file, as many bytes as each field
    needs, straight into the parameters where it reads values, so loading
    holds no copy of an entry's bytes."""

    def __init__(self, f):
        self.f = f

    def take(self, k: int) -> bytes:
        out = self.f.read(k)
        if len(out) != k:
            raise CheckpointError("truncated checkpoint file")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def read_values(self, arr: np.ndarray):
        """Fill arr (C-contiguous float64) with the next arr.size values."""
        if self.f.readinto(memoryview(arr)) != arr.nbytes:
            raise CheckpointError("truncated checkpoint file")
        _from_little_endian(arr)

    def skip(self, k: int) -> int:
        """Step over the next k bytes; returns their offset.  A file that
        ends before them fails the next read."""
        at = self.f.tell()
        self.f.seek(k, os.SEEK_CUR)
        return at

    def at_end(self) -> bool:
        return not self.f.read(1)


class _MomentFile:
    """The open checkpoint file that holds a loaded model's unread moments.
    Each parameter's two moment arrays, adjacent in the file, are fetched
    on first use with one positioned read of the descriptor, never of the
    path, so a file that later replaces the path is never read.  Only the
    parameters' pending fetches refer to this object, so the file closes
    once none is left: after the last fetch, or when the model is
    dropped."""

    def __init__(self, f):
        self.fd = f.fileno()
        weakref.finalize(self, f.close)

    def fetch(self, name: str, offset: int, m: np.ndarray, v: np.ndarray):
        if os.preadv(self.fd, [m, v], offset) != m.nbytes + v.nbytes:
            raise CheckpointError(f"truncated checkpoint file: it ends before "
                                  f"the moments of {name!r}")
        _from_little_endian(m)
        _from_little_endian(v)


def load_checkpoint(path):
    """Rebuild (model, epoch, rng) from a checkpoint file.

    The model configuration is embedded; stored tensor shapes must match the
    shapes that configuration implies.  The file is read one entry at a
    time: each parameter's values and step go into the model, and its two
    Adam moment arrays, two thirds of the file, are stepped over.  The
    epoch and generator state after the last entry are read and nothing may
    follow them, so a truncated file or trailing bytes fail here.

    The moments stay on disk, and the file stays open, until they are
    first read: the first read of a parameter's m or v, by adam_step or
    save_checkpoint, fetches both from the open file.  So a model that only
    runs (sampling, say) holds its weights alone.  The file closes once
    every parameter's moments are read, or when the model is dropped.
    Replacing or deleting the path after loading is safe, since the open
    file is read and not the path; truncating the file in place is not, and
    a moment read that finds it short raises CheckpointError.
    """
    f = open(path, "rb")
    try:
        return _read_checkpoint(_Reader(f))
    except BaseException:
        f.close()
        raise


def _read_checkpoint(r: _Reader):
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version}, expected {CHECKPOINT_VERSION}")
    try:
        cfg_obj = json.loads(r.take(r.unpack("<I")).decode("utf-8"))
        config = ModelConfig(**cfg_obj)
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad embedded config: {exc}") from exc
    model = Model._unset(config)  # the count and name checks below see every entry written
    entries = dict(model.params)
    count = r.unpack("<I")
    if count != len(entries):
        raise CheckpointError(f"parameter count {count} does not match config "
                              f"({len(entries)} expected)")
    moments = _MomentFile(r.f)
    for _ in range(count):
        name = r.take(r.unpack("<H")).decode("utf-8", "replace")  # bad bytes: no such name
        rank = r.unpack("<B")
        shape = tuple(r.unpack("<I") for _ in range(rank))
        if name not in entries:
            raise CheckpointError(f"unknown or repeated parameter {name!r}")
        p = entries.pop(name)
        if shape != p.data.shape:
            raise CheckpointError(f"parameter {name!r} has shape {shape}, "
                                  f"config implies {p.data.shape}")
        r.read_values(p.tensor.data)
        p.step = r.unpack("<Q")
        p.defer_moments(functools.partial(moments.fetch, name, r.skip(16 * p.data.size)))
    epoch = r.unpack("<I")
    state = r.take(r.unpack("<I"))
    if not r.at_end():
        raise CheckpointError("trailing bytes after checkpoint payload")
    rng = None
    try:
        state = json.loads(state.decode("utf-8"))
        if state is not None:
            rng = np.random.default_rng(0)
            rng.bit_generator.state = state
    except (ValueError, TypeError, KeyError) as exc:  # not UTF-8 or JSON, or no generator state
        raise CheckpointError(f"bad generator state: {exc}") from exc
    return model, epoch, rng
