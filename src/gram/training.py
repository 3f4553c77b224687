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
cuts the list once into SHARDS = 2 runs of consecutive chunks (shard_cut):
shard 0 runs in the training process, shard 1 in a child process forked
for the batch, which sees the current parameters by copy-on-write, writes
its leaf gradients into a shared buffer and pipes back its chunk NLLs and
counters.  The parent adds shard 1's gradients to its own.  With one CPU
the parent computes shard 1 itself, from no gradient, and combines it by
the same rule, so the results do not depend on the number of CPUs.
"""
from __future__ import annotations

import functools
import json
import math
import mmap
import os
import pickle
import signal
import struct
import sys
import warnings
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from . import graphs as G
from .model import Model, ModelConfig, OrderedGraph, StepCounters
from .optim import adam_step, clip_global_norm
from .tensor import Tape


class SkipGraph(Exception):
    """Graph has no steps beyond the seed region; contributes no loss."""


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
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise TrainError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise TrainError(f"grad_clip must be finite and >= 0 (0 turns clipping off), "
                             f"got {self.grad_clip}")

    def to_json_obj(self) -> dict:
        return {"epochs": self.epochs, "batch_size": self.batch_size, "lr": self.lr,
                "seed": self.seed, "resample_orderings": self.resample_orderings,
                "grad_clip": self.grad_clip}

    @staticmethod
    def from_json_obj(obj) -> "TrainConfig":
        return TrainConfig(**obj)


# Prefix nodes (the sum of s over a chunk's steps) that one batched pass
# evaluates.  At the default model size a chunk's tape keeps about 90 KB per
# prefix node, the arrays that backward reads: about 23 MB for a full chunk
# of a 49-node grid.
CHUNK_ROWS = 256

# Shards a batch's chunks are cut into; shard 1 runs in a forked child when
# the process may use more than one CPU.
SHARDS = 2


def _steps(model: Model, og: OrderedGraph) -> range:
    seed = model.config.seed_size
    if og.n <= seed:
        raise SkipGraph(f"graph with {og.n} nodes <= seed size {seed}")
    return range(seed, og.n + 1)


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


def chunk_loss(model: Model, og: OrderedGraph, steps):
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


def teacher_forced_loss(model: Model, og: OrderedGraph):
    """Summed negative log-likelihood of all post-seed steps of one graph.

    Returns (scalar loss tensor, StepCounters).  Steps before the seed size
    contribute nothing; the final step scores the stop class on the full
    graph.  Raises SkipGraph when the graph is not larger than the seed.
    """
    losses = []
    counters = StepCounters()
    for steps in step_chunks(_steps(model, og)):
        loss, cnt = chunk_loss(model, og, steps)
        losses.append(T.reshape(loss, (1,)))
        counters.add(cnt)
    return T.sum_along(T.concat(losses, axis=0), 0), counters


def _backward_chunk(model: Model, og: OrderedGraph, steps, weight: float):
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


# The parent frees shard 1's gradient pages as it adds them, a window of at
# least this many bytes at a time.
RELEASE_BYTES = 1 << 20


class _SharedGradients:
    """One shared anonymous mapping, made once per train() call, with a
    view per parameter: a forked child writes its gradients into the views
    and its parent adds them to its own, freeing the pages as it goes."""

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
        """Free the whole pages below byte end, once they make at least
        RELEASE_BYTES beyond those already freed; with no end, free every
        page left.  The next child writes into fresh pages, so between
        batches the buffer holds no memory, in the parent or anywhere else."""
        last = end is None
        if last:
            end = len(self.map)
        else:
            end -= end % mmap.PAGESIZE
            if end - self.freed < RELEASE_BYTES:
                return
        if end > self.freed:
            self.map.madvise(mmap.MADV_REMOVE, self.freed, end - self.freed)
        self.freed = 0 if last else end


class _ShardChild:
    """Shard 1 of a batch, run in a child process forked for it.  The child
    starts from no gradient, writes each leaf gradient into its shared view
    and pipes back (chunk NLLs, StepCounters, names of the parameters left
    without a gradient), or the error it raised; no array is pickled."""

    def __init__(self, model: Model, work, weight: float, shared):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1  # an interrupt ends the child with no result
            try:
                os.close(read)
                with os.fdopen(write, "wb") as f:
                    pickle.dump(self._compute(model, work, weight, shared), f)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.read = read

    @staticmethod
    def _compute(model, work, weight, shared):
        try:
            params = model.parameters()
            for p in params:
                p.tensor.grad = None
            nlls, counters = run_shard(model, work, weight)
            missing = []
            for p, view in zip(params, shared.views):
                if p.tensor.grad is None:
                    missing.append(p.name)
                else:
                    view[...] = p.tensor.grad
            return "done", nlls, counters, missing
        except Exception as exc:  # noqa: BLE001 - reported to the parent, which raises
            return "error", f"{type(exc).__name__}: {exc}"

    def result(self, params, shared):
        """Wait for the child; returns (NLLs, counters, gradients) with None
        for a parameter left without one.  Raises RuntimeError when the
        child failed or died."""
        with os.fdopen(self.read, "rb") as f:
            self.read = None
            blob = f.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not blob:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"training shard 1: the child process ended without a result ({how})")
        msg = pickle.loads(blob)
        if msg[0] == "error":
            raise RuntimeError(f"training shard 1 failed in the child process: {msg[1]}")
        _, nlls, counters, missing = msg
        missing = set(missing)
        return nlls, counters, [None if p.name in missing else view
                                for p, view in zip(params, shared.views)]

    def close(self):
        """Kill and reap a child whose result was not read."""
        if self.read is not None:
            os.close(self.read)
            self.read = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def batch_backward(model: Model, work, weight: float, shared=None):
    """Accumulate the gradient of weight times the loss of every (graph,
    steps) pair of work, cut into two shards by shard_cut.  Shard 1 runs in
    a forked child when shared (a _SharedGradients) is given, else here
    after shard 0, from no gradient; either way its gradients are then added
    to shard 0's.  Returns (the chunks' NLLs in work order, StepCounters)."""
    cut = shard_cut([sum(steps) for _, steps in work])
    head, tail = work[:cut], work[cut:]
    if not tail:
        return run_shard(model, head, weight)
    params = model.parameters()
    if shared is None:
        nlls, counters = run_shard(model, head, weight)
        own = [p.tensor.grad for p in params]
        for p in params:
            p.tensor.grad = None
        tail_nlls, tail_counters = run_shard(model, tail, weight)
        tail_grads = [p.tensor.grad for p in params]
        for p, g in zip(params, own):
            p.tensor.grad = g
    else:
        child = _ShardChild(model, tail, weight, shared)
        try:
            nlls, counters = run_shard(model, head, weight)
            tail_nlls, tail_counters, tail_grads = child.result(params, shared)
        finally:
            child.close()
    # one parameter at a time; the shared pages already added are freed as
    # the merge goes, so the parent never maps all of shard 1's gradients
    for k, (p, g) in enumerate(zip(params, tail_grads)):
        if g is not None:
            if p.tensor.grad is None:
                p.tensor.grad = np.array(g)
            else:
                p.tensor.grad += g
        if shared is not None:
            shared.release(shared.ends[k])
    if shared is not None:
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
          keep_all_checkpoints=False, history_path=None, log=None):
    """Run the full training loop; returns the per-epoch history.

    The model is updated in place.  Given the same seed, dataset, and
    configuration, two runs produce bit-identical parameters and history,
    whether a batch's second shard runs in a forked child (two or more
    usable CPUs) or in this process.  A failed or killed child raises
    RuntimeError.  A non-finite loss or gradient norm raises NonFiniteError
    naming the epoch and the dataset index of the graph (or of the batch's
    graphs).
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
        ogs = []
        for g in usable:
            start = int(rng.integers(g.n))
            ordering = G.bfs_ordering(g, start, rng)
            ogs.append(OrderedGraph(g, ordering, c.radius))
        return ogs

    ogs = sample_orderings()
    workers = min(SHARDS, len(os.sched_getaffinity(0)))
    shared = _SharedGradients(params) if workers > 1 else None
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
            work = [(i, steps) for i in batch for steps in step_chunks(_steps(model, ogs[i]))]
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
        if history_path is not None:
            Path(history_path).write_text(history_to_csv(history))
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
    cfg = json.dumps(model.config.to_json_obj(), sort_keys=True).encode("utf-8")
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
        config = ModelConfig.from_json_obj(cfg_obj)
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
        name = r.take(r.unpack("<H")).decode("utf-8")
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
    state = json.loads(r.take(r.unpack("<I")).decode("utf-8"))
    if not r.at_end():
        raise CheckpointError("trailing bytes after checkpoint payload")
    rng = None
    if state is not None:
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state
    return model, epoch, rng
