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
"""
from __future__ import annotations

import json
import os
import struct
import warnings
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
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise TrainError("epochs, batch_size must be >= 1 and lr > 0")

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
    targets = [int(og.labels[s]) if s < og.n else c.a for s in steps]
    parts = [T.cross_entropy_logits(out.node_logits, _onehot(targets, c.a + 1))]
    if out.edge_logits is not None:
        parts.append(T.cross_entropy_logits(out.edge_logits, _onehot(out.edge_codes, c.b + 1)))
    return T.sum_along(T.concat(parts, axis=0), 0), out.counters


def _onehot(codes, width: int) -> np.ndarray:
    out = np.zeros((len(codes), width))
    out[np.arange(len(codes)), codes] = 1.0
    return out


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


def backward_per_chunk(model: Model, og: OrderedGraph, weight: float = 1.0):
    """Accumulate the gradient of weight * teacher_forced_loss(model, og)
    with one tape and one backward pass per chunk of steps, so only one
    chunk's records are alive at a time.  Returns (summed loss,
    StepCounters)."""
    total = 0.0
    counters = StepCounters()
    for steps in step_chunks(_steps(model, og)):
        nll, cnt = _backward_chunk(model, og, steps, weight)
        total += nll
        counters.add(cnt)
    return total, counters


def _backward_chunk(model: Model, og: OrderedGraph, steps, weight: float):
    # the chunk's tape and loss tensor go out of scope on return
    with Tape() as tape:
        loss, cnt = chunk_loss(model, og, steps)
        tape.backward(T.mul(loss, T.const(weight)))
    return loss.item(), cnt


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
    configuration, two runs produce bit-identical parameters and history.
    A non-finite loss or gradient norm raises NonFiniteError naming the
    epoch and the dataset index of the graph (or of the batch's graphs).
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
            inv = 1.0 / len(batch)
            for i in batch:
                nll, cnt = backward_per_chunk(model, ogs[i], inv)
                if not np.isfinite(nll):
                    raise NonFiniteError(f"epoch {epoch}: non-finite loss {nll} "
                                         f"on graph {index[i]}")
                total_nll += nll
                agg.add(cnt)
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
# head-batched as one entry X.wq of shape (H, ...); version 1 stored one
# entry per head, X.h{i}.wq, and still loads.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"GRAMCKPT"
CHECKPOINT_VERSION = 2
HEAD_TABLES = ("wq", "wk", "wv", "bq", "bk", "bv")


def save_checkpoint(path, model: Model, epoch: int, rng=None):
    """Write a checkpoint atomically: the bytes go to a temporary file in the
    same directory, which then replaces path.  A failure part-way leaves
    any previous file at path untouched and removes the temporary file."""
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
        f.write(arr.astype("<f8").tobytes())
        f.write(struct.pack("<Q", p.step))
        f.write(p.m.astype("<f8").tobytes())
        f.write(p.v.astype("<f8").tobytes())
    f.write(struct.pack("<I", epoch))
    state = rng.bit_generator.state if rng is not None else None
    rj = json.dumps(state, sort_keys=True).encode("utf-8")
    f.write(struct.pack("<I", len(rj)) + rj)


class _Reader:
    """Reads a checkpoint from an open file, as many bytes as each field
    needs, so loading never holds more than one entry's bytes besides the
    parameters."""

    def __init__(self, f):
        self.f = f

    def take(self, k: int) -> bytes:
        out = self.f.read(k)
        if len(out) != k:
            raise CheckpointError("truncated checkpoint file")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def at_end(self) -> bool:
        return not self.f.read(1)


def _stored_entries(model: Model, version: int) -> dict:
    """Stored parameter name -> (parameter, head index or None) of a file
    of the given version."""
    entries = {}
    for name, p in model.params.items():
        prefix, _, table = name.rpartition(".")
        if version == 1 and table in HEAD_TABLES:
            for h in range(model.config.heads):
                entries[f"{prefix}.h{h}.{table}"] = (p, h)
        else:
            entries[name] = (p, None)
    return entries


def load_checkpoint(path):
    """Rebuild (model, epoch, rng) from a checkpoint file of version 1 or 2.

    The model configuration is embedded; stored tensor shapes must match the
    shapes that configuration implies.  A version-1 file's per-head entries
    are stacked into the head-batched parameters; the heads of one table
    must all be present and agree on their step count.  The file is read
    one entry at a time into the parameters.
    """
    with open(path, "rb") as f:
        return _read_checkpoint(_Reader(f))


def _read_checkpoint(r: _Reader):
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.unpack("<I")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointVersionError(
            f"checkpoint format version {version}, expected {CHECKPOINT_VERSION}")
    try:
        cfg_obj = json.loads(r.take(r.unpack("<I")).decode("utf-8"))
        config = ModelConfig.from_json_obj(cfg_obj)
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad embedded config: {exc}") from exc
    model = Model._unset(config)  # the count and name checks below see every entry written
    entries = _stored_entries(model, version)
    count = r.unpack("<I")
    if count != len(entries):
        raise CheckpointError(f"parameter count {count} does not match config "
                              f"({len(entries)} expected)")
    steps = {}
    for _ in range(count):
        name = r.take(r.unpack("<H")).decode("utf-8")
        rank = r.unpack("<B")
        shape = tuple(r.unpack("<I") for _ in range(rank))
        if name not in entries:
            raise CheckpointError(f"unknown or repeated parameter {name!r}")
        p, head = entries.pop(name)
        key = ... if head is None else head
        want = p.tensor.data[key].shape
        if shape != want:
            raise CheckpointError(f"parameter {name!r} has shape {shape}, config implies {want}")
        size = int(np.prod(shape)) if shape else 1
        p.tensor.data[key] = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape)
        steps.setdefault(p.name, set()).add(r.unpack("<Q"))
        p.m[key] = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape)
        p.v[key] = np.frombuffer(r.take(8 * size), dtype="<f8").reshape(shape)
    for name, counts in steps.items():
        if len(counts) > 1:
            raise CheckpointError(f"the heads of {name!r} disagree on their step "
                                  f"count: {sorted(counts)}")
        model.params[name].step = counts.pop()
    epoch = r.unpack("<I")
    state = json.loads(r.take(r.unpack("<I")).decode("utf-8"))
    if not r.at_end():
        raise CheckpointError("trailing bytes after checkpoint payload")
    rng = None
    if state is not None:
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state
    return model, epoch, rng
