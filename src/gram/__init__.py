"""Autoregressive labeled-graph generation with distance-biased graph
attention, synthetic corpus generators, and graph-kernel MMD evaluation.

Importing gram limits BLAS to one thread per process (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS default to 1; a value already set is
kept).  Training runs two processes on two cores, and a multi-threaded BLAS
in each would oversubscribe them.  BLAS reads these variables when numpy
loads, so they take effect only when gram is imported before numpy; a
RuntimeWarning says so when numpy came first and none of them is set.
"""
import os
import sys
import warnings

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(var in os.environ for var in _BLAS_VARS):
    warnings.warn("numpy was imported before gram and none of " + ", ".join(_BLAS_VARS)
                  + " is set, so BLAS may run several threads in each of training's two "
                  "processes and oversubscribe the cores; import gram before numpy, or "
                  "set OPENBLAS_NUM_THREADS=1", RuntimeWarning)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .graphs import GraphError, LabeledGraph, OrderedGraph, bfs_ordering, frontier_starts
from .model import Model, ModelConfig
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .sampler import SeedBank, build_seed_bank, generate_graph
from .datasets import CorpusSpec, corpus_stats, generate_corpus, read_corpus, split_corpus, write_corpus
from .evaluation import EvalReport, evaluate_corpora, gk_mmd2, nspdk_features, statistic_mmd

__version__ = "0.1.0"

__all__ = [
    "GraphError", "LabeledGraph", "OrderedGraph", "bfs_ordering", "frontier_starts",
    "Model", "ModelConfig",
    "TrainConfig", "load_checkpoint", "save_checkpoint", "train",
    "SeedBank", "build_seed_bank", "generate_graph",
    "CorpusSpec", "corpus_stats", "generate_corpus", "read_corpus",
    "split_corpus", "write_corpus",
    "EvalReport", "evaluate_corpora", "gk_mmd2", "nspdk_features", "statistic_mmd",
]
