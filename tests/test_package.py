import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gram
from gram import (attention, cli, datasets, evaluation, graphs, kernels, model, optim, sampler,
                  tensor, training)

GONE = [
    (tensor, "finite_difference_check"), (tensor, "FiniteDifferenceReport"),
    (tensor.Tensor, "__add__"), (tensor.Tensor, "__sub__"),
    (tensor.Tensor, "__mul__"), (tensor.Tensor, "__matmul__"),
    (model, "StepOutput"), (model.Model, "teacher_forced_step"),
    (optim.Parameter, "grad_array"), (optim, "global_grad_norm"),
    (attention.AttentionContext, "additive_mask"),
    (graphs, "shortest_paths"), (graphs, "graph_statistics"), (graphs, "GraphStats"),
    (graphs.LabeledGraph, "edge_label_map"),
    (evaluation, "_featurize_all"),
    (attention, "_Derived"), (attention.AttentionContext, "derived"),
    (attention.AttentionContext, "grids"), (attention.AttentionContext, "query_rows"),
    (attention.AttentionContext, "key_rows"), (graphs.OrderedGraph, "edge_label_codes"),
    (training, "_onehot"), (tensor, "ONEHOT_ROWS"), (datasets, "community_graph"),
    (model.Prefixes, "of"), (model.Model, "node_distribution"),
    (model, "Prefix"), (model, "build_prefix"), (graphs.OrderedGraph, "prefix"),
    (attention.Segments, "grid"), (model.TeacherForced, "candidates"),
    (evaluation, "_stat_histograms"),
    (evaluation, "mmd_squared"), (evaluation, "nspdk_kernel"), (evaluation, "orbit_counts"),
    (kernels, "orbit_counts_matrix"), (evaluation, "graph_fingerprint"),
    (evaluation, "graph_fingerprints"), (evaluation, "uniqueness_novelty"),
    (graphs.LabeledGraph, "adjacency_matrix"),
    (tensor, "gather_last"), (tensor, "_wrap"), (attention, "context_from_distances"),
    (attention.GraphAttentionParams, "cap"),
    (graphs, "NodeOrdering"), (graphs, "apply_ordering"),
    (training, "SHARDS"), (training, "RELEASE_BYTES"),
    (cli, "_merge"), (evaluation, "_unique_counts"), (model.ModelConfig, "from_json_obj"),
    (training.TrainConfig, "from_json_obj"), (datasets.CorpusSpec, "from_json_obj"),
    (training, "teacher_forced_loss"), (gram, "teacher_forced_loss"), (training, "SkipGraph"),
    (training, "_steps"), (model.ModelConfig, "to_json_obj"),
    (training.TrainConfig, "to_json_obj"), (datasets.CorpusSpec, "to_json_obj"),
    (evaluation, "_subsample_draws"), (evaluation, "_drawn"),
    (evaluation, "_gaussian_emd_gram"), (evaluation, "_cell_entries"),
]

# parameters that only one value ever reached, now constants or fixed behaviour
REMOVED_PARAMETERS = [
    (tensor.softmax, "additive_mask"), (tensor.layer_norm, "eps"),
    (optim.adam_step, "betas"), (optim.adam_step, "eps"),
    (evaluation.gk_mmd2, "r_max"), (evaluation.gk_mmd2, "d_max"),
    (attention.attend, "on_empty"), (attention.g_multi_head, "on_empty"),
    (training.train, "history_path"),
]


def test_exports_resolve():
    for name in gram.__all__:
        assert getattr(gram, name) is not None, name


@pytest.mark.parametrize("owner, name", GONE, ids=[name for _, name in GONE])
def test_test_only_names_are_gone(owner, name):
    """Code that only tests called lives under tests/, not in the library."""
    assert not hasattr(owner, name)
    assert not hasattr(gram, name) and name not in gram.__all__


@pytest.mark.parametrize("fn, name", REMOVED_PARAMETERS,
                         ids=[f"{fn.__name__}.{name}" for fn, name in REMOVED_PARAMETERS])
def test_single_value_parameters_are_gone(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_test_only_setter_default_and_import_are_gone():
    assert not hasattr(graphs, "kernels")
    assert tensor.Tensor.requires_grad.fset is None
    assert inspect.signature(optim.adam_step).parameters["lr"].default is inspect.Parameter.empty
    assert "orderings_per_graph" not in inspect.signature(sampler.build_seed_bank).parameters


def test_batch_backward_always_takes_the_shared_buffer():
    """Shard 1 writes into a _SharedGradients whether or not a child runs
    it, so batch_backward has no form without one."""
    shared = inspect.signature(training.batch_backward).parameters["shared"]
    assert shared.default is inspect.Parameter.empty


def test_forward_path_takes_only_batches():
    """The forward path has one calling convention: a Prefixes batch, its
    Segments layouts and (K, nq, nk) attention contexts, with no default
    layout, no single-prefix form and no option that only tests set."""
    def params(fn):
        return inspect.signature(fn).parameters

    assert params(model.Model.graph_pool)["nodes"].default is inspect.Parameter.empty
    context = params(attention.AttentionContext)
    assert all(context[name].default is inspect.Parameter.empty for name in ("queries", "keys"))
    assert "keepdims" not in params(tensor.sum_along)
    rows = attention.Segments([2])
    ctx = attention.AttentionContext(np.zeros((1, 2, 2), dtype=np.int64),
                                     np.ones((1, 2, 2), dtype=bool), rows, rows)
    assert not hasattr(ctx, "dist_idx") and ctx.dist.shape == ctx.allowed.shape == (1, 2, 2)


def test_ordered_graph_keeps_no_per_step_lists():
    g = graphs.LabeledGraph.create(3, [0, 0, 0], [(0, 1, 0), (1, 2, 0)], 1, 1)
    og = graphs.OrderedGraph(g, [0, 1, 2])
    assert not hasattr(og, "lower") and not hasattr(og, "_later")
    assert not hasattr(og, "graph")  # the arrays alone, no LabeledGraph copy
    # the radius is the model config's alone, and a batch keeps no per-prefix objects
    assert not hasattr(og, "radius")
    assert not hasattr(model.Prefixes(og.labels, og.edges, [1, 3], 2), "items")


def gram_imports(module) -> set:
    """The gram modules that a gram module imports: a relative import by
    its module name, an absolute one of gram by its full name."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gram":
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "gram"}
    return names


def test_graph_and_dataset_layers_need_no_model_stack():
    """graphs.py imports nothing of gram and datasets.py only graphs, so the
    dataset and stats paths relabel graphs without the model stack."""
    assert gram_imports(graphs) == set()
    assert gram_imports(datasets) == {"graphs"}
    assert gram_imports(model) >= {"graphs", "kernels"}  # both relative forms are seen


ROOT = Path(__file__).resolve().parent.parent


def unread_imports(path: Path) -> list:
    """The names a module imports and never reads, as (line, name).  A
    `from __future__` import, an import marked `noqa: F401` (one made for
    its side effect) and, in gram's __init__, the names of gram.__all__
    are exempt."""
    source = path.read_text("utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__" \
                and "noqa: F401" not in lines[node.lineno - 1]:
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.resolve() == Path(gram.__file__).resolve():
        read |= set(gram.__all__)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    """Checked over every module of src/gram, tests and benchmarks."""
    modules = [p for d in ("src/gram", "tests", "benchmarks")
               for p in sorted((ROOT / d).glob("*.py"))]
    assert len(modules) > 25
    unread = {str(p.relative_to(ROOT)): unread_imports(p) for p in modules}
    assert {path: names for path, names in unread.items() if names} == {}


def calls_of(node, name: str) -> int:
    """The calls under an AST node of a function named name, called bare
    or as an attribute (G.name)."""
    return sum(isinstance(c, ast.Call) and name in (getattr(c.func, "id", None),
                                                    getattr(c.func, "attr", None))
               for c in ast.walk(node))


def test_only_random_ordering_draws_a_bfs_ordering():
    """Training, the seed bank and the corpus statistics draw an ordering
    through graphs.random_ordering, the one caller of bfs_ordering in gram."""
    trees = {path.stem: ast.parse(path.read_text("utf-8"))
             for path in sorted((ROOT / "src/gram").glob("*.py"))}
    callers = {module: calls_of(tree, "bfs_ordering") for module, tree in trees.items()}
    assert {module: n for module, n in callers.items() if n} == {"graphs": 1}
    (drawer,) = [fn for fn in ast.walk(trees["graphs"])
                 if isinstance(fn, ast.FunctionDef) and fn.name == "random_ordering"]
    assert calls_of(drawer, "bfs_ordering") == 1
    for module in ("training", "sampler", "datasets"):
        assert calls_of(trees[module], "random_ordering") == 1, module


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_import(first: str, **env_vars):
    """(stderr, BLAS thread variables) of a fresh interpreter that imports
    `first` (gram or numpy) and then the other, started with env_vars set
    and the other BLAS variables unset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = str(Path(gram.__file__).resolve().parent.parent)
    second = "numpy" if first == "gram" else "gram"
    code = (f"import json, os, {first}, {second}; "
            f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stderr, json.loads(out.stdout)


def blas_settings_after_import(**env_vars) -> dict:
    """The BLAS thread variables that a fresh interpreter sees after
    `import gram`, started with env_vars set and the others unset."""
    return fresh_import("gram", **env_vars)[1]


def test_import_limits_blas_to_one_thread_when_unset():
    assert blas_settings_after_import() == {var: "1" for var in BLAS_VARS}


def test_import_keeps_user_blas_settings():
    got = blas_settings_after_import(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="4")
    assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}


def test_numpy_first_with_blas_unset_warns():
    stderr, _ = fresh_import("numpy")
    assert stderr.count("RuntimeWarning") == 1
    assert "import gram before numpy" in stderr and "OPENBLAS_NUM_THREADS=1" in stderr


def test_numpy_first_with_blas_set_is_silent():
    assert fresh_import("numpy", OPENBLAS_NUM_THREADS="1")[0] == ""


def test_gram_first_is_silent():
    assert fresh_import("gram")[0] == ""


def test_evaluation_leaves_numpy_ma_unloaded():
    """feature_mmd2 numbers its keys through np.unique's sort path
    (return_inverse), which, unlike the hash path, does not import numpy.ma."""
    code = ("import sys, gram; from gram import datasets as D, evaluation as E; "
            "gs = D.generate_corpus(D.CorpusSpec('grid', 4, 9, 16, 1)); "
            "E.evaluate_corpora(gs[:2], gs[2:], None); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(gram.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"
