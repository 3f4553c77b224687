import inspect

import pytest

import gram
from gram import attention, evaluation, graphs, model, optim, tensor

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
]


def test_exports_resolve():
    for name in gram.__all__:
        assert getattr(gram, name) is not None, name


@pytest.mark.parametrize("owner, name", GONE, ids=[name for _, name in GONE])
def test_test_only_names_are_gone(owner, name):
    """Code that only tests called lives under tests/, not in the library."""
    assert not hasattr(owner, name)
    assert not hasattr(gram, name) and name not in gram.__all__


def test_test_only_setter_default_and_import_are_gone():
    assert not hasattr(graphs, "kernels")
    assert tensor.Tensor.requires_grad.fset is None
    max_attend = inspect.signature(attention.context_from_distances).parameters["max_attend"]
    assert max_attend.default is inspect.Parameter.empty
