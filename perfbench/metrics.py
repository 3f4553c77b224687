"""Names, units and meaning of every metric the benchmark reports.

End-to-end metrics come from untraced runs.  Per-layer metrics come from a
traced run; layers are named after `gram` modules, `.s` is self time and
`.calls` a call count.  Work in the timed operations is given per graph:
trained on train-grid, generated on sample-grid, evaluated (both corpora)
on eval-grid.  Functions whose work sits in public helpers they call (the
set-up spans, the topology MMDs, uniqueness/novelty and orbit counting)
report their total time, children included; the set-up spans in seconds per
set-up.  `tensor.recorded_mb` is the largest
amount of output data recorded on a tape between two backward passes, and
`attention.score_pairs` counts (query, key) pairs once per head.  Seconds
are scaled to a reference machine speed (see child.py).
"""
from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),          # child start to first timed operation, median of set-ups
    ("graphs_per_s", "graphs/s", "higher"),
    ("graph_s_p50", "s", "lower"),      # median over timed operations of seconds per graph
    ("peak_rss_mb", "MB", "lower"),
)

TRAIN, SAMPLE, EVAL = "train-grid", "sample-grid", "eval-grid"

# name, unit, better, the end-to-end metric it should move (on which workload)
PER_LAYER = (
    ("tensor.backward.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("tensor.ops", "ops/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("tensor.recorded_mb", "MB", "lower", f"peak_rss_mb and graphs_per_s on {TRAIN}"),
    ("attention.attention_sublayer.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}, then {SAMPLE}"),
    ("attention.g_multi_head.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}, then {SAMPLE}"),
    ("attention.g_multi_head.calls", "calls/graph", "lower", f"graphs_per_s on {TRAIN}, then {SAMPLE}"),
    ("attention.score_pairs", "pairs/graph", "lower", f"graphs_per_s on {TRAIN}, then {SAMPLE}"),
    ("attention.allowed_ratio", "ratio", "higher", f"graphs_per_s on {TRAIN}, then {SAMPLE}"),
    ("model.extract_features.s", "s/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("model.graph_convolution.s", "s/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("model.graph_pool.s", "s/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("model.node_logits.s", "s/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("model.edge_logits_teacher.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("model.edge_distribution_step.s", "s/graph", "lower", f"graphs_per_s and graph_s_p50 on {SAMPLE}"),
    ("model.edge_distribution_step.calls", "calls/graph", "lower", f"graphs_per_s and graph_s_p50 on {SAMPLE}"),
    ("model.build_prefix.s", "s/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("model.build_prefix.calls", "calls/graph", "lower", f"graphs_per_s on {TRAIN} and {SAMPLE}"),
    ("kernels.capped_distances.s", "s/graph", "lower", f"graphs_per_s on {EVAL}, then {TRAIN} and {SAMPLE}"),
    ("kernels.capped_distances.calls", "calls/graph", "lower", f"graphs_per_s on {EVAL}, then {TRAIN} and {SAMPLE}"),
    ("kernels.orbit_counts_matrix.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("training.teacher_forced_loss.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("training.save_checkpoint.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("training.edge_decisions", "decisions/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("training.key_pairs", "pairs/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("training.edge_hit_ratio", "ratio", "higher", f"graphs_per_s on {TRAIN}"),
    ("optim.clip_global_norm.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("optim.adam_step.s", "s/graph", "lower", f"graphs_per_s on {TRAIN}"),
    ("sampler.generate_graph.s", "s/graph", "lower", f"graphs_per_s and graph_s_p50 on {SAMPLE}"),
    ("sampler.build_seed_bank.s", "s", "lower", f"setup_s on {SAMPLE}"),
    ("sampler.decision_ratio", "ratio", "higher", f"graphs_per_s and graph_s_p50 on {SAMPLE}"),
    ("evaluation.nspdk_features.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.nspdk_features.calls", "calls/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.nspdk_kernel.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.nspdk_kernel.calls", "calls/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.kernel_unique_ratio", "ratio", "higher", f"graphs_per_s on {EVAL}"),
    ("evaluation.statistic_mmd.degree.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.statistic_mmd.clustering.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.statistic_mmd.orbit.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("evaluation.uniqueness_novelty.s", "s/graph", "lower", f"graphs_per_s on {EVAL}"),
    ("datasets.generate_corpus.s", "s", "lower", "setup_s on every workload"),
    ("trace_overhead_ratio", "ratio", "lower", "none: traced over untraced seconds per operation"),
)

SETUP_SPANS = {"sampler.build_seed_bank", "datasets.generate_corpus"}
TOTAL_TIME_SPANS = SETUP_SPANS | {"evaluation.uniqueness_novelty", "kernels.orbit_counts_matrix"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer, graphs: int, overhead: float, scale: float, setup_scale: float):
    """(values by metric name, names whose code is absent) from a tracer
    that recorded set-up in phase "setup" and `graphs` graphs of timed
    operations in phase "timed".  Seconds are multiplied by the speed
    factors of child.py: `scale` for the timed phase, `setup_scale` for
    set-up."""
    spans, counts = tracer.spans["timed"], tracer.counts["timed"]
    per_graph = lambda x: _ratio(x, graphs)
    stat = lambda s: (per_graph(counts[f"evaluation.statistic_mmd.{s}.s"]) * scale,
                      "evaluation.statistic_mmd")
    derived = {  # name -> (value, span or counter the value needs)
        "tensor.ops": (per_graph(counts["tensor.ops"]), "tensor.ops"),
        "tensor.recorded_mb": (tracer.peak_tape_bytes / 1e6, "tensor.backward"),
        "attention.score_pairs": (per_graph(counts["attention.score_pairs"]),
                                  "attention.g_multi_head"),
        "attention.allowed_ratio": (_ratio(counts["attention.allowed_pairs"],
                                           counts["attention.score_pairs"]),
                                    "attention.g_multi_head"),
        "training.edge_decisions": (per_graph(counts["training.edge_decisions"]),
                                    "training.teacher_forced_loss"),
        "training.key_pairs": (per_graph(counts["training.key_pairs"]),
                               "training.teacher_forced_loss"),
        "training.edge_hit_ratio": (_ratio(counts["training.alpha"],
                                           counts["training.edge_decisions"]),
                                    "training.teacher_forced_loss"),
        "sampler.decision_ratio": (_ratio(counts["sampler.kept_decisions"],
                                          spans["model.edge_distribution_step"].calls),
                                   "model.edge_distribution_step"),
        "evaluation.kernel_unique_ratio": (_ratio(counts["evaluation.kernel_unique_pairs"],
                                                  spans["evaluation.nspdk_kernel"].calls),
                                           "evaluation.nspdk_kernel"),
        "evaluation.statistic_mmd.degree.s": stat("degree"),
        "evaluation.statistic_mmd.clustering.s": stat("clustering"),
        "evaluation.statistic_mmd.orbit.s": stat("orbit"),
        "trace_overhead_ratio": (overhead, None),
    }
    values, absent = {}, []
    for name, _, _, _ in PER_LAYER:
        if name in derived:
            value, source = derived[name]
        elif name.endswith(".calls"):
            source = name[:-len(".calls")]
            value = per_graph(spans[source].calls)
        else:
            source = name[:-len(".s")]
            if source in SETUP_SPANS:
                value = tracer.spans["setup"][source].total_s * setup_scale
            elif source in TOTAL_TIME_SPANS:
                value = per_graph(spans[source].total_s) * scale
            else:
                value = per_graph(spans[source].self_s) * scale
        if source is not None and source not in tracer.known:
            absent.append(name)
        values[name] = value
    return values, absent
