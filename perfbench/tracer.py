"""Tracing of the gram package from outside, with no change to its code.

`Tracer.install()` replaces every public function of every loaded `gram`
module, and every public method of every class those modules define, by a
wrapper at the name its caller looks up.  Names bound at import time
(`from .kernels import capped_distances` in `gram.model`, say) are module
attributes too, so they are wrapped where they are bound.  One original
function keeps one span name wherever it is bound, `<module>.<name>` with
the `gram.` prefix dropped: `model.capped_distances` records as
`kernels.capped_distances`.

Two kinds of wrapper:

* a span wrapper times the call.  Its self time is the span's duration
  minus the time of the spans it caused.
* the tensor primitives (the public functions of `gram.tensor`) only count
  calls and the bytes of outputs recorded on a tape, so the work they do
  stays in the self time of the layer that called them.

Probes read arguments and return values of a few functions to count work
the layers do (score pairs, kernel pairs, edge decisions).  A probe that no
longer fits the code it reads is switched off and reported; a function that
no longer exists is reported as absent.  Neither stops the run.

The tracer assumes one thread, which is how the benchmark calls `gram`.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "gram"
TENSOR_MODULE = "gram.tensor"
NOT_PRIMITIVES = {"const", "finite_difference_check"}


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") else module_name


class Tracer:
    """Spans and counters per phase ("setup", "timed" or "idle")."""

    def __init__(self):
        self.phase = "idle"
        self.spans = defaultdict(lambda: defaultdict(SpanStats))  # phase -> name -> stats
        self.counts = defaultdict(lambda: defaultdict(float))     # phase -> name -> value
        self.top_level_s = defaultdict(float)                     # phase -> summed top spans
        self.peak_tape_bytes = 0
        self.known = set()          # span and primitive names that exist in the code
        self.probe_errors = {}      # span name -> first error message
        self._stack = []            # child time accumulated per open span
        self._tape_bytes = 0
        self._kernel_pairs = set()
        self._patches = []          # (owner, attribute, original value)
        self._wrappers = {}         # original function -> wrapper
        self._probes = {
            "tensor.backward": self._probe_backward,
            "attention.g_multi_head": self._probe_attention,
            "training.teacher_forced_loss": self._probe_loss,
            "sampler.generate_graph": self._probe_generate,
            "evaluation.nspdk_kernel": self._probe_kernel,
            "evaluation.statistic_mmd": self._probe_statistic,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith(PACKAGE):
                    self._patch(mod, attr, self._wrap(value, _short(value.__module__)))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(value, _short(mod.__name__))

    def _install_class(self, cls, short):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                wrapped = type(value)(self._span(value.__func__, f"{short}.{attr}"))
            elif inspect.isfunction(value):
                wrapped = self._span(value, f"{short}.{attr}")
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, short):
        if fn.__module__ == TENSOR_MODULE and fn.__name__ not in NOT_PRIMITIVES:
            return self._primitive(fn)
        return self._span(fn, f"{short}.{fn.__name__}")

    # -- wrappers ----------------------------------------------------------

    def _primitive(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        self.known.add("tensor.ops")
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts[tracer.phase]["tensor.ops"] += 1
            if getattr(out, "requires_grad", False):
                tracer._tape_bytes += out.data.nbytes
            return out

        self._wrappers[fn] = counted
        return counted

    def _span(self, fn, name):
        if fn in self._wrappers:
            return self._wrappers[fn]
        self.known.add(name)
        tracer = self
        probe = self._probes.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s = dt - stack.pop()
                phase = tracer.phase
                stats = tracer.spans[phase][name]
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += self_s
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_level_s[phase] += dt
            if probe is not None and name not in tracer.probe_errors:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    probe(tracer.counts[phase], bound.arguments, result, dt)
                except Exception as exc:  # the traced code changed shape: report, go on
                    tracer.probe_errors[name] = f"{type(exc).__name__}: {exc}"
            if not stack:
                # kernel arguments are told apart by id, which is only
                # unique while one top-level call keeps them alive
                tracer.counts[phase]["evaluation.kernel_unique_pairs"] += len(tracer._kernel_pairs)
                tracer._kernel_pairs.clear()
            return result

        self._wrappers[fn] = spanned
        return spanned

    # -- probes: (counters of the phase, bound arguments, result, seconds)

    def _probe_backward(self, counts, args, result, seconds):
        self.peak_tape_bytes = max(self.peak_tape_bytes, self._tape_bytes)
        self._tape_bytes = 0

    def _probe_attention(self, counts, args, result, seconds):
        allowed = args["ctx"].allowed
        heads = args["p"].heads
        counts["attention.score_pairs"] += allowed.size * heads
        counts["attention.allowed_pairs"] += int(allowed.sum()) * heads

    def _probe_loss(self, counts, args, result, seconds):
        loss_counters = result[1]
        counts["training.edge_decisions"] += loss_counters.edge_decisions
        counts["training.key_pairs"] += loss_counters.key_pairs
        counts["training.alpha"] += loss_counters.alpha_sum

    def _probe_generate(self, counts, args, result, seconds):
        """Edge decisions the returned graph kept: one per candidate of every
        generated node, candidates as the variant defines them."""
        config = args["model"].config
        graph = result.graph
        lower = defaultdict(list)
        for u, v, _ in graph.edges:
            lower[v].append(u)
        frontier_only = config.variant in ("B", "AB")
        kept = 0
        for s in range(config.seed_size, graph.n):
            lo = min(lower[s - 1], default=s - 1) if frontier_only else 0
            kept += s - lo
        counts["sampler.kept_decisions"] += kept

    def _probe_kernel(self, counts, args, result, seconds):
        a, b = id(args["f1"]), id(args["f2"])
        self._kernel_pairs.add((min(a, b), max(a, b)))

    def _probe_statistic(self, counts, args, result, seconds):
        counts[f"evaluation.statistic_mmd.{args['statistic']}.s"] += seconds
