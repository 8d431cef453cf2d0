"""Per-layer spans and counters, recorded from outside the library.

:meth:`Tracer.install` wraps each layer's public functions at every module
attribute that names them, so a caller that imported a function by name
(``randmat`` and ``permgroup`` import ``jacobi_eigenvalues``) still goes
through the wrapper.  A function the library no longer has is skipped and
the metrics that come from it are left out.

A pass makes 10^5 to 10^6 spans, so spans are folded as they close into
per-(operation, function) totals kept in memory: calls, spans, wall time
and self time.  Self time is a span's time minus the time of the spans it
encloses.  A generator gets one span per item it yields, so the time the
consumer spends between items is not charged to it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from functools import update_wrapper

#: Layer name -> (module, names of its public functions and methods).
LAYERS = {
    "pairings": ("pairmoments.pairings", (
        "enumerate_pairings", "iter_statistics", "statistic_distribution", "statistics",
        "crossings", "connected_components", "singleton_blocks", "component_support_partition",
        "rotate", "riordan_connected", "total_singletons", "count_nc_pairings",
        "pairing_count")),
    "weights": ("pairmoments.weights", (
        "evaluate", "statistic_polynomial", "check_strong_multiplicativity",
        "check_traceability", "Constant1.weight_of", "CrossingPower.weight_of",
        "ComponentPower.weight_of", "SingletonHPower.weight_of",
        "SingletonCountPower.weight_of", "Product.weight_of")),
    "moments": ("pairmoments.moments", (
        "moments_from_cumulants", "cumulants_from_moments", "free_convolve",
        "moments_of_weight", "cumulants_from_connected", "semicircle_mix_moments",
        "mixed_moment", "markov_limit_moments", "check_mix_semigroup", "hankel_psd",
        "dilate", "dilate_sq", "semicircle_moments", "gaussian_moments")),
    "jacobi": ("pairmoments.jacobi", ("jacobi_eigenvalues", "min_eigenvalue")),
    "rng": ("pairmoments.rng", (
        "substream_seed", "Xorshift64Star.rademacher", "Xorshift64Star.normals",
        "Xorshift64Star.randrange")),
    "randmat": ("pairmoments.randmat", (
        "sample_markov", "sample_entries", "empirical_moments", "spectrum",
        "spectral_moments", "target_moment", "run_mc", "eigenvalue_histogram")),
    "permgroup": ("pairmoments.permgroup", (
        "enumerate_group", "embed", "kernel_matrix", "check_positive_definite", "check_cnd",
        "metric_checks", "embedding_consistency", "check_isolated_split")),
}

TRANSFORMS = ("moments_from_cumulants", "cumulants_from_moments", "free_convolve")
WEIGHTED_SUMS = ("moments_of_weight", "cumulants_from_connected", "semicircle_mix_moments",
                 "mixed_moment")
STREAMS = ("enumerate_pairings", "iter_statistics")

#: Metric -> (layer, functions whose calls it counts).
CALL_COUNTS = {
    "pairings.calls": ("pairings", LAYERS["pairings"][1]),
    "moments.transform_calls": ("moments", TRANSFORMS),
    "moments.weighted_sum_calls": ("moments", WEIGHTED_SUMS),
    "jacobi.calls": ("jacobi", ("jacobi_eigenvalues",)),
    "rng.randrange_calls": ("rng", ("Xorshift64Star.randrange",)),
    "randmat.matrices": ("randmat", ("sample_markov",)),
}

#: Metric -> (layer, functions), the self time of those functions.
TIMED = {
    "moments.transform_s": ("moments", TRANSFORMS),
    "moments.weighted_sum_s": ("moments", WEIGHTED_SUMS),
    "randmat.sample_s": ("randmat", ("sample_markov",)),
    "randmat.trace_s": ("randmat", ("empirical_moments",)),
    "permgroup.kernel_s": ("permgroup", ("kernel_matrix",)),
}


def _count_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["count"]


#: (layer, function) -> (metric, amount read from (args, kwargs, result)).
#: RNG words are computed from the arguments: 64 signs per word, two words
#: per normal pair, one word per randrange (rejected draws are not seen).
COUNTERS = {
    ("pairings", "statistic_distribution"):
        ("pairings.table_cells", lambda a, k, r: len(r.counts)),
    ("weights", "check_strong_multiplicativity"):
        ("weights.partitions_checked", lambda a, k, r: r.cases),
    ("weights", "check_traceability"):
        ("weights.partitions_checked", lambda a, k, r: r.cases),
    ("jacobi", "jacobi_eigenvalues"): ("jacobi.max_order", lambda a, k, r: len(r)),
    ("rng", "Xorshift64Star.rademacher"):
        ("rng.words_drawn", lambda a, k, r: -(-_count_arg(a, k) // 64)),
    ("rng", "Xorshift64Star.normals"):
        ("rng.words_drawn", lambda a, k, r: 2 * -(-_count_arg(a, k) // 2)),
    ("rng", "Xorshift64Star.randrange"): ("rng.words_drawn", lambda a, k, r: 1),
    ("permgroup", "kernel_matrix"):
        ("permgroup.kernel_entries", lambda a, k, r: r.order * r.order),
    ("permgroup", "metric_checks"):
        ("permgroup.metric_triples", lambda a, k, r: r.triples_checked),
}
MAXIMA = {"jacobi.max_order"}
UNITS = {"jacobi.max_order": "rows", "rng.words_drawn": "computed_words"}


class Tracer:
    def __init__(self) -> None:
        self.op = ""
        self.stack: list[list[float]] = []
        #: (op, layer, function) -> [calls, spans, wall seconds, self seconds]
        self.spans: dict[tuple[str, str, str], list] = {}
        self.counters: Counter = Counter()
        self.installed: set[tuple[str, str]] = set()

    def _record(self, layer: str, name: str) -> list:
        key = (self.op, layer, name)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0, 0.0, 0.0]
        return rec

    def wrap(self, layer: str, name: str, fn):
        tracer, stack, clock = self, self.stack, time.perf_counter
        counter = COUNTERS.get((layer, name))

        def close(rec, frame):
            wall = clock() - frame[0]
            stack.pop()
            rec[1] += 1
            rec[2] += wall
            rec[3] += wall - frame[1]
            if stack:
                stack[-1][1] += wall

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                rec = tracer._record(layer, name)
                rec[0] += 1
                return tracer._items(rec, fn(*args, **kwargs), close)
        else:
            def wrapper(*args, **kwargs):
                rec = tracer._record(layer, name)
                rec[0] += 1
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(rec, frame)
                if counter is not None:
                    metric, amount = counter
                    value = amount(args, kwargs, result)
                    if metric in MAXIMA:
                        tracer.counters[metric] = max(tracer.counters[metric], value)
                    else:
                        tracer.counters[metric] += value
                return result
        update_wrapper(wrapper, fn)
        return wrapper

    def _items(self, rec, gen, close):
        stack, clock = self.stack, time.perf_counter
        try:
            while True:
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(rec, frame)
                self.counters["pairings.partitions_visited"] += 1
                yield item
        finally:
            gen.close()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pairmoments" or key.startswith("pairmoments.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or not callable(vars(owner).get(attr)):
                    continue
                original = vars(owner)[attr]
                wrapped = self.wrap(layer, dotted, original)
                setattr(owner, attr, wrapped)
                if not owner_name:
                    for other in modules:
                        for alias, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, alias, wrapped)
                self.installed.add((layer, dotted))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals as name -> (value, unit); absent when nothing feeds them."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (_, layer, name), rec in self.spans.items():
            calls[layer, name] += rec[0]
            self_s[layer, name] += rec[3]

        def fed(layer, names):
            return any((layer, name) in self.installed for name in names)

        out: dict[str, tuple[float, str]] = {}
        for layer, (_, names) in LAYERS.items():
            if fed(layer, names):
                out[f"{layer}.self_s"] = (float(sum(self_s[layer, n] for n in names)), "s")
        for metric, (layer, names) in TIMED.items():
            if fed(layer, names):
                out[metric] = (float(sum(self_s[layer, n] for n in names)), "s")
        for metric, (layer, names) in CALL_COUNTS.items():
            if fed(layer, names):
                out[metric] = (sum(calls[layer, n] for n in names), "count")
        fed_counters = {metric for key, (metric, _) in COUNTERS.items() if key in self.installed}
        if fed("pairings", STREAMS):
            fed_counters.add("pairings.partitions_visited")
        for metric in sorted(fed_counters):
            out[metric] = (self.counters[metric], UNITS.get(metric, "count"))
        return out

    def dump(self) -> list[dict]:
        """The folded spans, one record per (operation, function)."""
        return [
            {"op": op, "layer": layer, "function": name, "calls": rec[0], "spans": rec[1],
             "wall_s": rec[2], "self_s": rec[3]}
            for (op, layer, name), rec in sorted(self.spans.items())
        ]
