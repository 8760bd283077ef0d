"""In-memory span tracer for the traced benchmark run.

The tracer wraps clustermark's functions from outside the package: every
module attribute that is the original function object is replaced by a
wrapper, so names imported with ``from .x import y`` are covered in every
module that imports them.  Each call records one span (name, start, end,
parent) into flat arrays; layer self time is a span's duration minus the
durations of its direct children.  Counts that need a call's arguments or
result (steps generated, steps scored) are recorded by hooks at the same
boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

def _count_generated(tracer, args, kwargs, result):
    tracer.add("generate.steps", len(result))
    session = kwargs.get("session", args[3] if len(args) > 3 else None)
    mask = getattr(session, "watermarked_mask", None)
    if mask is None:
        return
    marked = int(sum(mask))
    tracer.add("generate.watermarked_steps", marked)
    if session.config.strategy == "aligned_is":
        tracer.add("generate.aligned_watermarked_steps", marked)


def _count_unwatermarked(tracer, args, kwargs, result):
    tracer.add("generate.steps", len(result))


def _count_report(tracer, args, kwargs, result):
    tracer.add("detect.steps_scored", result.steps_scored)


def _count_its_trace(tracer, args, kwargs, result):
    tracer.add("detect.steps_scored", len(result[1]))


# (module, attribute path, layer, hook); the span is named after the
# module and function.  Several functions may share one layer (the
# baselines, the attacks, the ITS detector's two entry points).  Private
# names are optional: a missing one is skipped and reported absent.
TARGETS = [
    ("clustermark.simenv", "SyntheticModel.next_dist", "simenv.next_dist", None),
    ("clustermark.simenv", "apply_channel", "simenv.apply_channel", None),
    ("clustermark.simenv", "same_cluster_neighbors", "simenv.apply_channel", None),
    ("clustermark.simenv", "attack_substitute", "simenv.attacks", None),
    ("clustermark.simenv", "attack_crop", "simenv.attacks", None),
    ("clustermark.simenv", "attack_insert_delete", "simenv.attacks", None),
    ("clustermark.core", "prf_r", "core.prf_r", None),
    ("clustermark.core", "_prf_permutation_raw", "core.prf_permutation", None),
    ("clustermark.core", "code_fingerprint", "core.code_fingerprint", None),
    ("clustermark.clustering", "kmeans_fit", "clustering.kmeans_fit", None),
    ("clustermark.reweight", "build_segment_table", "reweight.build_segment_table", None),
    ("clustermark.reweight", "aligned_sample", "reweight.aligned_sample", None),
    ("clustermark.reweight", "kgw_reweight", "reweight.baselines", None),
    ("clustermark.reweight", "unigram_reweight", "reweight.baselines", None),
    ("clustermark.reweight", "dipmark_reweight", "reweight.baselines", None),
    ("clustermark.reweight", "its_sample", "reweight.baselines", None),
    ("clustermark.generate", "generate", "generate.generate", _count_generated),
    ("clustermark.generate", "generate_unwatermarked", "generate.generate",
     _count_unwatermarked),
    ("clustermark.detect", "detect_aligned", "detect.aligned", _count_report),
    ("clustermark.detect", "detect_kgw", "detect.kgw", _count_report),
    ("clustermark.detect", "detect_dipmark", "detect.dipmark", _count_report),
    ("clustermark.detect", "detect_unigram", "detect.unigram", _count_report),
    ("clustermark.detect", "detect_its", "detect.its", None),
    ("clustermark.detect", "_its_score_trace", "detect.its", _count_its_trace),
    ("clustermark.detect", "_its_null_samples", "detect.its_null", None),
    ("clustermark.experiments", "run_detectability", "experiments.sweep", None),
    ("clustermark.experiments", "run_robustness", "experiments.sweep", None),
    ("clustermark.experiments", "run_ablation_h", "experiments.sweep", None),
]

# Memoized PRFs whose cache_info() gives hit/miss counts, when they exist.
CACHES = [
    ("clustermark.core", "_prf_r_raw", "core.prf_r_cache"),
    ("clustermark.core", "_prf_permutation_raw", "core.perm_cache"),
]


class Tracer:
    """Spans in flat arrays plus named counters, recorded in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = dict.fromkeys(
            ("generate.steps", "generate.watermarked_steps",
             "generate.aligned_watermarked_steps", "detect.steps_scored"), 0)
        self.missing: list[str] = []
        self._caches: dict[str, object] = {}

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(n)

    def wrap(self, name: str, fn, layer: str | None = None, hook=None):
        """``fn`` recording a span named ``name``, counted in ``layer``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        self.layer_of[name] = layer or name
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        # lru_cache statistics and clearing stay reachable through the wrapper
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded clustermark module."""
        for mod_name in {t[0] for t in TARGETS}:
            with contextlib.suppress(ImportError):
                importlib.import_module(mod_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "clustermark" or n.startswith("clustermark."))]
        for mod_name, cache_attr, label in CACHES:
            fn = getattr(sys.modules.get(mod_name), cache_attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[label] = fn
        for mod_name, path, layer, hook in TARGETS:
            owner = sys.modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            name = f"{mod_name.rsplit('.', 1)[-1]}.{attr}"
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original, layer, hook)
            if outer:  # a method: patch the class attribute only
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def cache_stats(self) -> dict[str, int]:
        out = {}
        for label, fn in self._caches.items():
            info = fn.cache_info()
            out[f"{label}.hits"] = info.hits
            out[f"{label}.misses"] = info.misses
        return out

    def arrays(self):
        # copies: a live buffer view would stop the arrays from growing
        return (np.array(self.name_id, dtype=np.uint16),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def layer_totals(self, lo: int, hi: int) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` over spans [lo, hi).

        Spans in the range must form whole trees: a span's parent is in the
        range or outside the traced region entirely.
        """
        name_id, parent, start, end = (a[lo:hi] for a in self.arrays())
        layers = sorted(set(self.layer_of.values()))
        layer_of = np.array([layers.index(self.layer_of[n]) for n in self.names])
        layer = layer_of[name_id]
        dur = end - start
        self_time = dur.copy()
        inside = parent >= lo
        np.subtract.at(self_time, parent[inside] - lo, dur[inside])
        # a call into a layer from the same layer (detect_its calling
        # _its_score_trace) is one call, not two
        entry = np.ones(layer.size, dtype=bool)
        entry[inside] = layer[parent[inside] - lo] != layer[inside]
        calls = np.bincount(layer[entry], minlength=len(layers))
        selfs = np.bincount(layer, weights=self_time, minlength=len(layers))
        out: dict[str, float] = {}
        for i, name in enumerate(layers):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(selfs[i])
        return out

    def dump(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)
