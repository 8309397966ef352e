"""Span tracer that wraps the library's public names from outside.

Installing the tracer replaces each listed name, in the namespace its caller
looks it up in, with a wrapper that records a span: name, start, end, parent
span and operation id. Each span is attributed to the module that defines the
wrapped function or class, so renaming a helper inside a module keeps that
module's total. Self time of a layer is a span's duration minus the part of
it that child spans cover. Spans stay in memory and are written out once, at
the end of the run. Uninstalling restores every original object.

Counters are recorded at the same boundaries (featurizer rows, matching
calls, surgery rows, storage bytes, K-means iterations), so the ratios the
benchmark reports are measured where the work happens.
"""

import functools
import os
from collections import defaultdict, namedtuple
from time import perf_counter

import numpy as np

RNG_DRAWS = ("normal", "uniform", "integers", "permutation", "choice")
SETUP, CHECK = -1, -2   # operation ids outside the timed operations


def _layer_of(obj):
    return obj.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.names = []                 # span name table
        self._name_ids = {}
        self.spans = []                 # (name id, start, end, parent index, op)
        self.op = SETUP                 # operation id, or SETUP / CHECK
        self.self_s = defaultdict(float)     # (phase, layer) -> seconds
        self.inclusive_s = defaultdict(float)  # (phase, name) -> outermost seconds
        self.counts = defaultdict(float)
        self._stack = []                # [span index, child-covered seconds]
        self._depth = defaultdict(int)  # open spans per name and per layer
        self.real_side = 0              # open class_feature_mean calls on real views
        self.row_depth = 0              # open row-counting featurizer methods
        self._patches = []

    # -- recording -------------------------------------------------------

    @property
    def phase(self):
        return "op" if self.op >= 0 else "setup" if self.op == SETUP else "check"

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, fn, name, layer, hook, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        self._depth[layer] += 1
        ctx = hook.enter(self, args, kwargs) if hook and hook.enter else None
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            duration = end - start
            self._stack.pop()
            self._depth[name] -= 1
            self._depth[layer] -= 1
            self.spans[index] = (self._name_id(name), start - self.origin,
                                 end - self.origin, parent, self.op)
            phase = self.phase
            self.self_s[phase, layer] += duration - frame[1]
            if self._depth[name] == 0:
                self.inclusive_s[phase, name] += duration
            if hook and hook.exit:
                hook.exit(self, ctx, args, kwargs, result, duration)
            if self._stack:
                # Bookkeeping after `end` counts as covered, not as parent self time.
                self._stack[-1][1] += perf_counter() - start

    def depth(self, key):
        return self._depth[key]

    # -- installation ----------------------------------------------------

    def _wrapper(self, fn, name, layer, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(fn, name, layer, hook, args, kwargs)
        return traced

    def patch_function(self, namespace, attr, hook=None):
        """Wrap `namespace.attr`, a function defined in some library module."""
        fn = getattr(namespace, attr)
        layer = _layer_of(fn)
        name = f"{layer}.{fn.__qualname__}"
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, self._wrapper(fn, name, layer, hook))

    def patch_method(self, cls, attr, hook=None):
        raw = cls.__dict__[attr]
        layer = _layer_of(cls)
        name = f"{layer}.{cls.__name__}.{attr}"
        self._patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrapper(raw.__func__, name, layer, hook)))
        else:
            setattr(cls, attr, self._wrapper(raw, name, layer, hook))

    def install(self, lib):
        """Wrap the public names each caller in the package `lib` looks up."""
        functions = [
            (lib.pipeline, ("dm_gradient", "batch_surgery_updates", "initialize", "checkpoint",
                            "run_distillation", "restore", "surgery_snapshot")),
            (lib.evaluation, ("run_distillation", "train_classifier", "accuracy",
                              "assert_protocol_isolation", "mdg_protocol")),
            (lib.dm, ("class_feature_mean", "mean_features")),
            (lib.surgery, ("fft2", "ifft2", "consensus", "decompose")),
            (lib.pseudo, ("assign_pseudo_domains", "style_stats_batch", "kmeans")),
            (lib.storage, ("save_dataset", "save_checkpoint_images", "save_grids",
                           "load_dataset", "load_checkpoint_images")),
            (lib.toydata, ("generate_toy",)),
        ]
        methods = [
            (lib.surgery.DomainGradientStack, ("from_gradients",)),
            (lib.datasets.DataView, ("class_images", "class_pixel_mean", "cached_feature_mean")),
            (lib.datasets.MultiDomainDataset, ("view", "subset", "without_domain",
                                               "only_domain", "with_domain_labels")),
            (lib.datasets.SyntheticSet, ("as_view", "copy")),
            (lib.featurizers.LinearFeaturizer, ("features", "features_batch", "vjp")),
            (lib.featurizers.ConvFeaturizer, ("features", "features_batch", "hidden_activations",
                                              "vjp", "vjp_batch")),
            (lib.rng.SeededRng, RNG_DRAWS + ("substream",)),
        ]
        for namespace, attrs in functions:
            for attr in attrs:
                self.patch_function(namespace, attr, HOOKS.get(attr))
        for cls, attrs in methods:
            for attr in attrs:
                self.patch_method(cls, attr, HOOKS.get(attr))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path):
        """Write every span as parallel arrays plus the name table."""
        spans = np.array([s for s in self.spans if s is not None],
                         dtype=[("name", "i4"), ("start", "f8"), ("end", "f8"),
                                ("parent", "i8"), ("op", "i4")])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, spans=spans, names=np.array(self.names))


# Counters recorded at span boundaries. `enter(tracer, args, kwargs)` runs
# before the call and returns a context; `exit(tracer, ctx, args, kwargs,
# result, seconds)` runs after it, with result None if the call raised.
Hook = namedtuple("Hook", "enter exit", defaults=(None, None))


def _in_distill(tracer):
    return tracer.depth("pipeline.run_distillation") > 0


def _distill_exit(tracer, ctx, args, kwargs, result, seconds):
    if result is None:
        return
    source, initial = args[0], kwargs.get("initial")
    iterations = result.synthetic.iteration - (initial.iteration if initial is not None else 0)
    tracer.counts["distill_iters"] += iterations
    tracer.counts["real_row_iters"] += int(np.count_nonzero(source.splits == 0)) * iterations


def _dm_exit(tracer, ctx, args, kwargs, result, seconds):
    if _in_distill(tracer):
        tracer.counts["dm_calls"] += 1


def _surgery_exit(tracer, ctx, args, kwargs, result, seconds):
    if result is None:
        return
    domain_gradients, assigned = args[0], np.asarray(args[2])
    s_count, n, channels = domain_gradients.shape[:3]
    # Rows whose inputs are identical transform to identical outputs.
    distinct = len({(domain_gradients[:, i].tobytes(), int(assigned[i])) for i in range(n)})
    tracer.counts["surgery_calls"] += 1
    tracer.counts["surgery_rows"] += n
    tracer.counts["surgery_distinct_rows"] += distinct
    tracer.counts["surgery_planes"] += (s_count + 2) * n * channels


def _feature_mean_enter(tracer, args, kwargs):
    real = args[0].uids is not None   # synthetic views carry no uids
    tracer.real_side += real
    return real


def _feature_mean_exit(tracer, ctx, args, kwargs, result, seconds):
    tracer.real_side -= ctx


def _rows(counter, single):
    """Count rows at the outermost featurizer method only (vjp calls vjp_batch)."""
    def enter(tracer, args, kwargs):
        tracer.row_depth += 1

    def exit_hook(tracer, ctx, args, kwargs, result, seconds):
        tracer.row_depth -= 1
        if result is None or tracer.row_depth > 0 or not _in_distill(tracer):
            return
        rows = 1 if single else len(args[1])
        tracer.counts[counter] += rows
        if counter == "fwd_rows" and tracer.real_side:
            tracer.counts["real_rows"] += rows
    return Hook(enter, exit_hook)


def _class_images_exit(tracer, ctx, args, kwargs, result, seconds):
    if _in_distill(tracer):
        tracer.counts["class_images_calls"] += 1


def _kmeans_exit(tracer, ctx, args, kwargs, result, seconds):
    # With restarts > 1, kmeans returns one of its inner fits: count inner fits only.
    if result is not None and kwargs.get("restarts", 1) <= 1:
        tracer.counts["kmeans_iters"] += len(result.inertia_history)


def _write_exit(tracer, ctx, args, kwargs, result, seconds):
    if tracer.op >= 0:
        tracer.counts["bytes_written"] += os.path.getsize(args[-1])
        tracer.counts["write_s"] += seconds


def _read_enter(tracer, args, kwargs):
    return os.path.getsize(args[0])


def _read_exit(tracer, ctx, args, kwargs, result, seconds):
    if tracer.op >= 0 and result is not None:
        tracer.counts["bytes_read"] += ctx
        tracer.counts["read_s"] += seconds


HOOKS = {
    "run_distillation": Hook(exit=_distill_exit),
    "dm_gradient": Hook(exit=_dm_exit),
    "batch_surgery_updates": Hook(exit=_surgery_exit),
    "class_feature_mean": Hook(_feature_mean_enter, _feature_mean_exit),
    "kmeans": Hook(exit=_kmeans_exit),
    "class_images": Hook(exit=_class_images_exit),
    "features": _rows("fwd_rows", single=True),
    "hidden_activations": _rows("fwd_rows", single=True),
    "features_batch": _rows("fwd_rows", single=False),
    "vjp": _rows("vjp_rows", single=True),
    "vjp_batch": _rows("vjp_rows", single=False),
    "save_dataset": Hook(exit=_write_exit),
    "save_checkpoint_images": Hook(exit=_write_exit),
    "save_grids": Hook(exit=_write_exit),
    "load_dataset": Hook(_read_enter, _read_exit),
    "load_checkpoint_images": Hook(_read_enter, _read_exit),
}
