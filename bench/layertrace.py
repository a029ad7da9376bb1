"""Per-layer spans and counts, recorded by wrapping the program's functions
from outside.

Each layer is one module of the package.  `install` replaces the public
functions of every layer module (in every module namespace that imported
them) and the public methods of its public classes with wrappers that
record a span: the layer, the duration, and the time covered by child
spans.  A few private helpers that carry most of the work are wrapped by
name; if a later change removes one, its count reads 0.

The program itself is not changed, and nothing is wrapped until `install`
runs, so an untraced run executes the unmodified code.
"""

import functools
import inspect
import sys
import time

LAYERS = ("cli", "embeddings", "hardy", "oracle", "norms", "weights",
          "integration", "profiles", "extreal")

COUNTS = ("profiles.evals", "profiles.adaptive_fallbacks",
          "weights.lp_norm_calls", "integration.quad_calls",
          "integration.halfline_calls", "integration.stieltjes_calls",
          "integration.stieltjes_stages", "hardy.sup_over_t_calls",
          "embeddings.constant_calls", "norms.inner_norm_evals",
          "oracle.ratio_evals", "extreal.objects")

# (module, qualified name) -> counter bumped on every call
_COUNTED = {
    ("profiles", "__call__"): "profiles.evals",
    ("weights", "lp_norm_interval"): "weights.lp_norm_calls",
    ("integration", "quad"): "integration.quad_calls",
    ("integration", "integrate_halfline"): "integration.halfline_calls",
    ("integration", "stieltjes_integral"): "integration.stieltjes_calls",
    ("integration", "_rs_stage"): "integration.stieltjes_stages",
    ("hardy", "sup_over_t"): "hardy.sup_over_t_calls",
    ("embeddings", "embedding_constant"): "embeddings.constant_calls",
    ("norms", "_InnerBallNorm.__call__"): "norms.inner_norm_evals",
    ("norms", "_InnerComplementNorm.__call__"): "norms.inner_norm_evals",
    ("oracle", "_RatioEvaluator._ratio"): "oracle.ratio_evals",
}

# private helpers wrapped by name (ROADMAP item 2 names them as the
# places where the work sits); integration.quad is scipy's quad as bound
# in that module
_PRIVATE = {
    "integration": ("quad", "_rs_stage"),
    "norms": ("_InnerBallNorm.__call__", "_InnerComplementNorm.__call__"),
    "oracle": ("_RatioEvaluator._ratio", "_RatioEvaluator.__init__"),
}

_TIMED = {
    ("oracle", "_RatioEvaluator._ratio"): "ratio_s",
    ("oracle", "_RatioEvaluator.__init__"): "evaluator_build_s",
}


class Tracer:
    """Accumulates per-layer calls, total time (outermost spans only, so
    nested spans of one layer are not counted twice) and self time (span
    duration minus the time covered by its child spans)."""

    def __init__(self):
        # per layer: [calls, total_s, self_s, open spans]
        self.layers = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}
        self.counts = {name: [0] for name in COUNTS}
        self.timers = {"ratio_s": [0.0], "evaluator_build_s": [0.0]}
        self._children = []   # per open span: time covered by its children

    def wrap(self, fn, layer, count=None, timer=None, none_count=None):
        acc = self.layers[layer]
        counter = self.counts[count] if count else None
        timer = self.timers[timer] if timer else None
        nones = self.counts[none_count] if none_count else None
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            acc[0] += 1
            acc[3] += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = children.pop()
                if children:
                    children[-1] += dt
                acc[2] += dt - covered
                acc[3] -= 1
                if not acc[3]:
                    acc[1] += dt
                if counter is not None:
                    counter[0] += 1
                if timer is not None:
                    timer[0] += dt
            if nones is not None and result is None:
                nones[0] += 1
            return result

        return span

    def per_round(self, rounds):
        """The per-layer metrics, each divided by the number of rounds."""
        out = {}
        for layer, (calls, total, self_time, _) in self.layers.items():
            out[f"{layer}.calls"] = (calls / rounds, "count")
            out[f"{layer}.total_s"] = (total / rounds, "s")
            out[f"{layer}.self_s"] = (self_time / rounds, "s")
        for name, (n,) in self.counts.items():
            out[name] = (n / rounds, "count")
        evals, (ratio_s,) = self.counts["oracle.ratio_evals"][0], \
            self.timers["ratio_s"]
        out["oracle.ratio_evals_per_s"] = (
            evals / ratio_s if ratio_s else 0.0, "1/s")
        out["oracle.evaluator_build_s"] = (
            self.timers["evaluator_build_s"][0] / rounds, "s")
        return out


def _rebind(old, new):
    """Point every morreyemb namespace that holds `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "morreyemb"
                               or name.startswith("morreyemb.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _wrap_method(tracer, cls, attr, layer, qual):
    raw = inspect.getattr_static(cls, attr)
    kwargs = {"count": _COUNTED.get((layer, qual)),
              "timer": _TIMED.get((layer, qual))}
    if layer == "profiles":
        kwargs["count"] = _COUNTED.get((layer, attr))
        if attr == "integral":
            kwargs["none_count"] = "profiles.adaptive_fallbacks"
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(cls, attr, type(raw)(tracer.wrap(raw.__func__, layer,
                                                 **kwargs)))
    elif inspect.isfunction(raw):
        setattr(cls, attr, tracer.wrap(raw, layer, **kwargs))


def install(tracer):
    """Wrap every layer of the already imported package."""
    import morreyemb  # noqa: F401  (loads every layer module)
    for layer in LAYERS:
        mod = sys.modules[f"morreyemb.{layer}"]
        modname = mod.__name__
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == modname \
                    and not name.startswith("_"):
                _rebind(obj, tracer.wrap(
                    obj, layer, count=_COUNTED.get((layer, name))))
            elif inspect.isclass(obj) and obj.__module__ == modname \
                    and not name.startswith("_") \
                    and not issubclass(obj, BaseException):
                for attr in list(vars(obj)):
                    if attr == "__call__" or not attr.startswith("_"):
                        _wrap_method(tracer, obj, attr, layer,
                                     f"{name}.{attr}")
        for qual in _PRIVATE.get(layer, ()):
            owner, _, attr = qual.rpartition(".")
            if owner:
                cls = getattr(mod, owner, None)
                if cls is not None and attr in vars(cls):
                    _wrap_method(tracer, cls, attr, layer, qual)
            elif hasattr(mod, attr):
                old = getattr(mod, attr)
                new = tracer.wrap(old, layer, count=_COUNTED.get((layer, attr)))
                if attr == "quad":
                    setattr(mod, attr, new)   # scipy's quad: this module only
                else:
                    _rebind(old, new)
    ext = sys.modules["morreyemb.extreal"].ExtReal
    init = ext.__init__
    objects = tracer.counts["extreal.objects"]

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        objects[0] += 1
        init(self, *args, **kwargs)

    ext.__init__ = counted_init
