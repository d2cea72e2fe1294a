"""Per-layer tracing of sublap from outside its source tree.

`Instrumentation` wraps every function and method defined in each layer
module (`sublap.<layer>`), and rebinds the name everywhere a
sublap module looks it up: module globals (`montecarlo.gauge_parts`,
`weakform.gauge_parts`, `capacity.gauge_parts`, `fields.gauge_parts`, ...)
and class attributes.  `uninstall()` restores the originals.  Nothing under
src/ changes.  A wrapped call opens a span when it enters its layer from
another one (or from the client), so a layer's self time is the time spent
in its code between boundaries; calls within a layer only run their hooks.

`layer_metrics` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

from tracer import LAYER

LAYERS = ("montecarlo", "fields", "jets", "frame", "weakform", "capacity",
          "extrapolation", "cli")

# grad_psi_norm_sq lives in montecarlo but is part of the MC integrand.
LAYER_OVERRIDE = {"montecarlo.grad_psi_norm_sq": "fields"}

INTEGRAND = {
    "fields.CutoffBump.values", "fields.CutoffBump.d_dh",
    "fields.FundamentalProfile.eta_prime", "fields.AnnulusPotential.eta_prime",
    "montecarlo.grad_psi_norm_sq",
}
OPERATORS = {"frame.p_laplacian", "frame.infinity_laplacian",
             "frame.p_laplacian_divergence_form"}

# Spans open where a call crosses into another layer; these keys always get
# one, because per-call metrics and sub-layer times are read from them.
ALWAYS_SPAN = INTEGRAND | OPERATORS | {
    "montecarlo.sample_points", "fields.gauge_parts", "jets.Jet2.__mul__",
    "capacity.minimize_radial", "capacity.mc_energy",
}

# Generated or trivial dunders that would only add spans and noise.
SKIP_METHODS = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
                "__delattr__", "__post_init__"}

# Counts that are deterministic for a fixed seed; they must repeat exactly.
COUNT_METRICS = ("montecarlo.samples", "montecarlo.accept_frac",
                 "fields.gauge_points_per_sample", "fields.jet_calls_per_point",
                 "jets.jet2_per_point", "extrapolation.fallback_frac", "trace.spans")


def layer_of(key: str) -> str:
    return LAYER_OVERRIDE.get(key, key.split(".", 1)[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_box(tracer, args, kwargs, result):
    samples = int(_arg(args, kwargs, 3, "samples"))
    tracer.count("mc.samples", samples)
    tracer.count("mc.box_samples", samples)
    tracer.count("mc.accepted", int(result[2]))


def _after_gauge_parts(tracer, args, kwargs, result):
    points = len(result[0])
    tracer.count("gauge.points", points)
    if tracer.parent_key() == "montecarlo.sample_points":
        tracer.count("mc.samples", points)  # sample_points draws


def _after_jet(tracer, args, kwargs, result, dur):
    if not tracer.in_scope("jet"):  # outermost field jet
        tracer.count("jet.outer")
        tracer.count("jet.outer_ns", dur)
        if tracer.in_scope("op"):
            tracer.count("jet.outer_in_op")


def _after_limit(tracer, args, kwargs, result):
    tracer.count("extrap.calls")
    tracer.count("extrap.fallbacks", int(result.fallback))


AFTER = {
    "montecarlo._mc_over_box": _after_box,
    "fields.gauge_parts": _after_gauge_parts,
    "extrapolation.geometric_limit": _after_limit,
}


class Instrumentation:
    """Installs span wrappers over the sublap layers; a context manager."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._wrappers = {}   # original function -> wrapper
        self._patched = []    # (owner, attribute, original value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, key: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        tracer = self.tracer
        state, begin, end = tracer.state, tracer.begin, tracer.end
        layer = layer_of(key)
        after = AFTER.get(key)
        span_after = None
        scope = None
        if key.startswith("fields.") and key.endswith(".jet"):
            scope, span_after = "jet", _after_jet
        elif key in OPERATORS:
            scope = "op"
        always = key in ALWAYS_SPAN or scope is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            if not always and stack and stack[-1][LAYER] == layer:
                result = fn(*args, **kwargs)  # inside its own layer: no boundary
            else:
                frame = begin(st, key, layer, scope)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = end(st, frame, scope)
                if span_after is not None:
                    span_after(tracer, args, kwargs, result, dur)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        self._wrappers[fn] = traced
        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sublap.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for obj in list(vars(module).values()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._wrap(obj, f"{layer}.{obj.__qualname__}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        fn = member.__func__ if isinstance(member, staticmethod) else member
                        if not inspect.isfunction(fn) or attr in SKIP_METHODS:
                            continue
                        wrapped = self._wrap(fn, f"{layer}.{fn.__qualname__}")
                        self._set(obj, attr, staticmethod(wrapped)
                                  if isinstance(member, staticmethod) else wrapped)
        # Rebind module-level names wherever a sublap module imported them.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "sublap" or name.startswith("sublap.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._set(module, attr, self._wrappers[value])
        self._count_jet2(modules["jets"].Jet2)

    def _count_jet2(self, cls) -> None:
        """Count Jet2 constructions inside frame operators (not a span)."""
        init = cls.__dict__["__init__"]
        tracer = self.tracer

        def counted_init(self, *args, **kwargs):
            if tracer.in_scope("op"):
                tracer.count("jet2.in_op")
            init(self, *args, **kwargs)

        self._set(cls, "__init__", counted_init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        self._wrappers.clear()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, wall_ns: float) -> dict:
    """Per-layer metrics of one traced pass lasting `wall_ns` nanoseconds."""
    self_ns, incl, calls, counts = snap["self"], snap["incl"], snap["calls"], snap["counts"]
    layer_ns = dict.fromkeys(LAYERS, 0.0)
    for key, t in self_ns.items():
        layer_ns[layer_of(key)] += t
    ops = sum(calls[k] for k in OPERATORS)
    samples = counts["mc.samples"]

    def per_call(key, scale):
        return _ratio(incl[key], calls[key]) / scale

    out = {f"{layer}.self_s": t / 1e9 for layer, t in layer_ns.items()}
    out.update({
        "montecarlo.samples": samples,
        "montecarlo.ns_per_sample": _ratio(layer_ns["montecarlo"], samples),
        "montecarlo.accept_frac": _ratio(counts["mc.accepted"], counts["mc.box_samples"]),
        "montecarlo.sample_points_s": incl["montecarlo.sample_points"] / 1e9,
        "fields.gauge_parts_s": incl["fields.gauge_parts"] / 1e9,
        "fields.gauge_points_per_sample": _ratio(counts["gauge.points"], samples),
        "fields.integrand_s": sum(self_ns[k] for k in INTEGRAND) / 1e9,
        "fields.jet_us": _ratio(counts["jet.outer_ns"], counts["jet.outer"]) / 1e3,
        "fields.jet_calls_per_point": _ratio(counts["jet.outer_in_op"], ops),
        "jets.jet2_per_point": _ratio(counts["jet2.in_op"], ops),
        "jets.mul_ns": per_call("jets.Jet2.__mul__", 1),
        "frame.p_laplacian_us": per_call("frame.p_laplacian", 1e3),
        "frame.infinity_laplacian_us": per_call("frame.infinity_laplacian", 1e3),
        "frame.divergence_form_us": per_call("frame.p_laplacian_divergence_form", 1e3),
        "capacity.minimize_radial_ms": per_call("capacity.minimize_radial", 1e6),
        "capacity.mc_energy_s": incl["capacity.mc_energy"] / 1e9,
        "extrapolation.fallback_frac": _ratio(counts["extrap.fallbacks"], counts["extrap.calls"]),
        "trace.unattributed_frac": _ratio(wall_ns - sum(self_ns.values()), wall_ns),
        "trace.spans": sum(calls.values()),
    })
    return out
