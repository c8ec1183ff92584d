"""Per-layer tracing for the benchmark, kept entirely outside the program.

:class:`LayerTracer` wraps the entry point of each decode layer -- the
service's admission and dispatch cycle, the coalesced batch dispatch,
the resilience supervisor, the engine and its measurement / operator /
solve steps, the power iteration, the verdict journal -- with a timing
span, and the operator applies with a counter.  Spans nest on one stack
(the service under test is single-threaded), so each layer's *self
time* is its span time minus the time of the spans it caused.

Only the traced run installs the wrappers; the end-to-end figures are
always measured with the program untouched.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

#: ``(layer, module, class or None for a module function, function)``
#: for every program entry point the tracer wraps; several entry points
#: may feed one layer.
LAYERS = (
    ("admission", "repro.serve.service", "DecodeService", "submit"),
    ("service", "repro.serve.service", "DecodeService", "run_cycle"),
    ("dispatch", "repro.serve.service", None, "decode_pending"),
    ("resilience", "repro.resilience.runtime", "ResilientDecoder", "decode"),
    (
        "resilience",
        "repro.resilience.runtime",
        "ResilientDecoder",
        "decode_batch",
    ),
    ("health", "repro.resilience.runtime", None, "validate_reconstruction"),
    ("engine", "repro.core.engine", "DecodeEngine", "decode"),
    ("engine", "repro.core.engine", "DecodeEngine", "decode_batch"),
    ("phi_draw", "repro.core.engine", "DecodeEngine", "_draw_phi"),
    ("acquire", "repro.core.engine", "DecodeEngine", "_measure"),
    ("operator_bind", "repro.core.engine", "DecodeEngine", "operator"),
    ("solve", "repro.core.engine", None, "solve"),
    ("solve", "repro.core.solvers", None, "solve_batch"),
    ("spectral_norm", "repro.core.operators", "LinearOperator", "spectral_norm"),
    ("journal", "repro.serve.durability", "VerdictJournal", "append"),
    ("journal", "repro.serve.durability", "VerdictJournal", "flush"),
)

#: The layers, in report order.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: Operator apply methods and how many single-vector applies one call is.
_APPLIES = {
    "matvec": lambda args: 1,
    "rmatvec": lambda args: 1,
    "matvec_batch": lambda args: len(args[0]),
    "rmatvec_batch": lambda args: len(args[0]),
    "matmat": lambda args: args[0].shape[1],
    "rmatmat": lambda args: args[0].shape[1],
}


class LayerTracer:
    """Self time and call counts per layer, plus work counters.

    ``self_s[layer]`` is seconds spent in the layer's own code,
    ``calls[layer]`` how often it was entered, and ``counts`` holds the
    work counters: ``solver_iterations``, ``operator_applies`` and
    ``power_iteration_applies`` (the applies made inside the spectral-
    norm estimate).  Use :meth:`install` / :meth:`restore`, or the
    tracer as a context manager.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: Wrappers pass straight through while ``False`` (set-ups).
        self.active = True
        self._stack: list[list] = []
        self._apply_depth = 0
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------
    def _replace(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original
        wrapper = functools.wraps(func)(make(func))
        setattr(owner, name, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, name, original))

    def _span(self, layer: str):
        tracer = self

        def make(func):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return func(*args, **kwargs)
                frame = [layer, 0.0]
                tracer._stack.append(frame)
                start = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    tracer._stack.pop()
                    tracer.self_s[layer] += elapsed - frame[1]
                    tracer.calls[layer] += 1
                    if tracer._stack:
                        tracer._stack[-1][1] += elapsed
                if layer == "solve":
                    tracer._count_iterations(result)
                return result

            return wrapper

        return make

    def _counter(self, method: str):
        tracer = self
        width = _APPLIES[method]

        def make(func):
            def wrapper(self_op, *args, **kwargs):
                # Batched applies may loop over single applies; count the
                # outermost call only.
                if tracer.active and tracer._apply_depth == 0:
                    inside_norm = bool(tracer._stack) and (
                        tracer._stack[-1][0] == "spectral_norm"
                    )
                    key = (
                        "power_iteration_applies"
                        if inside_norm
                        else "operator_applies"
                    )
                    tracer.counts[key] += int(width(args))
                tracer._apply_depth += 1
                try:
                    return func(self_op, *args, **kwargs)
                finally:
                    tracer._apply_depth -= 1

            return wrapper

        return make

    def _count_iterations(self, result) -> None:
        results = result if isinstance(result, (list, tuple)) else [result]
        for item in results:
            iterations = getattr(item, "iterations", None)
            if iterations is not None:
                self.counts["solver_iterations"] += int(iterations)

    def install(self) -> "LayerTracer":
        """Wrap every layer entry point and every operator apply."""
        for layer, module_name, owner_name, name in LAYERS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._replace(owner, name, self._span(layer))
        from repro.core.operators import LinearOperator

        classes = [LinearOperator]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in dict.fromkeys(classes):
            for method in _APPLIES:
                if method in cls.__dict__:
                    self._replace(cls, method, self._counter(method))
        return self

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()
