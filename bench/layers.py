"""Per-layer exclusive wall time, measured from outside the program.

A traced pass replaces each layer's entry points (``LAYERS``) with a timing
wrapper for the length of that one pass and puts the originals back
afterwards; nothing under ``src/`` knows it is being profiled.  The wrappers
keep one stack of open calls, so a layer's *self* time excludes every
wrapped call nested inside it, whatever that call's layer.  Self times
therefore never overlap: summed with the remainder no wrapper covered
(``other``), they give the traced wall time exactly.

Inner helpers (the ``waterfill*`` kernels, queue pops) are deliberately not
wrapped: they run millions of times per pass, so a wrapper there would
measure itself.  Their cost lands in the entry point that called them.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# layer -> ((module, class, entry-point methods), ...).  The order is the
# report order.  Node lifecycle, including the cluster-dynamics engine that
# drives it, is charged to the driver.
LAYERS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "engine": (("repro.simulate.engine", "Simulator", ("run",)),),
    "fluid": (
        (
            "repro.simulate.resources",
            "FluidResource",
            # _flush is the deferred re-key the engine calls at end of
            # instant; without it that fluid work would count as engine.
            ("acquire", "abort", "notify_scale_changed", "_on_deadline", "_flush"),
        ),
    ),
    "monitor": (
        ("repro.core.resource_monitor", "ResourceMonitor", ("collect_now", "_beat")),
        ("repro.core.nodeinfo", "NodeTable", ("scatter", "mean_utilization")),
    ),
    "dispatch": (
        ("repro.core.rupam", "RupamScheduler", ("revive",)),
        ("repro.core.dispatcher", "Dispatcher", ("dispatch",)),
        ("repro.spark.default_scheduler", "DefaultScheduler", ("revive",)),
    ),
    "locality": (
        (
            "repro.spark.taskset",
            "TaskSetManager",
            ("select_task", "allowed_locality", "next_escalation_time"),
        ),
    ),
    "pools": (
        ("repro.spark.pools", "SchedulingPools", ("app_order", "register", "release")),
    ),
    "task_manager": (
        (
            "repro.core.task_manager",
            "TaskManager",
            ("admit", "admit_taskset", "record_task_end", "release_app"),
        ),
    ),
    "driver": (
        (
            "repro.spark.driver",
            "Driver",
            (
                "submit",
                "launch_task",
                "task_ended",
                "add_node",
                "decommission_node",
                "preempt_node",
                "remove_node",
            ),
        ),
        ("repro.spark.runner", "TaskRun", ("start", "kill")),
        (
            "repro.cluster.dynamics",
            "ClusterDynamics",
            ("_apply", "_autoscale_tick", "inject"),
        ),
    ),
    "obs": (
        ("repro.obs.decision", "Observability", ("record_span",)),
        (
            "repro.obs.decision",
            "DecisionTrace",
            ("record_launch", "record_rejection", "tally_rejections"),
        ),
    ),
}

# Pseudo-layer of the set-up frames (Session construction, workload
# building).  It is timed like a layer but is not one: its self time counts
# toward ``other``.
SETUP = "setup"


class LayerProfiler:
    """Exclusive-time accounting over a stack of wrapped calls.

    Every pass uses one, traced or not: set-up frames and :meth:`excluded`
    work in both modes, and :meth:`install` adds the layer wrappers in
    traced mode only.
    """

    def __init__(
        self,
        layers: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = LAYERS,
    ):
        self.layers = layers
        self.self_s: dict[str, float] = {name: 0.0 for name in layers}
        self.self_s[SETUP] = 0.0
        self.inclusive_s: dict[str, float] = dict(self.self_s)
        self.calls: dict[str, int] = {name: 0 for name in self.self_s}
        # The same, per wrapped function ("Class.method").
        self.fn_self_s: dict[str, float] = {}
        self.fn_calls: dict[str, int] = {}
        self.excluded_s = 0.0
        # One slot per open wrapped call: time spent in calls nested in it.
        self._nested: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable[..., Any], layer: str, key: str) -> Callable[..., Any]:
        """``fn`` timed as one frame of ``layer`` (counted under ``key``)."""
        nested = self._nested
        self_s, inclusive_s = self.self_s, self.inclusive_s
        calls, fn_self_s, fn_calls = self.calls, self.fn_self_s, self.fn_calls
        fn_self_s.setdefault(key, 0.0)
        fn_calls.setdefault(key, 0)
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            nested.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                own = dt - nested.pop()
                self_s[layer] += own
                inclusive_s[layer] += dt
                calls[layer] += 1
                fn_self_s[key] += own
                fn_calls[key] += 1
                if nested:
                    nested[-1] += dt

        return timed

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Time spent inside is benchmark work: charged to no layer and
        subtracted from the pass's wall time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.excluded_s += dt
            if self._nested:
                self._nested[-1] += dt

    def replace(
        self, owner: Any, name: str, make: Callable[[Any], Any]
    ) -> None:
        """Set ``owner.name`` (a class or module attribute defined on
        ``owner`` itself) to ``make(original)`` until :meth:`restore`."""
        original = vars(owner)[name]  # KeyError: not defined on owner
        if not callable(original):
            raise TypeError(f"{owner.__name__}.{name} is not a plain function")
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def patch(self, owner: Any, name: str, layer: str) -> None:
        """Time ``owner.name`` as a frame of ``layer`` until :meth:`restore`."""
        key = f"{owner.__name__}.{name}"
        self.replace(owner, name, lambda fn: self.wrap(fn, layer, key))

    def install(self) -> None:
        """Wrap every layer entry point."""
        for layer, targets in self.layers.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for name in methods:
                    self.patch(cls, name, layer)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, without the set-up frames."""
        return {name: self.self_s[name] for name in self.layers}
