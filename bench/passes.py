"""One benchmark pass: one workload, run in this interpreter, checked.

Run by ``bench/run.py`` in a fresh interpreter per pass (see there)::

    PYTHONPATH=src python bench/passes.py --workload fig5 --seed 7 --traced 0

The pass imports the simulator, runs the workload through the same public
entry points the CLI uses, checks every operation's output, and prints one
JSON object on its last stdout line: host timings, simulated totals,
operation counts, the simulated-output digest and, when ``--traced 1``, the
per-layer profile.

Timing windows:

* ``wall_s`` runs from the first ``Session`` constructed to the entry
  point's return, minus the benchmark's own checking work.
* ``setup_s`` is the import of the simulator plus every
  ``Session.__init__`` and every ``build_workload`` call.  Garbage
  collections are held off during those calls and run just after them,
  so they count toward ``wall_s`` only.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from typing import Any, Callable

from layers import SETUP, LayerProfiler

# The figures' own seeds.
DEFAULT_SEEDS = {"fig5": 7, "multitenant": 7, "resilience": 11, "openloop": 7}

# Fig. 5 at the paper's protocol: 7 workloads x 2 schedulers x 5 trials.
FIG5_SCALE = "paper"
PAPER_AVG_IMPROVEMENT_PCT = 37.7

# Multitenant at the CLI's "bench" scale: four tenants on hydra under the
# four scheduler x mode policies, plus isolated baselines.  (At the default
# "smoke" scale, stock Spark re-arms its delay-scheduling revive every
# simulated microsecond while all executors are busy, and one figure takes
# 47 s at seed 7 but 186 s at seed 8.)  The figure draws its tenant trace
# and its simulation streams from one seed, and the trace alone (which
# workloads arrive, how many baselines it needs) moves the cost of one
# figure by about 18% and its simulated horizon by about 30% from seed to
# seed.  So every trial replays the figure's own trace, the one
# `repro figure multitenant --scale bench` runs, and the seed reseeds the
# simulation: trial t runs at seed + 1000 t, as the figures' trials do.
MT_SCALE = "bench"
MT_TRIALS = 15

RESILIENCE_SCALE = "bench"

# Open loop: Spark, fair mode, this many submissions.
OPEN_LOOP_SUBMISSIONS = 10_000
# Open-loop totals that are pure functions of the seed (no host timings).
OPEN_LOOP_DIGEST_KEYS = (
    "submissions",
    "scheduler",
    "mode",
    "completed",
    "aborted",
    "tasks",
    "sim_horizon_s",
    "mean_runtime_s",
    "retained_final",
    "pool_rekeys",
    "pool_compactions",
)
# Once every app is reaped, a leak leaves per-app state behind: at least one
# entity per leaking app.  A clean run keeps about ten (ring entries), at
# any submission count.  The row's retained_growth, a ratio of two single
# checkpoints of a live count that swings between 40 and 130, reads 2.4 on
# a clean run (seed 11), so it is not the check.
MAX_RETAINED_FINAL_PER_SUBMISSION = 0.01


def _counter_sum(counters: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def check_app(handle: Any, now: float, exactly_once: bool) -> str | None:
    """Why this finished app's output is wrong, or None if it is right.

    Every attempt lies within ``[launch, finish]`` with ``finish <= now``.
    A completed app has a successful attempt for every task.  Where
    ``exactly_once``, at most one of a task's successes may be a regular
    attempt: a speculative copy that ends in the same instant as the
    attempt it races also succeeds, and the task set keeps the first.  An
    aborted app is right only if one of its tasks reached Spark's failure
    limit; Fig. 5's memory failures legitimately abort about one app run in
    sixty.
    """
    if handle.is_active:
        return f"{handle.app_id} unfinished"
    successes: Counter[tuple[int, int]] = Counter()
    regular_successes: Counter[tuple[int, int]] = Counter()
    failures: Counter[tuple[int, int]] = Counter()
    for run in handle.runs:
        m = run.metrics
        if not m.launch_time <= m.finish_time <= now:
            return (
                f"{handle.app_id} attempt {m.task_key}#{m.attempt} spans "
                f"{m.launch_time}..{m.finish_time} with the clock at {now}"
            )
        if m.succeeded:
            successes[(m.stage_id, m.index)] += 1
            regular_successes[(m.stage_id, m.index)] += not m.speculative
        elif m.failed_oom or not m.killed:  # what the task set counts
            failures[(m.stage_id, m.index)] += 1
    if exactly_once and regular_successes:
        key, n = regular_successes.most_common(1)[0]
        if n > 1:
            return f"{handle.app_id} task {key} succeeded {n} times"
    if handle.aborted:
        limit = handle.runs[0].taskset.ctx.conf.max_task_failures if handle.runs else 1
        if max(failures.values(), default=0) < limit:
            return f"{handle.app_id} aborted with no task at {limit} failures"
        return None
    for stage in handle.app.all_stages():
        for index in range(stage.num_tasks):
            if successes[(stage.stage_id, index)] < 1:
                return f"{handle.app_id} task {stage.template_id}#{index} never succeeded"
    return None


class Recorder:
    """Hooks around the session lifecycle: the timing window, set-up time,
    per-session counters, and the output checks.

    ``session_ops``: each ``Session`` run is one operation; otherwise each
    reclaimed application record is (the open loop).
    """

    def __init__(self, prof: LayerProfiler, session_ops: bool = True):
        self.prof = prof
        self.session_ops = session_ops
        self.t_start: float | None = None
        self.t_end: float | None = None
        # Operations the workload runs; one that raises leaves the rest
        # unrun, and every operation that did not pass counts as failed.
        self.ops_total = 0
        self.ops_ok = 0
        self.errors: list[str] = []
        self.sim_s = 0.0
        self.counts: Counter[str] = Counter()
        self._live: list[Any] = []

    # -- hooks -------------------------------------------------------------------

    def install(self) -> None:
        import repro.api
        import repro.workloads.registry
        from repro.spark.driver import AppHandle

        prof = self.prof
        prof.replace(repro.api.Session, "__init__", self._wrap_init)
        prof.replace(repro.api.Session, "run_until_idle", self._wrap_run)
        # The two names every entry point builds workloads through.
        for module in (repro.api, repro.workloads.registry):
            prof.replace(
                module,
                "build_workload",
                lambda fn: self._setup_frame(fn, "build_workload"),
            )
        if not self.session_ops:
            prof.replace(AppHandle, "record", self._wrap_record)

    def _setup_frame(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        """``fn`` timed as set-up, with the garbage collector held off.

        A full collection costs about 0.1 s once the heap holds earlier
        sessions' results, and whether one lands inside a set-up call
        depends on the seed.  Held off, it runs at the next allocation
        after the call returns, inside the run's wall time."""
        timed = self.prof.wrap(fn, SETUP, key)

        def frame(*args: Any, **kwargs: Any) -> Any:
            if not gc.isenabled():  # nested in another set-up call
                return timed(*args, **kwargs)
            gc.disable()
            try:
                return timed(*args, **kwargs)
            finally:
                gc.enable()

        return frame

    def _wrap_init(self, init: Callable[..., None]) -> Callable[..., None]:
        timed = self._setup_frame(init, "Session.__init__")

        def __init__(session: Any, *args: Any, **kwargs: Any) -> None:
            if self.t_start is None:
                self.t_start = time.perf_counter()
            timed(session, *args, **kwargs)
            self._live.append(session)

        return __init__

    def _wrap_run(self, run: Callable[..., Any]) -> Callable[..., Any]:
        def run_until_idle(session: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                results = run(session, *args, **kwargs)
            except Exception as exc:
                with self.prof.excluded():
                    self._close(session, error=f"session raised: {exc}")
                raise
            with self.prof.excluded():
                self._close(session, error=None)
            return results

        return run_until_idle

    def _wrap_record(self, record: Callable[..., Any]) -> Callable[..., Any]:
        def record_hook(handle: Any) -> Any:
            with self.prof.excluded():
                # Reaped in the instant it finished: finish time is the clock.
                self._tally(check_app(handle, handle.finish_time, exactly_once=True))
                self.counts["apps_aborted"] += handle.aborted
            return record(handle)

        return record_hook

    # -- accounting --------------------------------------------------------------

    def _tally(self, error: str | None) -> None:
        if error is None:
            self.ops_ok += 1
        elif len(self.errors) < 20:
            self.errors.append(error)

    def _close(self, session: Any, error: str | None) -> None:
        """Harvest a finished session's counters and check its apps."""
        self._live.remove(session)
        self._harvest(session)
        if not self.session_ops:
            return
        if error is None:
            # Cluster churn legitimately re-runs tasks whose shuffle output
            # left with a node, so a task may succeed more than once there.
            exactly_once = session.dynamics is None
            now = session.sim.now
            self.counts["apps_aborted"] += sum(h.aborted for h in session.handles)
            for handle in session.handles:
                error = check_app(handle, now, exactly_once)
                if error is not None:
                    break
        self._tally(error)

    def _harvest(self, session: Any) -> None:
        c = session.ctx.obs.metrics.counters
        counts = self.counts
        self.sim_s += session.sim.now
        counts["events_fired"] += c.get("sim.events_fired", 0.0)
        counts["events_scheduled"] += c.get("sim.events_scheduled", 0.0)
        counts["refits"] += c.get("fluid.refits", 0.0)
        counts["refits_coalesced"] += c.get("fluid.refits_coalesced", 0.0)
        counts["beats"] += c.get("rm.beats", 0.0)
        counts["scatter_rows"] += c.get("nodetable.scatter_ops", 0.0)
        counts["launches"] += _counter_sum(c, "dispatch.launch.")
        counts["rejections"] += _counter_sum(c, "dispatch.reject.")
        counts["admissions"] += _counter_sum(c, "tm.admit.")
        counts["task_attempts"] += c.get("tasks.launched", 0.0)
        counts["tasks_succeeded"] += c.get("tasks.succeeded", 0.0)
        counts["rekeys"] += session.ctx.pools.rekeys
        counts["compactions"] += session.ctx.pools.compactions
        counts["ring_drops"] += session.ctx.obs.spans.dropped + session.ctx.trace.dropped
        dynamics = session.dynamics
        counts["dynamics_events"] += len(dynamics.applied) if dynamics is not None else 0

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one entry-point call; sessions it never drained through
        ``run_until_idle`` (the open loop's) are harvested when it returns."""
        try:
            return fn(*args, **kwargs)
        finally:
            self.t_end = time.perf_counter()
            with self.prof.excluded():
                for session in list(self._live):
                    self._live.remove(session)
                    self._harvest(session)

    @property
    def wall_s(self) -> float:
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start - self.prof.excluded_s


# -- workloads -------------------------------------------------------------------
#
# Each declares its operation count up front (``rec.ops_total``), makes every
# entry-point call through ``rec.call``, and returns the digest payload and
# the fidelity record (or None).


def run_fig5(seed: int, rec: Recorder) -> tuple[Any, Any]:
    from repro.experiments import calibration
    from repro.experiments.fig5 import fig5_grid, run_fig5

    # run_fig5 takes its trial seeds from the scale registry.
    scale = calibration.SCALES[FIG5_SCALE]
    calibration.SCALES[FIG5_SCALE] = dataclasses.replace(
        scale, seeds=(seed,) + scale.seeds[1:]
    )
    rec.ops_total = len(fig5_grid(FIG5_SCALE))
    result = rec.call(run_fig5, scale=FIG5_SCALE, jobs=1, cache=None)
    payload = {
        r.workload: [list(r.spark.runtimes), list(r.rupam.runtimes)]
        for r in result.rows
    }
    fidelity = {
        "avg_improvement_pct": result.average_improvement_pct,
        "paper_pct": PAPER_AVG_IMPROVEMENT_PCT,
        "gap_pp": PAPER_AVG_IMPROVEMENT_PCT - result.average_improvement_pct,
    }
    return payload, fidelity


def run_multitenant(seed: int, rec: Recorder) -> tuple[Any, Any]:
    from repro.experiments import multitenant as mt

    scale = mt.SCALES[MT_SCALE]
    tenants = mt.generate_tenants(
        scale.n_apps,
        scale.mean_interarrival_s,
        scale.base_seed,
        tuple(sorted(scale.workloads)),
    )
    rec.prof.replace(mt, "generate_tenants", lambda _: lambda *_args: tenants)
    # Shared runs, plus one isolated baseline per scheduler and workload.
    rec.ops_total = MT_TRIALS * (
        len(mt.SCENARIOS) + len(mt.isolated_specs(tenants, scale))
    )
    payload: list[Any] = [[[t.workload, t.arrival_s, t.weight] for t in tenants]]
    for trial in range(MT_TRIALS):
        result = rec.call(
            mt.run_figure_multitenant,
            scale=MT_SCALE,
            jobs=1,
            cache=None,
            seed=seed + 1000 * trial,
        )
        payload.append([mt.scenario_signature(s) for s in result.scenarios])
    return payload, None


def run_resilience(seed: int, rec: Recorder) -> tuple[Any, Any]:
    from repro.experiments import resilience as rs

    rec.ops_total = len(rs.SCENARIO_NAMES) * len(rs.SCHEDULERS)
    result = rec.call(rs.run_figure_resilience, scale=RESILIENCE_SCALE, seed=seed)
    payload = [rs.scenario_signature(o) for o in result.outcomes]
    return payload, None


def run_openloop(seed: int, rec: Recorder) -> tuple[Any, Any]:
    from repro.experiments.appbench import OpenLoopTier, run_open_loop

    tier = OpenLoopTier(
        submissions=OPEN_LOOP_SUBMISSIONS, seed=seed, trace_malloc=False
    )
    rec.ops_total = tier.submissions
    row = rec.call(run_open_loop, tier)
    if row["completed"] != tier.submissions:
        rec.errors.append(f"{row['completed']} of {tier.submissions} completed")
    if row["retained_final"] >= MAX_RETAINED_FINAL_PER_SUBMISSION * tier.submissions:
        rec.errors.append(
            f"{row['retained_final']} entities retained after every app was reaped"
        )
    return {k: row[k] for k in OPEN_LOOP_DIGEST_KEYS}, None


WORKLOADS: dict[str, tuple[Callable[[int, Recorder], tuple[Any, Any]], bool]] = {
    # name -> (runner, each Session is one operation)
    "fig5": (run_fig5, True),
    "multitenant": (run_multitenant, True),
    "resilience": (run_resilience, True),
    "openloop": (run_openloop, False),
}


def digest(payload: Any) -> str:
    """sha256 over the canonical JSON of a workload's simulated output."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(workload: str, seed: int, traced: bool) -> dict[str, Any]:
    """Import, run and check one workload; the pass's result record."""
    t0 = time.perf_counter()
    import numpy
    import repro  # noqa: F401
    import repro.experiments.appbench  # noqa: F401
    import repro.experiments.fig5  # noqa: F401
    import repro.experiments.multitenant  # noqa: F401
    import repro.experiments.resilience  # noqa: F401

    import_s = time.perf_counter() - t0

    runner, session_ops = WORKLOADS[workload]
    prof = LayerProfiler()
    rec = Recorder(prof, session_ops=session_ops)
    rec.install()
    if traced:
        prof.install()
    payload = fidelity = None
    try:
        payload, fidelity = runner(seed, rec)
    except Exception as exc:  # a failed operation; report it, don't crash
        rec.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        prof.restore()

    out: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "ok": not rec.errors and payload is not None,
        "errors": rec.errors,
        "ops_total": rec.ops_total,
        "ops_failed": rec.ops_total - rec.ops_ok,
        "wall_s": rec.wall_s,
        "setup_s": import_s + prof.inclusive_s[SETUP],
        "import_s": import_s,
        "sim_s": rec.sim_s,
        "counts": dict(rec.counts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(payload) if payload is not None else None,
        "fidelity": fidelity,
        "numpy": numpy.__version__,
    }
    if traced:
        out["profile"] = {
            "self_s": prof.layer_self_s(),
            "calls": {name: prof.calls[name] for name in prof.layers},
            "fn_self_s": prof.fn_self_s,
            "fn_calls": prof.fn_calls,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    print(json.dumps(run_pass(args.workload, seed, bool(args.traced))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
