"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import time

import pytest

import passes
import run as bench
from layers import LAYERS, LayerProfiler


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Outer:
    def step(self) -> None:
        _busy(0.030)
        Inner().work()
        Inner().work()


class Inner:
    def work(self) -> None:
        _busy(0.020)
        Inner().leaf()

    def leaf(self) -> None:
        _busy(0.005)


SYNTHETIC = {
    "outer": ((__name__, "Outer", ("step",)),),
    "inner": ((__name__, "Inner", ("work", "leaf")),),
}


def test_self_times_and_other_sum_to_wall():
    prof = LayerProfiler(SYNTHETIC)
    prof.install()
    try:
        t0 = time.perf_counter()
        _busy(0.010)  # unwrapped: lands in "other"
        Outer().step()
        with prof.excluded():
            _busy(0.010)  # benchmark work: charged to nothing
        wall = time.perf_counter() - t0 - prof.excluded_s
    finally:
        prof.restore()
    self_s = prof.layer_self_s()
    other = 0.010
    assert sum(self_s.values()) + other == pytest.approx(wall, rel=0.01)
    assert self_s["outer"] == pytest.approx(0.030, abs=0.003)
    assert self_s["inner"] == pytest.approx(0.050, abs=0.003)
    assert prof.calls == {"outer": 1, "inner": 4, "setup": 0}
    assert prof.excluded_s == pytest.approx(0.010, abs=0.002)


def _entry_points():
    """Every attribute a pass replaces, as currently bound."""
    import repro.api
    from repro.experiments import multitenant as mt

    current = {
        (cls_name, name): vars(getattr(importlib.import_module(mod), cls_name))[name]
        for targets in LAYERS.values()
        for mod, cls_name, methods in targets
        for name in methods
    }
    current["Session.__init__"] = repro.api.Session.__init__
    current["Session.run_until_idle"] = repro.api.Session.run_until_idle
    current["build_workload"] = repro.api.build_workload
    current["generate_tenants"] = mt.generate_tenants
    return current


def test_install_wraps_every_entry_point_and_restore_undoes_it():
    before = _entry_points()
    prof = LayerProfiler()
    prof.install()
    try:
        wrapped = _entry_points()
        layer_keys = [k for k in before if isinstance(k, tuple)]
        assert all(wrapped[k] is not before[k] for k in layer_keys)
    finally:
        prof.restore()
    assert _entry_points() == before


@pytest.fixture(scope="module")
def short_multitenant():
    """The multitenant workload cut to two trials, to keep the tests quick."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(passes, "MT_TRIALS", 2)
        yield


@pytest.fixture(scope="module")
def multitenant_passes(short_multitenant):
    """Seed 7 traced and untraced; every wrapper comes off afterwards."""
    before = _entry_points()
    traced = passes.run_pass("multitenant", 7, traced=True)
    assert _entry_points() == before
    return {
        "traced": traced,
        "untraced": passes.run_pass("multitenant", 7, traced=False),
    }


def _multitenant_payload(seed):
    prof = LayerProfiler()
    rec = passes.Recorder(prof)
    rec.install()
    try:
        payload, _ = passes.run_multitenant(seed, rec)
    finally:
        prof.restore()
    return payload


def test_passes_succeed_and_traced_digest_equals_untraced(multitenant_passes):
    for p in multitenant_passes.values():
        assert p["ok"], p["errors"]
        # Per trial: 4 shared runs + 2 schedulers x 3 workloads isolated.
        assert p["ops_failed"] == 0 and p["ops_total"] == 2 * (4 + 6)
    t, u = multitenant_passes["traced"], multitenant_passes["untraced"]
    assert t["digest"] == u["digest"]
    assert t["counts"] == u["counts"]
    assert t["wall_s"] > 0 and t["setup_s"] > t["import_s"] > 0


def test_a_different_seed_reseeds_the_simulation_of_the_same_trace(
    multitenant_passes,
):
    payload7 = _multitenant_payload(7)
    payload8 = _multitenant_payload(8)
    # Same seed, same digest, here and in the pass's own interpreter.
    assert passes.digest(payload7) == multitenant_passes["untraced"]["digest"]
    assert payload8[0] == payload7[0]
    assert payload8[1:] != payload7[1:]


def test_first_trial_at_the_figure_seed_is_the_cli_figure(short_multitenant):
    from repro.experiments import multitenant as mt

    cli = mt.run_figure_multitenant(scale=passes.MT_SCALE, jobs=1, cache=None)
    payload = _multitenant_payload(cli.seed)
    assert payload[0] == [[t.workload, t.arrival_s, t.weight] for t in cli.tenants]
    assert payload[1] == [mt.scenario_signature(s) for s in cli.scenarios]


def test_profile_accounts_for_the_traced_wall(multitenant_passes):
    t = multitenant_passes["traced"]
    layer = bench.per_layer(t, multitenant_passes["untraced"]["wall_s"])
    total = sum(layer[f"{name}.self_s"] for name in LAYERS) + layer["other.self_s"]
    assert total == pytest.approx(t["wall_s"], rel=0.01)
    assert 0.0 <= layer["other.self_s"] < 0.1 * t["wall_s"]
    assert all(layer[f"{name}.calls"] > 0 for name in LAYERS)


@pytest.fixture()
def finished_app():
    from repro.api import Session

    session = Session(cluster="hydra", scheduler="spark", seed=3, monitor_interval=None)
    handle = session.submit("lr", size_gb=0.1, iterations=1, partitions=4)
    session.run_until_idle()
    return handle, session.sim.now


def test_checker_accepts_a_real_run(finished_app):
    handle, now = finished_app
    assert passes.check_app(handle, now, exactly_once=True) is None


def test_checker_flags_a_duplicate_success(finished_app):
    handle, now = finished_app
    win = next(r for r in handle.runs if r.metrics.succeeded)
    handle.runs.append(copy.copy(win))
    assert "succeeded 2 times" in passes.check_app(handle, now, exactly_once=True)
    # Where cluster churn may re-run tasks, a second success is legitimate.
    assert passes.check_app(handle, now, exactly_once=False) is None


def test_checker_accepts_a_speculative_copy_that_also_succeeded(finished_app):
    handle, now = finished_app
    win = next(r for r in handle.runs if r.metrics.succeeded)
    # The copy ends in the same instant as the attempt it races.
    race = copy.copy(win)
    race.metrics = dataclasses.replace(
        win.metrics, attempt=win.metrics.attempt + 1, speculative=True
    )
    handle.runs.append(race)
    assert passes.check_app(handle, now, exactly_once=True) is None


def test_checker_flags_a_task_with_no_success(finished_app):
    handle, now = finished_app
    for r in handle.runs:
        if r.metrics.succeeded:
            r.metrics.succeeded = False
            break
    assert "never succeeded" in passes.check_app(handle, now, exactly_once=False)


def test_checker_accepts_only_an_abort_at_the_failure_limit(finished_app):
    handle, now = finished_app
    handle.aborted = True
    assert "aborted with no task at" in passes.check_app(handle, now, exactly_once=True)
    limit = handle.runs[0].taskset.ctx.conf.max_task_failures
    failed = handle.runs[0]
    for _ in range(limit):
        attempt = copy.copy(failed)
        attempt.metrics = copy.copy(failed.metrics)
        attempt.metrics.succeeded = False
        handle.runs.append(attempt)
    assert passes.check_app(handle, now, exactly_once=True) is None


def test_checker_flags_an_attempt_past_the_clock(finished_app):
    handle, now = finished_app
    handle.runs[0].metrics.finish_time = now + 1.0
    assert "with the clock at" in passes.check_app(handle, now, exactly_once=True)


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def _record(values):
    return {"workloads": {"w": {"end_to_end": {"wall_s": bench.summarize(values)}}}}


def test_compare_reports_regressions_and_unresolved_rows():
    def status(parent, change):
        return bench.compare(_record(parent), _record(change), SPEC)[0][-1]

    steady = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert status(steady, [10.3, 10.4, 10.2, 10.3, 10.5]) == "ok"
    assert status(steady, [11.5, 11.6, 11.4, 11.5, 11.7]) == "REGRESSION"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert status(noisy, [11.5] * 5) == "unresolved"
    # ...unless every pass of the change beats every pass of the parent.
    assert status(noisy, [7.0] * 5) == "ok"
