"""End-to-end and per-layer benchmark of the four real ``Session`` runs.

Run one or more workloads (default: all four)::

    python3 bench/run.py [--workload W]... [--seed S] [--reps N]
        [--seconds S] [--trace 0|1] [--out FILE]

Compare two ``--out`` records against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py compare A.json B.json

Every pass runs in a fresh interpreter (``bench/passes.py``, with
``PYTHONPATH=src``) and ``PYTHONHASHSEED`` pinned: ``Session`` mutates a
module-global waterfill threshold, and hash randomization alone moves wall
time by about 2%.
Workloads are interleaved round-robin across repetitions, one pass at a
time.  ``--reps`` passes per workload run (default 3); with ``--seconds``,
rounds run instead while the next one still fits in that many seconds, and
at least one runs.  End-to-end metrics are medians over these untraced
passes.  One more, traced, pass gives the per-layer profile: without
``--trace`` both sets are reported, ``--trace 0`` reports the end-to-end
set only, ``--trace 1`` the per-layer set.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (operations over all passes) and ``metrics`` (each as
``{"value", "unit"}``; names carry a ``<workload>/`` prefix when several
workloads run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig5", "multitenant", "resilience", "openloop")
# With --seconds, the whole invocation ends within this many seconds, whatever
# its passes do.
RUN_DEADLINE_S = 170.0


class PassError(RuntimeError):
    """A pass interpreter crashed or ran out of time."""


def child_env() -> dict[str, str]:
    """The hermetic environment of a pass interpreter."""
    # RUPAM_* variables pick worker counts and perf toggles; the benchmark
    # measures the defaults, serially.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RUPAM_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_pass(
    workload: str, seed: int | None, traced: bool, deadline: float | None
) -> dict[str, Any]:
    """One pass of ``workload`` in a fresh interpreter; its result record."""
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "passes.py"),
        "--workload",
        workload,
        "--traced",
        str(int(traced)),
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics -----------------------------------------------------------------------


def summarize(values: list[float]) -> dict[str, Any]:
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def end_to_end(p: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    wall = p["wall_s"]
    return {
        "wall_s": wall,
        "tasks_per_s": p["counts"]["task_attempts"] / wall,
        "host_s_per_sim_hour": wall / (p["sim_s"] / 3600.0),
        "peak_rss_mb": p["peak_rss_mb"],
        "setup_s": p["setup_s"],
    }


def per_layer(t: dict[str, Any], untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    wall = t["wall_s"]
    c = t["counts"]
    self_s = t["profile"]["self_s"]
    calls = t["profile"]["calls"]
    m: dict[str, float] = {}
    for layer, s in self_s.items():
        m[f"{layer}.self_s"] = s
        m[f"{layer}.share"] = s / wall
        m[f"{layer}.calls"] = calls[layer]
    m.update(
        {
            "engine.events_fired": c["events_fired"],
            "engine.events_scheduled": c["events_scheduled"],
            "engine.us_per_event": 1e6 * self_s["engine"] / c["events_fired"],
            "fluid.refits": c["refits"],
            "fluid.refits_coalesced": c["refits_coalesced"],
            "monitor.beats": c["beats"],
            "monitor.scatter_rows": c["scatter_rows"],
            "dispatch.launches": c["launches"],
            "dispatch.launch_yield": c["launches"] / calls["dispatch"],
            "dispatch.rejections": c["rejections"],
            "pools.rekeys": c["rekeys"],
            "pools.compactions": c["compactions"],
            "task_manager.admissions": c["admissions"],
            "driver.task_attempts": c["task_attempts"],
            "driver.wasted_attempts": c["task_attempts"] - c["tasks_succeeded"],
            "driver.dynamics_events": c["dynamics_events"],
            "obs.spans": t["profile"]["fn_calls"]["Observability.record_span"],
            "obs.ring_drops": c["ring_drops"],
            "other.self_s": wall - sum(self_s.values()),
            "trace_overhead": wall / untraced_wall,
        }
    )
    return m


# -- one invocation ----------------------------------------------------------------


def environment(passes: list[dict[str, Any]]) -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"] if passes else None,
        "cpu": cpu,
    }


def measure(
    workloads: list[str],
    seed: int | None,
    reps: int,
    seconds: float | None,
    traced: bool,
) -> dict[str, dict[str, Any]]:
    """Untraced passes round-robin, then one traced pass per workload.

    ``reps`` rounds run; with ``seconds``, rounds run instead while the next
    one still fits in that many seconds, and at least one runs."""
    deadline = None if seconds is None else time.monotonic() + RUN_DEADLINE_S
    untraced: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    t0 = time.monotonic()
    round_s: list[float] = []

    def more() -> bool:
        if seconds is None:
            return len(round_s) < reps
        if not round_s:
            return True
        return time.monotonic() - t0 + statistics.median(round_s) <= seconds

    while more():
        start = time.monotonic()
        for w in workloads:
            untraced[w].append(run_pass(w, seed, False, deadline))
        round_s.append(time.monotonic() - start)
    return {
        w: {
            "untraced": untraced[w],
            "traced": run_pass(w, seed, True, deadline) if traced else None,
        }
        for w in workloads
    }


def report_workload(
    w: str, runs: dict[str, Any], spec: dict[str, Any], baseline: dict[str, Any]
) -> dict[str, Any]:
    """Summaries, checks and digests of one workload's passes."""
    passes = runs["untraced"] + ([runs["traced"]] if runs["traced"] else [])
    digests = {p["digest"] for p in passes}
    errors = [e for p in passes for e in p["errors"]]
    if len(digests) > 1:
        errors.append("digest differs between passes")
    rec: dict[str, Any] = {
        "seed": passes[0]["seed"],
        "passes": len(passes),
        "ops_total": sum(p["ops_total"] for p in passes),
        "ops_failed": sum(p["ops_failed"] for p in passes),
        "errors": errors,
        "apps_aborted": passes[0]["counts"].get("apps_aborted", 0),
        "digest": passes[0]["digest"],
        "fidelity": passes[0]["fidelity"],
        "end_to_end": {},
    }
    rec["correct"] = not errors and rec["ops_failed"] == 0
    per_pass = [end_to_end(p) for p in runs["untraced"]]
    for m in spec["end_to_end"]:
        rec["end_to_end"][m["name"]] = {
            "unit": m["unit"],
            **summarize([v[m["name"]] for v in per_pass]),
        }
    if runs["traced"]:
        wall = rec["end_to_end"]["wall_s"]["median"]
        layer = per_layer(runs["traced"], wall)
        rec["per_layer"] = {
            m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        rec["traced_wall_s"] = runs["traced"]["wall_s"]
        prof = runs["traced"]["profile"]
        rec["entry_points"] = {
            key: {"self_s": prof["fn_self_s"][key], "calls": calls}
            for key, calls in prof["fn_calls"].items()
        }

    base = baseline.get("workloads", {}).get(w)
    if base is None or base["seed"] != rec["seed"]:
        rec["digest_status"] = f"no baseline digest for seed {rec['seed']}"
    elif base["digest"] == rec["digest"]:
        rec["digest_status"] = "matches baseline"
    else:
        rec["digest_status"] = f"DIGEST CHANGED (baseline {base['digest'][:12]})"
    return rec


def print_workload(w: str, rec: dict[str, Any]) -> None:
    print(f"== {w} (seed {rec['seed']}, {rec['passes']} passes)")
    print(
        f"ops_failed/ops_total: {rec['ops_failed']}/{rec['ops_total']}"
        f"  (apps aborted at the task-failure limit per pass: {rec['apps_aborted']})"
    )
    for e in rec["errors"][:10]:
        print(f"  FAILED: {e}")
    print(f"digest: {rec['digest'][:12] if rec['digest'] else None}  {rec['digest_status']}")
    fid = rec["fidelity"]
    if fid:
        print(
            f"fidelity: average improvement {fid['avg_improvement_pct']:.1f}% "
            f"vs paper {fid['paper_pct']:.1f}% (gap {fid['gap_pp']:.1f} pp)"
        )
    for name, s in rec["end_to_end"].items():
        print(
            f"  {name:<22} {s['median']:>12.4f} {s['unit']:<6}"
            f" q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}"
        )
    if "per_layer" in rec:
        print(f"  traced pass: wall {rec['traced_wall_s']:.3f} s")
        for name, v in rec["per_layer"].items():
            print(f"  {name:<28} {v['value']:>14.4f} {v['unit']}")
        hot = sorted(rec["entry_points"].items(), key=lambda kv: -kv[1]["self_s"])
        print("  hottest entry points (self s, calls):")
        for key, v in hot[:5]:
            print(f"    {key:<36} {v['self_s']:>8.3f} {v['calls']:>10}")


def result_line(
    records: dict[str, dict[str, Any]], trace: int | None
) -> dict[str, Any]:
    """The last-line JSON object: end-to-end metrics unless ``trace`` is 1,
    per-layer metrics unless it is 0."""
    metrics: dict[str, Any] = {}
    for w, rec in records.items():
        prefix = f"{w}/" if len(records) > 1 else ""
        if trace != 1:
            for name, s in rec["end_to_end"].items():
                metrics[prefix + name] = {"value": s["median"], "unit": s["unit"]}
        if trace != 0:
            for name, v in rec["per_layer"].items():
                metrics[prefix + name] = v
    return {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["ops_total"] for r in records.values()),
        "failed": sum(r["ops_failed"] for r in records.values()),
        "metrics": metrics,
    }


def load_json(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def main_run(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Run the benchmark workloads.")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="default: each figure's own")
    ap.add_argument("--reps", type=int, default=3, help="untraced passes per workload")
    ap.add_argument(
        "--seconds", type=float, default=None, help="instead of --reps: a time budget"
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    baseline_path = ROOT / "bench" / "baseline.json"
    baseline = load_json(baseline_path) if baseline_path.exists() else {}
    workloads = args.workload or list(WORKLOADS)

    try:
        runs = measure(workloads, args.seed, args.reps, args.seconds, args.trace != 0)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = {w: report_workload(w, runs[w], spec, baseline) for w in workloads}
    for w, rec in records.items():
        print_workload(w, rec)
    if args.out is not None:
        passes = [p for r in runs.values() for p in r["untraced"]]
        args.out.write_text(
            json.dumps(
                {
                    "env": environment(passes),
                    "settings": {
                        "reps": args.reps,
                        "seconds": args.seconds,
                        "trace": args.trace,
                    },
                    "workloads": records,
                },
                indent=1,
            )
            + "\n"
        )
    print(json.dumps(result_line(records, args.trace)))
    return 0


# -- compare -----------------------------------------------------------------------


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[tuple]:
    """Rows of (workload, metric, a, b, worse-by, bound, status), B vs parent A.

    A row is ``unresolved`` when A's own spread (q3 - q1 over the median) is
    wider than the bound, unless every pass of B beats every pass of A."""
    rows = []
    for w, ra in a["workloads"].items():
        rb = b["workloads"].get(w)
        if rb is None:
            continue
        for m in spec["end_to_end"]:
            sa, sb = ra["end_to_end"][m["name"]], rb["end_to_end"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            spread = (sa["q3"] - sa["q1"]) / sa["median"]
            if m["better"] == "lower":
                all_better = max(sb["values"]) < min(sa["values"])
            else:
                all_better = min(sb["values"]) > max(sa["values"])
            if spread > m["bound"] and not all_better:
                status = "unresolved"
            elif worse > m["bound"]:
                status = "REGRESSION"
            else:
                status = "ok"
            rows.append(
                (w, m["name"], sa["median"], sb["median"], worse, m["bound"], status)
            )
    return rows


def main_compare(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Compare two --out records (B vs parent A).")
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    spec = load_json(ROOT / "BENCHMARK.json")
    rows = compare(load_json(args.a), load_json(args.b), spec)
    print(
        f"{'workload':<12} {'metric':<20} {'A median':>12} {'B median':>12}"
        f" {'worse by':>9} {'bound':>6}  status"
    )
    for w, name, ma, mb, worse, bound, status in rows:
        print(
            f"{w:<12} {name:<20} {ma:>12.4f} {mb:>12.4f}"
            f" {100 * worse:>8.1f}% {100 * bound:>5.0f}%  {status}"
        )
    return 1 if any(r[-1] == "REGRESSION" for r in rows) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
