#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload explain --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout (``src/repro`` is imported from
there, nothing needs installing).  The workload's inputs are generated
from ``--seed``; its set-up is timed several times and its work phase
repeats whole passes for the rest of ``--seconds`` (counted from the
start, set-up included), starting a pass only while it is expected to
end in time.  Every cell of every pass is checked (cache invariants,
byte ledgers, trace and attribution reconciliation, tenant isolation,
simulated results that repeat exactly), and the command exits 1 when
any check fails.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, host
times in reference seconds (see ``perfbench/reference.py``);
``--trace 1`` runs set-up once, alternates untraced and span-traced
passes, and prints the per-layer metrics instead, writing the span
records to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One worker process, at most two threads: numpy's BLAS pool would add one
# per core.  Set before anything imports numpy; the fresh-interpreter
# imports inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

#: Set-up repetitions (and fresh-interpreter imports) behind ``setup_s``.
SETUP_REPS = 5
#: Reference-kernel timings before each set-up repetition's import and set-up.
SETUP_REF = 4
#: Passes every run makes at least, so pass-to-pass determinism is checked.
MIN_PASSES = 3
#: Simulated frame-time metrics: printed by every run, reported by the
#: traced run (their spread over seeds is too wide for an end-to-end bound).
SIM_TIMES = ("sim_total_time_s", "sim_frame_p50_ms", "sim_frame_p99_ms", "tenant_p99_worst_ms")
#: Layers whose self time the traced run reports (span-name prefixes).
LAYERS = (
    "import", "volume", "importance", "tables", "camera", "runtime", "storage",
    "cache", "policies", "faults", "trace", "forensics", "obs",
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken import, ...)."""


def import_breakdown() -> dict:
    """``import repro`` in a fresh interpreter under ``-X importtime``.

    Returns the cumulative import time of the ``repro`` package and of
    every outermost ``scipy`` import inside it, in seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"fresh-interpreter import failed: {proc.stderr.strip()[-300:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    repro_s = scipy_s = 0.0
    ancestors: list = []  # (depth, inside scipy) from the root down
    for depth, name, cum in reversed(rows):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        in_scipy = bool(ancestors) and ancestors[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not in_scipy:
            scipy_s += cum
        if name == "repro":
            repro_s = cum
        ancestors.append((depth, in_scipy or is_scipy))
    if repro_s <= 0.0:
        raise BenchError("no 'repro' row in the -X importtime output")
    return {"repro_s": repro_s, "scipy_s": scipy_s}


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_passes(workload, deadline: float, recorders) -> list:
    """At least ``MIN_PASSES`` whole passes, then more while the next one
    (as long as the median pass so far) should end by ``deadline``, a
    ``time.perf_counter()`` value.  ``recorders(i)`` gives pass ``i``'s
    ``(recorder, traced)``.  Returns ``[(traced, wall_s, {cell key: Cell})]``."""
    passes = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() + median([wall for _, wall, _ in passes]) < deadline
    ):
        rec, traced = recorders(len(passes))
        gc.collect()  # a pass must not pay for the previous pass's garbage
        t0 = time.perf_counter()
        cells = {key: workload.run_cell(key, rec, traced) for key in workload.cell_keys()}
        passes.append((traced, time.perf_counter() - t0, cells))
    return passes


def check_passes(workload, passes) -> tuple:
    """Apply the cross-pass checks; returns ``(attempted, failed, notes)``."""
    first = passes[0][2]
    for key, problems in workload.final_checks(first).items():
        first[key].failures.extend(problems)
    for _, _, cells in passes[1:]:
        for key, cell in cells.items():
            if cell.sim != first[key].sim:
                cell.failures.append("simulated results differ from the first pass")
    attempted = failed = 0
    notes = []
    for i, (_, _, cells) in enumerate(passes):
        for key, cell in cells.items():
            attempted += len(cell.frames)
            if cell.failures:
                failed += len(cell.frames)
                notes += [f"pass {i} cell {key}: {msg}" for msg in cell.failures]
    return attempted, failed, notes


def pass_host_s(passes, traced: bool) -> float:
    """Host seconds of one pass: every unit's fastest time across passes.

    A unit (one frame, or one analysis call) does identical work in every
    pass, and interference from the rest of the machine only ever adds
    time to it, so its fastest repeat is the steadiest estimate of its
    cost; summing those gives the pass.
    """
    chosen = [cells for t, _, cells in passes if t == traced]
    total = 0.0
    for key in chosen[0]:
        runs = [cells[key].units for cells in chosen]
        if len({len(units) for units in runs}) == 1:
            total += sum(min(samples) for samples in zip(*runs))
        else:  # unit counts differ (should not happen): whole-cell minimum
            total += min(sum(units) for units in runs)
    return total


def pass_kernel_s(passes) -> float:
    """The reference kernel's time in the untraced passes.

    The kernel ran at the same points of every pass; like a unit, each
    point's time is its fastest across the passes.  Returns their mean.
    """
    chosen = [cells for traced, _, cells in passes if not traced]
    points = [s for key in chosen[0] for s in zip(*[cells[key].ref for cells in chosen])]
    return sum(min(samples) for samples in points) / len(points)


def sim_metrics(cells) -> dict:
    """The simulated metrics of one pass (every pass repeats them exactly)."""
    import numpy as np

    frames = np.array([t for cell in cells.values() for t in cell.frames])
    p50, p99 = np.quantile(frames, [0.5, 0.99])
    viewers = {v: f for cell in cells.values() for v, f in cell.viewers.items()}
    rates = [r for cell in cells.values() for r in cell.hit_rates.values()]
    n_visible = sum(c.n_visible for c in cells.values())
    return {
        "sim_total_time_s": float(frames.sum()),
        "sim_frame_p50_ms": float(p50) * 1e3,
        "sim_frame_p99_ms": float(p99) * 1e3,
        "fast_miss_rate": _ratio(sum(c.n_fast_misses for c in cells.values()), n_visible),
        "tenant_p99_worst_ms": max(float(np.quantile(f, 0.99)) for f in viewers.values()) * 1e3,
        # Jain's index; all-zero hit rates are perfectly (if uselessly) even.
        "fairness_jain": _ratio(sum(rates) ** 2, len(rates) * sum(r * r for r in rates)) or 1.0,
        "_n_frames": int(frames.size),
        "_beyond_p99": int((frames > p99).sum()),
        "_n_viewers": len(viewers),
        "_viewer_frames": min(len(f) for f in viewers.values()),
        "_degraded": sum(c.degraded_frames for c in cells.values()),
    }


def summed_counts(cells) -> dict:
    out: dict = {}
    for cell in cells.values():
        for name, value in cell.counts.items():
            out[name] = out.get(name, 0) + value
    return out


def layer_metrics(workload, setup_rec, work_rec, passes, import_parts, setup_wall_s) -> dict:
    """The per-layer metrics of a traced run (work-phase values per pass)."""
    traced = [p for p in passes if p[0]]
    n = len(traced)
    counts = summed_counts(traced[0][2])
    counts.update(workload.setup_counts())
    sim = sim_metrics(traced[0][2])

    def work_s(*names):
        return sum(work_rec.incl_s(name) for name in names) / n

    def work_calls(name):
        return work_rec.calls(name) / n

    blocks = counts.get("storage.blocks_requested", 0)
    fetch_s = work_s("storage.fetch_many")
    prefetch_s = work_s("storage.prefetch_many")
    frames = workload.frames_per_pass()
    out = {
        "import.repro_s": import_parts["repro_s"],
        "import.scipy_s": import_parts["scipy_s"],
        "volume.synth_s": setup_rec.incl_s("volume.synth"),
        "volume.bytes": counts.get("volume.bytes", 0),
        "importance.build_s": setup_rec.incl_s("importance.build"),
        "tables.visible_build_s": setup_rec.incl_s("tables.visible_build"),
        "tables.entries": counts.get("tables.entries", 0),
        "tables.mean_set_size": counts.get("tables.mean_set_size", 0.0),
        "tables.lookup_s": work_s("tables.lookup", "tables.filter"),
        "tables.lookups": work_calls("tables.lookup"),
        "camera.ground_truth_s": setup_rec.incl_s("camera.ground_truth")
        + work_s("camera.ground_truth"),
        "camera.visible_ids": counts.get("camera.visible_ids", 0),
        "runtime.replay_s": work_s("runtime.replay"),
        "runtime.frames": frames,
        "storage.fetch_many_s": fetch_s,
        "storage.prefetch_many_s": prefetch_s,
        "storage.us_per_block": _ratio(fetch_s + prefetch_s, blocks) * 1e6,
        "storage.blocks_requested": blocks,
        "storage.bytes_moved": counts.get("storage.bytes_moved", 0),
        "storage.dram_hit_rate": _ratio(counts.get("dram.hits", 0), counts.get("dram.accesses", 0)),
        "storage.ssd_hit_rate": _ratio(counts.get("ssd.hits", 0), counts.get("ssd.accesses", 0)),
        "storage.dram_evictions": counts.get("dram.evictions", 0),
        "storage.ssd_evictions": counts.get("ssd.evictions", 0),
        "cache.admit_s": work_s("cache.admit"),
        "cache.admit_calls": work_calls("cache.admit"),
        "cache.admit_many_s": work_s("cache.admit_many"),
        "policies.hook_s": work_s("policies.hook"),
        "policies.hook_calls": work_calls("policies.hook"),
        "prefetch.issued": counts.get("prefetch.issued", 0),
        "prefetch.useful_ratio": _ratio(counts.get("prefetch.useful", 0),
                                        counts.get("prefetch.evaluated", 0)),
        "prefetch.recall": _ratio(counts.get("prefetch.useful", 0),
                                  counts.get("prefetch.demand_window", 0)),
        "faults.injected": counts.get("faults.injected", 0),
        "faults.retries": counts.get("faults.retries", 0),
        "faults.dropped_blocks": counts.get("faults.dropped_blocks", 0),
        "faults.degraded_frames": sim["_degraded"],
        "faults.draw_s": work_s("faults.draw"),
        "trace.record_s": work_s("trace.record"),
        "trace.events": counts.get("trace.events", 0),
        "trace.dropped": counts.get("trace.dropped", 0),
        "obs.attribution_s": work_s("obs.attribution"),
        "obs.regret_s": work_s("obs.regret"),
        "forensics.evictions_recorded": counts.get("forensics.evictions_recorded", 0),
        "forensics.re_misses": counts.get("forensics.re_misses", 0),
        "failed_frame_share": _ratio(sim["_degraded"], sim["_n_frames"]),
        **{name: sim[name] for name in SIM_TIMES},
    }
    layer_self = setup_rec.layer_self_s()
    for layer, value in work_rec.layer_self_s().items():
        layer_self[layer] = layer_self.get(layer, 0.0) + value / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    wall_s = setup_wall_s + sum(wall for _, wall, _ in traced) / n
    named_s = setup_rec.total_self_s() + work_rec.total_self_s() / n
    out["unattributed_s"] = wall_s - named_s
    out["trace_overhead_ratio"] = _ratio(pass_host_s(passes, True), pass_host_s(passes, False))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is for the benchmark's own tests only")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    spec = load_spec()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the timed in-process import)
    import_inproc_s = time.perf_counter() - t0

    import reference
    from probes import NullRecorder, Recorder, write_span_file
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](SIZES[args.size], args.seed)
    null = NullRecorder()

    if args.trace:
        setup_rec, work_rec = Recorder(), Recorder()
        setup_rec.stats["import.repro"] = [1, import_inproc_s, import_inproc_s]
        import_parts = import_breakdown()
        t0 = time.perf_counter()
        workload.setup(setup_rec)
        setup_wall_s = import_inproc_s + time.perf_counter() - t0
        passes = run_passes(
            workload, deadline,
            lambda i: (work_rec, True) if i % 2 else (null, False),
        )
    else:
        imports, setups, steps = [], [], []  # per set-up steps: {step: seconds}
        refs = []  # per set-up: the reference kernel's times
        reference.timed()  # the first call pays one-time costs
        for _ in range(SETUP_REPS):
            refs.append([reference.timed() for _ in range(SETUP_REF)])
            imports.append(import_breakdown()["repro_s"])
            gc.collect()
            refs[-1] += [reference.timed() for _ in range(SETUP_REF)]
            rec = Recorder()  # set-up has a handful of coarse steps: no overhead
            t0 = time.perf_counter()
            workload.setup(rec)
            setups.append(time.perf_counter() - t0)
            steps.append({name: stat[1] for name, stat in rec.stats.items()})
            steps[-1]["other"] = setups[-1] - sum(steps[-1].values())
        passes = run_passes(workload, deadline, lambda i: (null, False))

    attempted, failed, notes = check_passes(workload, passes)
    sim = sim_metrics(passes[0][2])
    frames = workload.frames_per_pass()
    print(f"workload={workload.name} seed={args.seed} size={args.size} trace={args.trace} "
          f"passes={len(passes)} frames/pass={frames}")
    print(f"simulated frames pooled per pass: {sim['_n_frames']} ({sim['_beyond_p99']} beyond "
          f"p99); viewers: {sim['_n_viewers']} x >= {sim['_viewer_frames']} frames")
    for name in SIM_TIMES:
        print(f"{name}: {sim[name]:.6f} {'sim_s' if name.endswith('_s') else 'sim_ms'}")
    print(f"failed_frame_share: {_ratio(sim['_degraded'] * len(passes) + failed, attempted):.6f} "
          f"ratio = ({sim['_degraded']} degraded x {len(passes)} passes + {failed} "
          f"check-failed) / {attempted} frames attempted")

    if args.trace:
        metrics = layer_metrics(workload, setup_rec, work_rec, passes, import_parts, setup_wall_s)
        declared = spec["per_layer"]
        out = SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_span_file(out, {"setup": setup_rec, "work": work_rec})
        print(f"spans: {len(setup_rec.spans) + len(work_rec.spans)} written to "
              f"{out.relative_to(ROOT)} ({work_rec.dropped_spans} over the cap)")
    else:
        # Host times in reference seconds (perfbench/reference.py): each
        # measured time is scaled by REF_S over the kernel's time, taken
        # with the same statistic -- the median of set-ups, the fastest
        # repeat of each set-up step, the fastest repeat of each pass point.
        measured_pass_s = pass_host_s(passes, False)
        pass_s = measured_pass_s * reference.REF_S / pass_kernel_s(passes)
        measured_setup_s = median(imports) + median(setups)
        setup_s = measured_setup_s * reference.REF_S / (median([sum(r) for r in refs]) / len(refs[0]))
        # Like a pass, a cold process is estimated from each step's fastest
        # repeat; setup_s itself stays the median of whole set-ups.
        fastest_setup_s = min(imports) + sum(min(rep[name] for rep in steps) for name in steps[0])
        fastest_kernel_s = sum(min(samples) for samples in zip(*refs)) / len(refs[0])
        metrics = {
            "setup_s": setup_s,
            "wall_s": fastest_setup_s * reference.REF_S / fastest_kernel_s + pass_s,
            "frames_per_s": frames / pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{k: v for k, v in sim.items() if not k.startswith("_")},
        }
        declared = spec["end_to_end"]
        print(f"measured: set-up {measured_setup_s:.4f} s = import {median(imports):.4f} s "
              f"(median of {SETUP_REPS} fresh interpreters) + set-up {median(setups):.4f} s "
              f"(median of {SETUP_REPS}); one pass {measured_pass_s:.4f} s; reference seconds "
              f"per second: set-up {setup_s / measured_setup_s:.4f}, pass "
              f"{pass_s / measured_pass_s:.4f}")
    for entry in declared:
        print(f"  {entry['name']:<30} {metrics[entry['name']]:>16.6f} {entry['unit']}")
    for note in notes:
        print(f"CHECK FAILED: {note}")
    result = {
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in declared
        },
    }
    print(json.dumps(result))
    return 0 if not notes else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
