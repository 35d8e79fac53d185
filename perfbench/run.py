"""gftmux benchmark: ``simulate`` throughput per workload, per-stage traced timings.

    python3 perfbench/run.py                      # all workloads, untraced + traced
    python3 perfbench/run.py --workload ex1-waterfall --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --second-seed        # confirm on the held-out seed

The benchmark drives the program from outside, through the calls
``gftmux simulate`` makes: ``config`` builds the system,
``sim.monte_carlo`` runs the sweep and ``sim.write_csv`` writes the
rows.  Every measurement runs in a child process (``worker.py``) so that
CPU time and peak memory cover the sweep and its pool workers only.

``--trace 0`` prints the end-to-end metrics: the workload's sweep is
repeated for about ``--seconds`` (at least twice) and reduced to
medians, and set-up is timed in fresh interpreters.  ``--trace 1``
prints the per-layer metrics: one untraced sweep, then a replay of the
same trial indices with a span around each stage's public call.  The
spans are written to ``perfbench/out/`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the
frames simulated, ``failed`` the output checks that failed; a decoding
error is the simulation's measured result, not a failed operation.  Any
failed check exits 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from worker import COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

DEFAULT_SEED = 20260810
#: Held out: confirm a claimed gain here, on a seed not used while writing it.
SECOND_SEED = 20261017
DEFAULT_SECONDS = 20
#: Fresh interpreters per run; setup_s is their median.
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: tuple
    workers: int


# Closed loop from one process: each cell's next frame starts when the
# previous one is counted.  Why each workload exists is in BENCHMARK.json.
_DESK = ("sim.max_frames=1000",)  # frame cap per cell: one sweep takes ~8 s
WORKLOADS = {
    # Tiny code, 10 cells (5 SNRs x limits 10/50) under the preset's
    # 100-error rule: sweep-engine repetition, RNG set-up and numpy call
    # overhead dominate.
    "desk-sweep": Workload("desk_gf8", _DESK, workers=1),
    # The same cells and seed through sim's process-pool path.
    "desk-sweep-pool": Workload("desk_gf8", _DESK, workers=2),
    # Waterfall: layers stop anywhere from 4 iterations to the limit, so
    # the decoder does ~85% of the work.  Limit 10, not 50: a layer that
    # fails costs 5x a converging one at limit 50, which makes frame cost
    # so seed dependent that 20 frames cannot pin frames_per_s down.
    "ex1-waterfall": Workload(
        "ex1_bch127_113",
        ("channel.ebn0_db=[5.0]", "decoder.iterations=[10]", "sim.max_frames=20"),
        workers=1),
    # Nonbinary code above its waterfall: layers converge in 1-2
    # iterations, so the GF(2^7) matmuls of encode, GFT and inverse GFT
    # dominate.
    "ex3-clean": Workload(
        "ex3_rs127_121",
        ("channel.ebn0_db=[7.0]", "decoder.iterations=[50]", "sim.max_frames=30"),
        workers=1),
}

#: (name, unit, better) of the untraced metrics.
END_TO_END = (
    ("frames_per_s", "1/s", "higher"),
    ("cpu_ms_per_frame", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better, the end-to-end metric it should move and where).
PER_LAYER = (
    ("sim.draw_ms", "ms", "lower", "frames_per_s on desk-sweep"),
    ("txrx.encode_ms", "ms", "lower", "frames_per_s on ex3-clean"),
    ("txrx.multiplex_ms", "ms", "lower", "frames_per_s on ex3-clean"),
    ("channel.llr_ms", "ms", "lower", "guard: small everywhere, should not grow"),
    ("decoder.decode_ms", "ms", "lower", "frames_per_s on ex1-waterfall"),
    ("txrx.demultiplex_ms", "ms", "lower", "frames_per_s on ex3-clean"),
    ("decoder.ns_per_edge_iter", "ns", "lower", "frames_per_s on ex1-waterfall"),
    ("decoder.layer_iters_per_frame", "count", "lower",
     "cpu_ms_per_frame; exact for a seed"),
    ("decoder.converged_share", "ratio", "higher",
     "cpu_ms_per_frame; exact for a seed"),
    ("sim.self_ms", "ms", "lower", "frames_per_s on desk-sweep; derived"),
    ("sim.worker_busy_share", "ratio", "higher",
     "frames_per_s and cpu_ms_per_frame on desk-sweep-pool"),
    ("config.build_system_s", "s", "lower", "setup_s"),
    ("geometry.rank_s", "s", "lower", "setup_s on ex1-waterfall"),
    ("decoder.graph_s", "s", "lower", "setup_s"),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced ms/frame"),
    ("frame_error_rate", "ratio", "lower", "none: exact for a seed"),
)

#: Traced stage span -> per-layer metric (ms per frame).
STAGES = {
    "sim.draw": "sim.draw_ms",
    "txrx.encode": "txrx.encode_ms",
    "txrx.multiplex": "txrx.multiplex_ms",
    "channel.llr": "channel.llr_ms",
    "decoder.decode": "decoder.decode_ms",
    "txrx.demultiplex": "txrx.demultiplex_ms",
}

#: Real operations per edge per iteration (the paper's accounting),
#: restated here rather than read from gftmux.decoder so that the
#: edge_ops check does not test a constant against itself.
OPS_PER_EDGE = 3


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# -- child processes ----------------------------------------------------------


#: BLAS threads per process, so workers x BLAS threads stays within nproc
#: for every workload.  The program's BLAS calls are small (the binary
#: encode): a second thread doubles their CPU time without shortening
#: the wall time, by an amount that depends on what else the machine runs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    return dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})


def run_child(mode: str, spec: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"{mode} child exited {proc.returncode}: "
                         + " | ".join(tail), code=proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(spec: dict, env: dict) -> dict:
    """One fresh interpreter; times measured from just before it starts."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    stamps = run_child("setup", spec, env)
    return {"setup_s": stamps["graph"] - t0,
            "config.build_system_s": stamps["build"] - stamps["import"],
            "geometry.rank_s": stamps["rank"] - stamps["build"],
            "decoder.graph_s": stamps["graph"] - stamps["rank"]}


# -- output gate --------------------------------------------------------------


def identity_failures(cells: list, csv_text: str, edges: int, s: int,
                      n: int) -> list:
    """Exact counter identities of every cell and of the CSV rows written."""
    out = []
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != len(cells):
        return [f"csv has {len(rows)} rows for {len(cells)} cells"]
    for c, row in zip(cells, rows):
        tag = f"cell {c['ebn0_db']} dB/{c['iterations_limit']} it"
        if c["edge_ops"] != OPS_PER_EDGE * edges * c["iter_sum"]:
            out.append(f"{tag}: edge_ops {c['edge_ops']} != 3*E*iter_sum")
        if c["layer_decodes"] != s * c["frames"]:
            out.append(f"{tag}: layer_decodes {c['layer_decodes']} != s*frames")
        if sum(c["iter_hist"].values()) != c["layer_decodes"]:
            out.append(f"{tag}: iteration histogram does not sum to layer_decodes")
        if int(row["frames"]) != c["frames"] or int(row["edge_ops"]) != c["edge_ops"]:
            out.append(f"{tag}: csv frames/edge_ops differ from the counters")
        if c["global_errors"] == 0:
            if row["lambda"] != "" or c["composite_errors"] != 0:
                out.append(f"{tag}: composite errors without a global error")
            continue
        lam = float(row["lambda"])
        if not math.isclose(lam * c["global_errors"], c["composite_errors"],
                            rel_tol=1e-12):
            out.append(f"{tag}: composite_errors != lambda*global_errors")
        if not math.isclose(float(row["wer"]), lam / n * float(row["ger"]),
                            rel_tol=1e-12):
            out.append(f"{tag}: wer != (lambda/n)*ger")
    return out


def counter_failures(a: list, b: list, what: str) -> list:
    """Cells of two sweeps whose counters differ."""
    if len(a) != len(b):
        return [f"{what}: {len(a)} cells vs {len(b)}"]
    out = []
    for ca, cb in zip(a, b):
        diff = [k for k in ("ebn0_db", "iterations_limit", *COUNTERS, "iter_hist")
                if ca[k] != cb[k]]
        if diff:
            out.append(f"{what}: cell {ca['ebn0_db']} dB/{ca['iterations_limit']}"
                       f" it differs in {', '.join(diff)}")
    return out


# -- one run --------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict
    failures: list
    attempted: int
    cells: list
    env: dict


def environment(seed: int, workload: str, workers: int, blas: dict,
                loadavg: tuple) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": blas["numpy"],
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas["threads"],
        "blas_threads_how": (f"{', '.join(BLAS_ENV)} set to {BLAS_THREADS} in "
                             "every child, so workers x BLAS threads <= nproc"),
        "workers": workers,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "git": git_state(),
    }


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None, "note": "not a git checkout"}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return {"revision": None, "dirty": None, "note": f"git unavailable: {e}"}
    return {"revision": rev.stdout.strip() or None,
            "dirty": bool(status.stdout.strip())}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 max_frames: int | None = None) -> Outcome:
    loadavg = os.getloadavg()
    wl = WORKLOADS[name]
    overrides = list(wl.overrides) + [f"channel.seed={seed}"]
    if max_frames is not None:
        overrides.append(f"sim.max_frames={max_frames}")
    spec = {"src": str(SRC), "preset": wl.preset, "overrides": overrides,
            "workers": wl.workers, "seconds": seconds, "trace": trace,
            "spans_out": str(OUT / f"spans-{name}-{seed}.json")}
    env = child_env()
    # Half the set-up timings before the sweep and half after, so that a
    # slow spell of the machine does not hit all of them.
    setups = [time_setup(spec, env) for _ in range(SETUP_RUNS // 2)]
    if trace:
        OUT.mkdir(exist_ok=True)
    m = run_child("measure", spec, env)
    setups += [time_setup(spec, env) for _ in range(SETUP_RUNS - len(setups))]
    edges, s, n = m["edges"], m["s"], m["n"]

    def med(key):
        return statistics.median(x[key] for x in setups)

    if not trace:
        reps = m["reps"]
        first = reps[0]
        failures = identity_failures(first["cells"], first["csv"], edges, s, n)
        for i, rep in enumerate(reps[1:], start=1):
            failures += counter_failures(first["cells"], rep["cells"],
                                         f"repeat {i} vs repeat 0")
            if rep["csv"] != first["csv"]:
                failures.append(f"repeat {i}: csv differs from repeat 0")
        metrics = {
            "frames_per_s": statistics.median(r["frames"] / r["wall_s"] for r in reps),
            "cpu_ms_per_frame": statistics.median(
                1000 * (r["self_cpu_s"] + r["child_cpu_s"]) / r["frames"]
                for r in reps),
            "setup_s": med("setup_s"),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        attempted = sum(r["frames"] for r in reps)
        cells = first["cells"]
    else:
        un, serial, tr = m["untraced"], m["serial"], m["traced"]
        failures = identity_failures(un["cells"], un["csv"], edges, s, n)
        failures += counter_failures(un["cells"], tr["cells"],
                                     "traced replay vs untraced sweep")
        failures += counter_failures(un["cells"], serial["cells"],
                                     f"{wl.workers} workers vs 1 worker")
        failures += [f"{what} of trial {idx} at {e} dB/{lim} it has a nonzero"
                     " syndrome" for what, e, lim, idx in tr["bad_syndromes"]]
        frames = tr["frames"]
        iter_sum = sum(c["iter_sum"] for c in tr["cells"])
        per_frame = {metric: tr["stage_ns"][span] / frames / 1e6
                     for span, metric in STAGES.items()}
        worker_s = wl.workers * un["wall_s"]
        untraced_ms = 1000 * worker_s / un["frames"]
        busy_cpu = un["child_cpu_s"] if wl.workers > 1 else un["self_cpu_s"]
        metrics = dict(per_frame)
        metrics.update({
            "decoder.ns_per_edge_iter": tr["stage_ns"]["decoder.decode"] / (edges * iter_sum),
            "decoder.layer_iters_per_frame": iter_sum / frames,
            "decoder.converged_share": tr["converged_layers"] / tr["layers"],
            "sim.self_ms": untraced_ms - sum(per_frame.values()),
            "sim.worker_busy_share": busy_cpu / worker_s,
            "config.build_system_s": med("config.build_system_s"),
            "geometry.rank_s": med("geometry.rank_s"),
            "decoder.graph_s": med("decoder.graph_s"),
            "trace.overhead_ms": (tr["stage_ns"]["sim.frame"] / frames / 1e6
                                  - 1000 * serial["wall_s"] / serial["frames"]),
            "frame_error_rate": sum(c["global_errors"] for c in tr["cells"]) / frames,
        })
        metrics = {name_: metrics[name_] for name_, *_ in PER_LAYER}
        attempted = un["frames"] + frames + (serial["frames"] if wl.workers > 1 else 0)
        cells = un["cells"]
    return Outcome(metrics=metrics, failures=failures, attempted=attempted,
                   cells=cells, env=environment(seed, name, wl.workers, m["blas"], loadavg))


# -- reporting ------------------------------------------------------------------

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
MOVES = {name: moves for name, _, _, moves in PER_LAYER}


def result_line(metrics: dict, attempted: int, failures: list) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k.rsplit("/", 1)[-1]]}
                    for k, v in metrics.items()},
    })


def print_outcome(title: str, out: Outcome) -> None:
    print(f"== {title}")
    print("env " + json.dumps(out.env))
    for name, value in out.metrics.items():
        moves = f"  [{MOVES[name]}]" if name in MOVES else ""
        print(f"  {name:32s} {value:14.6g} {UNITS[name]}{moves}")
    for f in out.failures:
        print(f"  GATE FAILED: {f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--second-seed", action="store_true",
                   help=f"use the held-out confirmation seed {SECOND_SEED}")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="untraced measuring time per workload")
    p.add_argument("--trace", type=int, choices=[0, 1],
                   help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: 0 for one workload, both for all)")
    p.add_argument("--max-frames", type=int,
                   help="cap every cell at this many frames (smoke runs)")
    args = p.parse_args(argv)
    if not (SRC / "gftmux" / "__init__.py").is_file():
        print(f"perfbench: no gftmux sources under {SRC}", file=sys.stderr)
        return 2
    seed = SECOND_SEED if args.second_seed else args.seed
    try:
        if args.workload != "all":
            out = run_workload(args.workload, seed, args.seconds,
                               args.trace or 0, args.max_frames)
            print_outcome(f"{args.workload} trace={args.trace or 0}", out)
            print(result_line(out.metrics, out.attempted, out.failures))
            return 1 if out.failures else 0
        return run_all(seed, args.seconds,
                       (0, 1) if args.trace is None else (args.trace,),
                       args.max_frames)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return e.code


def run_all(seed: int, seconds: float, traces: tuple, max_frames) -> int:
    metrics, failures, attempted, untraced_cells = {}, [], 0, {}
    for name in WORKLOADS:
        for trace in traces:
            out = run_workload(name, seed, seconds, trace, max_frames)
            print_outcome(f"{name} trace={trace}", out)
            metrics.update({f"{name}/{k}": v for k, v in out.metrics.items()})
            failures += [f"{name}: {f}" for f in out.failures]
            attempted += out.attempted
            if trace == 0:
                untraced_cells[name] = out.cells
    if {"desk-sweep", "desk-sweep-pool"} <= untraced_cells.keys():
        pool = counter_failures(untraced_cells["desk-sweep"],
                                untraced_cells["desk-sweep-pool"],
                                "desk-sweep vs desk-sweep-pool")
        for f in pool:
            print(f"  GATE FAILED: {f}")
        failures += pool
    print(result_line(metrics, attempted, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
