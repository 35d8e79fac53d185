"""Child-process side of the gftmux benchmark; started by ``run.py``.

    python3 perfbench/worker.py setup   '<spec json>'
    python3 perfbench/worker.py measure '<spec json>'

``setup`` runs in a fresh interpreter and stamps the monotonic clock
after the ``gftmux`` import, ``config.build_system``, the global rate
(its GF(2) rank) and the ``DecoderGraph``: what every ``gftmux
simulate`` pays before its first frame.

``measure`` drives the workload's sweep through the calls ``gftmux
simulate`` makes (``config.resolve``, ``config.build_system``,
``sim.monte_carlo``, ``sim.write_csv``) with tracing off.  With
``trace`` set it runs the sweep once untraced and then replays the same
trial indices one stage at a time, with a span around each public call.

The last line of stdout is one JSON object for ``run.py``.
"""

import sys
import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (stamped above: interpreter start)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import gftmux  # noqa: F401
    from gftmux import config

    t_import = _now()
    bundle = config.build_system(
        config.resolve(preset=spec["preset"], overrides=spec["overrides"]))
    t_build = _now()
    bundle.rate  # computes and caches the GF(2) rank
    t_rank = _now()
    bundle.graph  # builds and caches the DecoderGraph
    t_graph = _now()
    return {"start": T_START, "import": t_import, "build": t_build,
            "rank": t_rank, "graph": t_graph}


# -- public names the benchmark calls ---------------------------------------

#: Every name the untraced and traced runs call, as ``module.attr[.attr]``
#: under ``gftmux``.  A missing one fails the run with its name instead of
#: silently dropping the metric built on it.
PUBLIC_NAMES = (
    "config.resolve",
    "config.build_system",
    "sim.monte_carlo",
    "sim.write_csv",
    "sim.trial_rng",
    "sim.run_trial",
    "sim.CellResult",
    "sim.CellResult.add",
    "sim.TrialRecord",
    "channel.ChannelParams",
    "channel.llr",
    "channel.LlrFrame",
    "decoder.MsaParams",
    "decoder.decode_global",
    "txrx.Transceiver.random_streams",
    "txrx.Transceiver.encode_composites",
    "txrx.Transceiver.multiplex",
    "txrx.Transceiver.demultiplex",
    "txrx.StreamBlock.bit_errors",
    "geometry.GlobalParityCheck.syndrome_weight",
)

#: CellResult counters compared between runs; iter_hist is compared too.
COUNTERS = ("frames", "global_errors", "composite_errors", "bit_errors",
            "iter_sum", "layer_decodes", "edge_ops")


class MissingName(RuntimeError):
    pass


def check_public_names() -> None:
    import importlib

    for dotted in PUBLIC_NAMES:
        module, *attrs = dotted.split(".")
        try:
            obj = importlib.import_module(f"gftmux.{module}")
        except ImportError:
            raise MissingName(f"gftmux.{dotted}") from None
        for attr in attrs:
            if not hasattr(obj, attr):
                raise MissingName(f"gftmux.{dotted}")
            obj = getattr(obj, attr)
    from gftmux.sim import CellResult

    fields = CellResult.__dataclass_fields__
    for name in COUNTERS + ("iter_hist",):
        if name not in fields:
            raise MissingName(f"gftmux.sim.CellResult.{name}")


def cell_counters(cell) -> dict:
    out = {"ebn0_db": cell.ebn0_db, "iterations_limit": cell.iterations_limit}
    out.update({name: getattr(cell, name) for name in COUNTERS})
    out["iter_hist"] = {str(k): v for k, v in sorted(cell.iter_hist.items())}
    return out


# -- untraced sweep ---------------------------------------------------------


def _cpu_s(who) -> float:
    import resource

    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def untraced_sweep(bundle, workers: int) -> dict:
    """One ``monte_carlo`` sweep; CPU covers this process and reaped workers."""
    import io
    import resource

    from gftmux import sim

    self0 = _cpu_s(resource.RUSAGE_SELF)
    child0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    result = sim.monte_carlo(bundle.transceiver, bundle.graph, bundle.sim,
                             rate=bundle.rate, workers=workers)
    wall = time.perf_counter() - t0
    self_cpu = _cpu_s(resource.RUSAGE_SELF) - self0
    child_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - child0
    buf = io.StringIO()
    sim.write_csv(result, buf)
    return {"wall_s": wall, "self_cpu_s": self_cpu, "child_cpu_s": child_cpu,
            "frames": sum(c.frames for c in result.cells),
            "cells": [cell_counters(c) for c in result.cells],
            "csv": buf.getvalue()}


# -- traced replay ------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, parent id, key, start ns, end ns).

    A span's id is its index in ``spans``; the frame span's key is the
    trial index.
    """

    FIELDS = ("name", "parent", "key", "start_ns", "end_ns")

    def __init__(self):
        self.spans = []

    def open(self, name: str, parent, key=None) -> int:
        self.spans.append([name, parent, key, time.perf_counter_ns(), None])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()

    def call(self, name: str, parent: int, fn, *args):
        sid = self.open(name, parent)
        out = fn(*args)
        self.close(sid)
        return out

    def totals_ns(self) -> dict:
        out = {}
        for name, _, _, start, end in self.spans:
            out[name] = out.get(name, 0) + (end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": self.FIELDS, "spans": self.spans}, fh,
                      separators=(",", ":"))


def traced_replay(bundle, untraced_cells: list, spans_path) -> dict:
    """Re-run ``sim.run_trial``'s stages over the untraced sweep's trials.

    Each cell replays trial indices ``0 .. frames-1``: exactly the trials
    ``monte_carlo`` consumed before the cell's stopping rule fired, for
    any worker count.
    """
    from gftmux.channel import ChannelParams, LlrFrame, llr
    from gftmux.decoder import MsaParams, decode_global
    from gftmux.sim import CellResult, TrialRecord, trial_rng

    tx, graph, cfg = bundle.transceiver, bundle.graph, bundle.sim
    parity = tx.parity_check

    def draw(idx):
        rng = trial_rng(cfg.seed, idx)
        return rng, tx.random_streams(rng)

    def channel(rng, x, sigma):
        y = x + sigma * rng.standard_normal(x.size)
        return LlrFrame(llr(y, sigma), s=tx.s, n=tx.n)

    tracer = Tracer()
    root = tracer.open("sim.sweep", None)
    cells, bad_syndromes = [], []
    frames = converged = layers = 0
    for ref in untraced_cells:
        ebn0, limit = ref["ebn0_db"], ref["iterations_limit"]
        sigma = ChannelParams(ebn0_db=ebn0, rate=bundle.rate).sigma
        params = MsaParams(max_iterations=limit, scale=cfg.scale, clip=cfg.clip)
        cell = CellResult(ebn0_db=ebn0, iterations_limit=limit)
        cell_span = tracer.open("sim.cell", root, key=[ebn0, limit])
        for idx in range(ref["frames"]):
            f = tracer.open("sim.frame", cell_span, key=idx)
            rng, streams = tracer.call("sim.draw", f, draw, idx)
            composites = tracer.call("txrx.encode", f, tx.encode_composites, streams)
            word, x = tracer.call("txrx.multiplex", f, tx.multiplex, composites)
            frame = tracer.call("channel.llr", f, channel, rng, x, sigma)
            word_hat, results = tracer.call("decoder.decode", f, decode_global,
                                            frame, graph, params)
            comps_hat, streams_hat = tracer.call("txrx.demultiplex", f,
                                                 tx.demultiplex, word_hat)
            if cfg.verify:  # run_trial re-checks every converged layer
                for r in results:
                    if r.converged and graph.syndrome_weight(r.hard_bits):
                        bad_syndromes.append(["converged layer", ebn0, limit, idx])
            word_errors = int((comps_hat != composites).any(axis=1).sum())
            cell.add(TrialRecord(
                global_error=word_errors > 0,
                composite_errors=word_errors,
                bit_errors=streams.bit_errors(streams_hat),
                iterations=[r.iterations_used for r in results],
                edge_ops=sum(r.edge_ops for r in results),
                all_converged=all(r.converged for r in results),
            ))
            tracer.close(f)
            if parity.syndrome_weight(word.symbols) != 0:
                bad_syndromes.append(["transmitted word", ebn0, limit, idx])
            converged += sum(r.converged for r in results)
            layers += len(results)
        tracer.close(cell_span)
        cells.append(cell_counters(cell))
        frames += cell.frames
    tracer.close(root)
    tracer.write(spans_path)
    return {"cells": cells, "frames": frames, "layers": layers,
            "converged_layers": converged, "bad_syndromes": bad_syndromes,
            "stage_ns": tracer.totals_ns()}


# -- environment ------------------------------------------------------------


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, threads as loaded."""
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh}
    libs = sorted(p for p in paths if "openblas" in p.lower())
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        handle = ctypes.CDLL(lib)
        fn = next((getattr(handle, g) for g in getters if hasattr(handle, g)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = int(fn())
            break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "numpy": np.__version__}


def warm_up(bundle) -> None:
    """One untimed frame, so that lazy set-up and cold caches stay out of
    the first timed sweep; forked pool workers inherit the warm state."""
    from gftmux.channel import ChannelParams
    from gftmux.decoder import MsaParams
    from gftmux.sim import run_trial

    cfg = bundle.sim
    sigma = ChannelParams(ebn0_db=cfg.ebn0_db[0], rate=bundle.rate).sigma
    params = MsaParams(max_iterations=cfg.iterations[0], scale=cfg.scale, clip=cfg.clip)
    run_trial(bundle.transceiver, bundle.graph, sigma, params, cfg.seed, 0)


def measure(spec: dict) -> dict:
    import resource

    sys.path.insert(0, spec["src"])
    check_public_names()
    from gftmux import config

    bundle = config.build_system(
        config.resolve(preset=spec["preset"], overrides=spec["overrides"]))
    bundle.rate, bundle.graph  # set-up is timed by ``setup``, not here
    warm_up(bundle)
    workers = spec["workers"]
    out = {"edges": bundle.graph.n_edges, "s": bundle.spec.s, "n": bundle.spec.n,
           "blas": blas_info()}
    if spec["trace"]:
        rep = untraced_sweep(bundle, workers)
        out["untraced"] = rep
        # The replay is serial; a pool sweep gets a serial twin so the
        # tracing overhead compares like with like.
        out["serial"] = rep if workers == 1 else untraced_sweep(bundle, 1)
        out["traced"] = traced_replay(bundle, rep["cells"], spec["spans_out"])
    else:
        # Repeat the same sweep for about spec["seconds"], at least twice,
        # so repeats can be compared and their times reduced to a median.
        reps, t0 = [], time.perf_counter()
        while True:
            reps.append(untraced_sweep(bundle, workers))
            elapsed = time.perf_counter() - t0
            if len(reps) >= 2 and elapsed + elapsed / len(reps) / 2 >= spec["seconds"]:
                break
        out["reps"] = reps
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = kib / 1024.0
    return out


def main(argv) -> int:
    mode, spec = argv[1], json.loads(argv[2])
    try:
        out = setup(spec) if mode == "setup" else measure(spec)
    except MissingName as e:
        print(f"perfbench: public name {e} is missing", file=sys.stderr)
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
