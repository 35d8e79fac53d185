"""Command-line surface: construct, verify, simulate, export.

Exit codes: 0 success, 1 verification/construction failure, 2 config
or usage error (a seed below 0, a worker count below 1), 130 simulate
interrupted.  Every simulate run writes a manifest alongside the CSV so
the run can be reproduced exactly; an interrupted one writes the cells
completed so far and a "# truncated" marker.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, decoder
from .config import ConfigError, build_system, list_presets, resolve
from .cyclic import ConjugacyViolation, DuplicateRoots
from .geometry import ScaleGuard, write_alist, write_dense_text
from .sim import SimResult, baseline_mld_wer, monte_carlo, write_csv
from .verify import run_battery


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", nargs="?", help="path to a JSON config file")
    p.add_argument("--preset", help="name of a shipped preset "
                                    f"({', '.join(list_presets())})")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE",
                   help="override a scalar config field, e.g. channel.seed=7")


def _at_least(low: int):
    """argparse type for an integer no smaller than low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _bundle(args):
    cfg = resolve(preset=args.preset, config_path=args.config,
                  overrides=args.overrides)
    return build_system(cfg)


def cmd_construct(args) -> int:
    bundle = _bundle(args)
    h = bundle.parity_check
    spec = bundle.spec
    print(f"config:      {bundle.name} ({spec.mode} mode)")
    print(f"field:       GF(2^{spec.s}), poly 0x{spec.field.primitive_poly:x}")
    print(f"subgroup:    beta = alpha^{(spec.field.order - 1) // spec.n}, "
          f"order n = {spec.n}")
    print(f"base code:   ({spec.n}, {spec.n - spec.m}), m = {spec.m} roots "
          f"{list(spec.roots)}")
    print(f"matrix:      {h.shape[0]}x{h.shape[1]}, weights {h.m}/{h.n}")
    print(f"rank:        {bundle.rank}")
    print(f"dimension:   {bundle.dimension}")
    print(f"rate:        {bundle.rate:.6f}")
    return 0


def cmd_verify(args) -> int:
    checks = run_battery(_bundle(args), seed=args.seed)
    for c in checks:
        print(c.line())
    failed = [c for c in checks if not c.ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    bundle = _bundle(args)
    outdir = args.outdir or bundle.output_dir
    csv_path = os.path.join(outdir, f"{bundle.name}.csv")
    manifest_path = os.path.join(outdir, f"{bundle.name}.manifest.json")
    # Both outputs are opened before the sweep, so an unwritable path fails
    # at once; unless the run writes them in full they are removed again.
    outputs, written = [], False
    try:
        os.makedirs(outdir, exist_ok=True)
        for path in (csv_path, manifest_path):
            outputs.append(open(path, "w", newline=""))
        truncated = _sweep_into(args, bundle, *outputs)
        if truncated is None:
            return 130
        for fh in outputs:
            fh.close()
        written = True
    except OSError as e:
        print(f"simulate failed: {e}", file=sys.stderr)
        return 1
    finally:
        if not written:
            for fh in outputs:
                fh.close()
                os.remove(fh.name)
    print(f"wrote {csv_path} and {manifest_path}")
    return 130 if truncated else 0


def environment() -> dict:
    """Python, numpy, numpy's BLAS and the threads it runs, the CPU count, the
    affinity set's size, and this source tree's git revision and dirty flag
    (None outside a checkout or without git)."""
    import ctypes
    import subprocess

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    maps = Path("/proc/self/maps")   # the OpenBLAS numpy loaded reports its threads
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower()}) if maps.exists() else []
    threads = next((getattr(ctypes.CDLL(lib), get)() for lib in libs for get in
                    ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
                    if hasattr(ctypes.CDLL(lib), get)), None)
    try:
        rev, status = (subprocess.run(["git", "-C", str(Path(__file__).parent), *cmd],
                                      capture_output=True, text=True, check=True).stdout
                       for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "-uno"]))
    except (OSError, subprocess.CalledProcessError):
        rev = status = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_revision": rev and rev.strip(), "git_dirty": None if rev is None else bool(status)}


def _sweep_into(args, bundle, csv_fh, manifest_fh) -> bool | None:
    """Run the sweep and write the CSV and manifest; return whether an
    interrupt truncated them, or None if it came before any cell completed."""
    done = []

    def progress(cell):
        done.append(cell)
        if not args.quiet:
            print(
                f"  ebn0={cell.ebn0_db:g} iters={cell.iterations_limit} "
                f"frames={cell.frames} ger={cell.ger:.3g} "
                f"wall={cell.wall_time:.1f}s",
                file=sys.stderr,
            )

    truncated = False
    try:
        result = monte_carlo(bundle.transceiver, bundle.parity_check, bundle.sim,
                             rate=bundle.rate, workers=args.workers,
                             progress=progress)
    except KeyboardInterrupt:
        if not done:
            print("interrupted before any cell completed", file=sys.stderr)
            return None
        # Cells complete in stop order; rows go out in grid order.
        grid = bundle.sim
        done.sort(key=lambda c: (grid.ebn0_db.index(c.ebn0_db),
                                 grid.iterations.index(c.iterations_limit)))
        result = SimResult(cells=done, n=bundle.transceiver.n,
                           info_bits_per_frame=bundle.transceiver.info_bits)
        truncated = True
        print(f"interrupted: writing {len(done)} completed cells", file=sys.stderr)

    baseline = None
    if bundle.sim.baseline and not truncated:
        baseline = {}
        for ebn0 in bundle.sim.ebn0_db:
            errs, words = baseline_mld_wer(
                bundle.transceiver, ebn0,
                max_words=bundle.sim.max_frames * bundle.spec.n,
                target_errors=bundle.sim.target_errors,
                seed=bundle.sim.seed,
            )
            baseline[str(ebn0)] = {"errors": errs, "words": words,
                                   "wer": errs / words if words else None}

    manifest = {
        "tool": "gftmux",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": bundle.raw,
        "seed": bundle.sim.seed,
        "workers": args.workers,
        "rate": bundle.rate,
        "dimension": bundle.dimension,
        "truncated": truncated,
        "outputs": {"csv": csv_fh.name},
        "rng_contract": 1,
        "decoder_kernel": decoder.kernel_name(),
        "environment": environment(),
        "cells": [{"ebn0_db": c.ebn0_db, "iters": c.iterations_limit,
                   "iter_hist": {str(k): v for k, v in sorted(c.iter_hist.items())},
                   "wall_time": c.wall_time,
                   "frames_per_s": c.frames / c.wall_time if c.wall_time else None}
                  for c in result.cells],
    }
    if baseline is not None:
        manifest["baseline_mld_wer"] = baseline
    write_csv(result, csv_fh, truncated=truncated)
    json.dump(manifest, manifest_fh, indent=2)
    return truncated


def cmd_export(args) -> int:
    bundle = _bundle(args)
    out = args.out or f"{bundle.name}.{'alist' if args.format == 'alist' else 'txt'}"
    try:
        if args.format == "alist":
            write_alist(bundle.parity_check, out)
        else:
            write_dense_text(bundle.parity_check, out)
    except (ScaleGuard, OSError) as e:
        print(f"export failed: {e}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gftmux",
        description="Global coded multiplexing over GF(2^s): construction, "
                    "verification, simulation, and matrix export.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the system and print its parameters")
    _add_common(p)
    p.set_defaults(func=cmd_construct, refused=("construction failed", sys.stderr))

    p = sub.add_parser("verify", help="run the structural verifier battery")
    _add_common(p)
    p.add_argument("--seed", type=_at_least(0), default=0, help="seed for sampled checks")
    # Duplicate roots produce identical block rows, the canonical RC
    # violation; verify reports a spec that cannot be built as that check.
    p.set_defaults(func=cmd_verify, refused=("FAIL rc-constraint", sys.stdout))

    p = sub.add_parser("simulate", help="run the Monte Carlo sweep")
    _add_common(p)
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="worker threads for the trials (results are identical across counts)")
    p.add_argument("--outdir", help="output directory (default from config)")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_simulate, refused=("simulation refused", sys.stderr))

    p = sub.add_parser("export", help="write the global parity-check matrix")
    _add_common(p)
    p.add_argument("--format", choices=["alist", "dense"], default="alist")
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_export, refused=("export refused", sys.stderr))

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DuplicateRoots, ConjugacyViolation) as e:   # the code spec cannot be built
        what, stream = args.refused
        print(f"{what}: {e}", file=stream)
        return 1


if __name__ == "__main__":
    sys.exit(main())
