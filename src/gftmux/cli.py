"""Command-line surface: construct, verify, simulate, export.

Exit codes: 0 success, 1 verification/construction failure, 2 config
error, 130 simulate interrupted.  Every simulate run writes a manifest
alongside the CSV so the run can be reproduced exactly; an interrupted
one writes the cells completed so far and a "# truncated" marker.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
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


def _bundle(args):
    cfg = resolve(preset=args.preset, config_path=args.config,
                  overrides=args.overrides)
    return build_system(cfg)


def cmd_construct(args) -> int:
    try:
        bundle = _bundle(args)
    except (DuplicateRoots, ConjugacyViolation) as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return 1
    h = bundle.parity_check
    spec = bundle.spec
    print(f"config:      {bundle.name} ({spec.mode} mode)")
    print(f"field:       GF(2^{spec.s}), poly 0x{bundle.field.primitive_poly:x}")
    print(f"subgroup:    beta = alpha^{(bundle.field.order - 1) // spec.n}, "
          f"order n = {spec.n}")
    print(f"base code:   ({spec.n}, {spec.n - spec.m}), m = {spec.m} roots "
          f"{list(spec.roots)}")
    print(f"matrix:      {h.shape[0]}x{h.shape[1]}, weights {h.m}/{h.n}")
    print(f"rank:        {bundle.rank}")
    print(f"dimension:   {bundle.dimension}")
    print(f"rate:        {bundle.rate:.6f}")
    return 0


def cmd_verify(args) -> int:
    try:
        bundle = _bundle(args)
    except (DuplicateRoots, ConjugacyViolation) as e:
        # Duplicate roots produce identical block rows, the canonical
        # RC violation; report it as the failing check.
        print(f"FAIL rc-constraint: {e}")
        return 1
    checks = run_battery(bundle, seed=args.seed)
    for c in checks:
        print(c.line())
    failed = [c for c in checks if not c.ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    try:
        bundle = _bundle(args)
    except (DuplicateRoots, ConjugacyViolation) as e:
        print(f"simulation refused: {e}", file=sys.stderr)
        return 1
    outdir = args.outdir or bundle.output_dir
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{bundle.name}.csv")
    manifest_path = os.path.join(outdir, f"{bundle.name}.manifest.json")

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
        result = monte_carlo(bundle.transceiver, bundle.graph, bundle.sim,
                             rate=bundle.rate, workers=args.workers,
                             progress=progress)
    except KeyboardInterrupt:
        if not done:
            print("interrupted before any cell completed", file=sys.stderr)
            return 130
        # Cells complete in stop order; rows go out in grid order.
        grid = bundle.sim
        done.sort(key=lambda c: (grid.ebn0_db.index(c.ebn0_db),
                                 grid.iterations.index(c.iterations_limit)))
        result = SimResult(cells=done, n=bundle.transceiver.n,
                           info_bits_per_frame=bundle.transceiver.info_bits,
                           seed=grid.seed)
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

    write_csv(result, csv_path, truncated=truncated)
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
        "outputs": {"csv": csv_path},
    }
    if baseline is not None:
        manifest["baseline_mld_wer"] = baseline
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {csv_path} and {manifest_path}")
    return 130 if truncated else 0


def cmd_export(args) -> int:
    try:
        bundle = _bundle(args)
    except (DuplicateRoots, ConjugacyViolation) as e:
        print(f"export refused: {e}", file=sys.stderr)
        return 1
    out = args.out or f"{bundle.name}.{'alist' if args.format == 'alist' else 'txt'}"
    try:
        if args.format == "alist":
            write_alist(bundle.parity_check, out)
        else:
            write_dense_text(bundle.parity_check, out)
    except ScaleGuard as e:
        print(f"export failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
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
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the structural verifier battery")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the Monte Carlo sweep")
    _add_common(p)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel trial workers (results are identical across counts)")
    p.add_argument("--outdir", help="output directory (default from config)")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="write the global parity-check matrix")
    _add_common(p)
    p.add_argument("--format", choices=["alist", "dense"], default="alist")
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
