"""Structured JSON configs, shipped presets, and system assembly.

Schema (sections may be omitted where defaults exist):

    {
      "name": "desk_gf8",
      "field":   {"s": 3, "primitive_poly": "0xB"},
      "code":    {"n": 7, "roots": [1, 2, 4], "mode": "binary"},
      "channel": {"ebn0_db": [0, 2, 4, 6, 8], "seed": 1},
      "decoder": {"iterations": [10], "scale": 0.625},
      "sim":     {"max_frames": 100000, "target_errors": 100},
      "output":  {"dir": "results"},
      "expected": {"dimension": 30, "shape": [21, 49], ...}   # optional
    }

"code" takes either an explicit "roots" list or "designed_distance"
(expanded to the conjugacy closure of 1..d-1 in binary mode).
primitive_poly is a hex coefficient mask, bit i = coefficient of X^i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import cyclic, galois
from .decoder import DecoderGraph
from .geometry import gf2_rank
from .sim import SimConfig
from .txrx import Transceiver


class ConfigError(ValueError):
    """Invalid or inconsistent configuration file."""


def list_presets() -> list:
    root = resources.files("gftmux") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    path = resources.files("gftmux") / "presets" / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        ) from None
    return json.loads(text)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field {where}.{key}")
    return section[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_poly(raw) -> int:
    if isinstance(raw, str):
        try:
            return int(raw, 16)
        except ValueError:
            raise ConfigError(
                f"field.primitive_poly: expected a hex mask like '0x89', got {raw!r}"
            ) from None
    if isinstance(raw, int):
        return raw
    raise ConfigError("field.primitive_poly must be a hex string or integer")


def apply_overrides(cfg: dict, overrides: list) -> dict:
    """Apply 'section.key=value' scalar overrides (JSON-parsed values)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a scalar")
        node[keys[-1]] = value
    return cfg


@dataclass(eq=False)
class SystemBundle:
    """Everything a command needs, assembled once from a validated config."""

    name: str
    raw: dict
    field: galois.GaloisField
    subgroup: galois.SubgroupGen
    spec: cyclic.BaseCodeSpec
    transceiver: Transceiver
    sim: SimConfig
    output_dir: str
    expected: dict

    _rank: int | None = None
    _graph: DecoderGraph | None = None

    @property
    def parity_check(self):
        return self.transceiver.parity_check

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = gf2_rank(self.parity_check)
        return self._rank

    @property
    def dimension(self) -> int:
        return self.parity_check.n_vars - self.rank

    @property
    def rate(self) -> float:
        return self.dimension / self.parity_check.n_vars

    @property
    def graph(self) -> DecoderGraph:
        if self._graph is None:
            self._graph = DecoderGraph.from_parity_check(self.parity_check)
        return self._graph


def build_system(cfg: dict) -> SystemBundle:
    """Validate the config dict and assemble the bundle.

    Raises ConfigError with a field-level message on any invalid entry;
    algebraic violations (duplicate roots, broken conjugacy) propagate
    as their own exception types for the verifier to report.
    """
    name = cfg.get("name", "unnamed")
    fld_sec = _require(cfg, "field", "")
    code_sec = _require(cfg, "code", "")

    s = _require(fld_sec, "s", "field")
    if not isinstance(s, int) or not 3 <= s <= 16:
        raise ConfigError(f"field.s must be an integer in [3, 16], got {s!r}")
    poly = fld_sec.get("primitive_poly")
    try:
        field = galois.build_field(s, _parse_poly(poly) if poly is not None else None)
    except (galois.NonPrimitivePolynomial, ValueError) as e:
        raise ConfigError(f"field: {e}") from None

    n = _require(code_sec, "n", "code")
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"code.n must be an integer >= 2, got {n!r}")
    try:
        subgroup = galois.element_of_order(field, n)
    except (galois.NotADivisor, galois.NotPrime) as e:
        raise ConfigError(f"code.n: {e}") from None

    mode = code_sec.get("mode", "binary")
    if mode not in ("binary", "nonbinary"):
        raise ConfigError(f"code.mode must be 'binary' or 'nonbinary', got {mode!r}")
    if "roots" in code_sec and "designed_distance" in code_sec:
        raise ConfigError("code: give either roots or designed_distance, not both")
    if "roots" in code_sec:
        roots = code_sec["roots"]
        if (not isinstance(roots, list) or not roots
                or not all(isinstance(r, int) for r in roots)):
            raise ConfigError("code.roots must be a nonempty list of integers")
        spec = cyclic.BaseCodeSpec(field=field, subgroup=subgroup,
                                   roots=tuple(roots), mode=mode)
    elif "designed_distance" in code_sec:
        d = code_sec["designed_distance"]
        if not isinstance(d, int) or d < 2:
            raise ConfigError("code.designed_distance must be an integer >= 2")
        spec = cyclic.bch_spec(field, subgroup, d, mode=mode)
    else:
        raise ConfigError("code: needs roots or designed_distance")

    ch = cfg.get("channel", {})
    dec = cfg.get("decoder", {})
    simsec = cfg.get("sim", {})
    ebn0 = ch.get("ebn0_db", [0.0, 2.0, 4.0])
    if not isinstance(ebn0, list) or not ebn0:
        raise ConfigError("channel.ebn0_db must be a nonempty list")
    iterations = dec.get("iterations", [10])
    if (not isinstance(iterations, list) or not iterations
            or not all(_is_int(i) and i >= 1 for i in iterations)):
        raise ConfigError("decoder.iterations must be a list of positive integers")
    scale = dec.get("scale", 0.625)
    if not _is_real(scale) or not 0 < scale <= 1:
        raise ConfigError(
            f"decoder.scale must be a real number in (0, 1], got {scale!r}")
    clip = dec.get("clip")
    if clip is not None and not (_is_real(clip) and clip > 0):
        raise ConfigError(f"decoder.clip must be null or a positive real, got {clip!r}")
    max_frames = simsec.get("max_frames", 10_000)
    target_errors = simsec.get("target_errors", 100)
    for key, value in (("max_frames", max_frames), ("target_errors", target_errors)):
        if not _is_int(value):
            raise ConfigError(f"sim.{key} must be an integer, got {value!r}")
    try:
        sim_cfg = SimConfig(
            ebn0_db=[float(e) for e in ebn0],
            iterations=iterations,
            scale=float(scale),
            max_frames=max_frames,
            target_errors=target_errors,
            seed=int(ch.get("seed", 1)),
            clip=clip,
            verify=bool(simsec.get("verify", True)),
            baseline=bool(simsec.get("baseline", False)),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"sim/channel: {e}") from None

    transceiver = Transceiver(spec)
    return SystemBundle(
        name=name,
        raw=cfg,
        field=field,
        subgroup=subgroup,
        spec=spec,
        transceiver=transceiver,
        sim=sim_cfg,
        output_dir=cfg.get("output", {}).get("dir", "results"),
        expected=cfg.get("expected", {}),
    )


def resolve(preset: str | None = None, config_path=None, overrides=()) -> dict:
    if (preset is None) == (config_path is None):
        raise ConfigError("give exactly one of --preset or a config path")
    cfg = load_preset(preset) if preset else load_config(config_path)
    return apply_overrides(cfg, list(overrides))
