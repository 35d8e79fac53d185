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
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from . import cyclic, galois
from .geometry import GlobalParityCheck, qc_rank
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
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field {where}.{key}")
    return section[key]


def _section(cfg: dict, key: str) -> dict:
    """cfg[key] as an object; an absent section reads as empty."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object, got {section!r}")
    return section


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return _is_real(value) and abs(value) <= sys.float_info.max


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


#: Each optional field of the "expected" section: what it must be, and its check.
_EXPECTED_FIELDS = {
    "shape": ("a list of two non-negative integers",
              lambda v: isinstance(v, list) and len(v) == 2
              and all(_is_int(x) and x >= 0 for x in v)),
    "column_weight": ("an integer", _is_int),
    "row_weight": ("an integer", _is_int),
    "dimension": ("an integer", _is_int),
    "rate": ("a finite real", _is_finite_real),
}


#: Each channel, decoder, sim and output field: its default, what it must
#: be, and its check.  |Eb/N0| <= 1000 dB keeps sigma and the LLRs finite
#: for any rate above 1e-200.
_FIELDS = {
    ("channel", "ebn0_db"): ([0.0, 2.0, 4.0],
                             "a nonempty list of distinct reals in [-1000, 1000] dB",
                             lambda v: isinstance(v, list) and v
                             and all(_is_real(e) and -1000 <= e <= 1000 for e in v)
                             and len(set(v)) == len(v)),
    ("channel", "seed"): (1, "a non-negative integer", lambda v: _is_int(v) and v >= 0),
    ("decoder", "iterations"): ([10], "a nonempty list of distinct positive integers",
                                lambda v: isinstance(v, list) and v
                                and all(_is_count(i) for i in v) and len(set(v)) == len(v)),
    ("decoder", "scale"): (0.625, "a real number in (0, 1]",
                           lambda v: _is_real(v) and 0 < v <= 1),
    ("decoder", "clip"): (None, "null or a positive finite real",
                          lambda v: v is None or (_is_finite_real(v) and v > 0)),
    ("sim", "max_frames"): (10_000, "a positive integer", _is_count),
    ("sim", "target_errors"): (100, "a positive integer", _is_count),
    ("sim", "verify"): (True, "true or false", lambda v: isinstance(v, bool)),
    ("sim", "baseline"): (False, "true or false", lambda v: isinstance(v, bool)),
    ("output", "dir"): ("results", "a string", lambda v: isinstance(v, str)),
}


def _parse_poly(raw) -> int:
    poly = raw
    if isinstance(raw, str):
        try:
            poly = int(raw, 16)
        except ValueError:
            raise ConfigError(
                f"field.primitive_poly: expected a hex mask like '0x89', got {raw!r}"
            ) from None
    if not _is_int(poly) or poly <= 0:
        raise ConfigError("field.primitive_poly must be a positive hex string or "
                          f"integer, got {raw!r}")
    return poly


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

    @property
    def parity_check(self) -> GlobalParityCheck:
        return self.transceiver.parity_check

    @cached_property
    def rank(self) -> int:
        return qc_rank(self.parity_check, self.subgroup)

    @property
    def dimension(self) -> int:
        return self.parity_check.n_vars - self.rank

    @property
    def rate(self) -> float:
        return self.dimension / self.parity_check.n_vars

    @property
    def graph(self) -> GlobalParityCheck:
        """Alias of parity_check, the decoder's Tanner graph; perfbench reads it."""
        return self.parity_check


def build_system(cfg: dict) -> SystemBundle:
    """Validate the config dict and assemble the bundle.

    Raises ConfigError with a field-level message on any invalid entry;
    algebraic violations (duplicate roots, broken conjugacy) propagate
    as their own exception types for the verifier to report.
    """
    name = cfg.get("name", "unnamed")
    # the name is the stem of every output file, which must land in its directory
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in (os.sep, os.altsep or os.sep, "\0"))):
        raise ConfigError("name must be a nonempty string without a path separator, "
                          f"other than . and .., got {name!r}")
    fld_sec, code_sec = _section(cfg, "field"), _section(cfg, "code")

    s = _require(fld_sec, "s", "field")
    if not isinstance(s, int) or not 3 <= s <= 16:
        raise ConfigError(f"field.s must be an integer in [3, 16], got {s!r}")
    poly = fld_sec.get("primitive_poly")
    poly = _parse_poly(poly) if poly is not None else None
    try:
        field = galois.build_field(s, poly)
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
                or not all(_is_int(r) for r in roots)):
            raise ConfigError("code.roots must be a nonempty list of integers")
        if len(roots) >= n:
            raise ConfigError(
                f"code.roots: need fewer than n={n} roots, got {len(roots)}")
        spec = cyclic.BaseCodeSpec(field=field, subgroup=subgroup,
                                   roots=tuple(roots), mode=mode)
    elif "designed_distance" in code_sec:
        d = code_sec["designed_distance"]
        if not _is_int(d) or not 2 <= d <= n:
            raise ConfigError(
                f"code.designed_distance must be an integer in [2, n={n}]")
        spec = cyclic.bch_spec(field, subgroup, d, mode=mode)
    else:
        raise ConfigError("code: needs roots or designed_distance")

    got = {}
    for (sec, key), (default, what, valid) in _FIELDS.items():
        got[key] = _section(cfg, sec).get(key, default)
        if not valid(got[key]):
            raise ConfigError(f"{sec}.{key} must be {what}, got {got[key]!r}")
    output_dir = got.pop("dir")
    if got["baseline"] and (mode != "binary" or n > 15):
        raise ConfigError(f"sim.baseline needs a binary code with n <= 15 (the MLD "
                          f"oracle's limit), got a {mode} code with n={n}")
    sim_cfg = SimConfig(**dict(
        got, ebn0_db=[float(e) for e in got["ebn0_db"]], iterations=list(got["iterations"]),
        scale=float(got["scale"]), clip=None if got["clip"] is None else float(got["clip"])))

    expected = _section(cfg, "expected")
    for key, (what, valid) in _EXPECTED_FIELDS.items():
        if key in expected and not valid(expected[key]):
            raise ConfigError(f"expected.{key} must be {what}, got {expected[key]!r}")

    transceiver = Transceiver(spec)
    return SystemBundle(
        name=name,
        raw=cfg,
        field=field,
        subgroup=subgroup,
        spec=spec,
        transceiver=transceiver,
        sim=sim_cfg,
        output_dir=output_dir,
        expected=expected,
    )


def resolve(preset: str | None = None, config_path=None, overrides=()) -> dict:
    if (preset is None) == (config_path is None):
        raise ConfigError("give exactly one of --preset or a config path")
    cfg = load_preset(preset) if preset else load_config(config_path)
    return apply_overrides(cfg, list(overrides))
