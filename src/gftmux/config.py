"""Structured JSON configs, shipped presets, and system assembly.

A config is one JSON object, for example

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

SCHEMA holds every field with its default and its check; a section whose
fields all have defaults may be left out, and any key not in SCHEMA is an
error.  "code" takes either an explicit "roots" list or "designed_distance"
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return _is_real(value) and abs(value) <= sys.float_info.max


def _is_db(value) -> bool:
    """|Eb/N0| <= 1000 dB keeps sigma and the LLRs finite for any rate above 1e-200."""
    return _is_real(value) and -1000 <= value <= 1000


def _int_from(low: int):
    """A check for an integer no smaller than low."""
    return lambda v: _is_int(v) and v >= low


def _is_list(value, item, distinct=False) -> bool:
    """value is a nonempty list of items that pass item, no two equal if distinct."""
    return (isinstance(value, list) and len(value) > 0 and all(item(x) for x in value)
            and not (distinct and len(set(value)) < len(value)))


def _is_stem(value) -> bool:
    """The name is the stem of every output file, which must land in its directory."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and not any(c in value for c in (os.sep, os.altsep or os.sep, "\0")))


def _hex_mask(value):
    """value, with a hex string such as '0x89' read as its int (0 if it is not hex)."""
    try:
        return int(value, 16) if isinstance(value, str) else value
    except ValueError:
        return 0


#: SCHEMA's defaults of a field that must be given, and of an optional
#: field that stays out when it is left out.
REQUIRED, ABSENT = object(), object()

#: Every config field, (section, key) -> (default, what it must be, check),
#: with "" for the top level; build_system checks them in this order.
SCHEMA = {
    ("", "name"): ("unnamed", "a nonempty string without a path separator, "
                   "other than . and ..", _is_stem),
    ("", "description"): (ABSENT, "a string", lambda v: isinstance(v, str)),
    ("field", "s"): (REQUIRED, "an integer in [3, 16]", lambda v: _is_int(v) and 3 <= v <= 16),
    ("field", "primitive_poly"): (None, "null, or a positive integer or hex mask like '0x89'",
                                  lambda v: v is None or _int_from(1)(_hex_mask(v))),
    ("code", "n"): (REQUIRED, "an integer >= 2", _int_from(2)),
    ("code", "roots"): (ABSENT, "a nonempty list of integers", lambda v: _is_list(v, _is_int)),
    ("code", "designed_distance"): (ABSENT, "an integer >= 2", _int_from(2)),
    ("code", "mode"): ("binary", "'binary' or 'nonbinary'",
                       lambda v: v in ("binary", "nonbinary")),
    ("channel", "ebn0_db"): ([0.0, 2.0, 4.0],
                             "a nonempty list of distinct reals in [-1000, 1000] dB",
                             lambda v: _is_list(v, _is_db, distinct=True)),
    ("channel", "seed"): (1, "a non-negative integer", _int_from(0)),
    ("decoder", "iterations"): ([10], "a nonempty list of distinct positive integers",
                                lambda v: _is_list(v, _int_from(1), distinct=True)),
    ("decoder", "scale"): (0.625, "a real number in (0, 1]",
                           lambda v: _is_real(v) and 0 < v <= 1),
    ("decoder", "clip"): (None, "null or a positive finite real",
                          lambda v: v is None or (_is_finite_real(v) and v > 0)),
    ("sim", "max_frames"): (10_000, "a positive integer", _int_from(1)),
    ("sim", "target_errors"): (100, "a positive integer", _int_from(1)),
    ("sim", "verify"): (True, "true or false", lambda v: isinstance(v, bool)),
    ("sim", "baseline"): (False, "true or false", lambda v: isinstance(v, bool)),
    ("output", "dir"): ("results", "a string", lambda v: isinstance(v, str)),
    ("expected", "shape"): (ABSENT, "a list of two non-negative integers",
                            lambda v: isinstance(v, list) and len(v) == 2
                            and all(_is_int(x) and x >= 0 for x in v)),
    ("expected", "column_weight"): (ABSENT, "an integer", _is_int),
    ("expected", "row_weight"): (ABSENT, "an integer", _is_int),
    ("expected", "dimension"): (ABSENT, "an integer", _is_int),
    ("expected", "rate"): (ABSENT, "a finite real", _is_finite_real),
}

#: Every key allowed at the top level or in a section, as (section, key).
_KNOWN = set(SCHEMA) | {("", sec) for sec, _ in SCHEMA if sec}


def _fields(cfg: dict) -> dict:
    """{section: {key: value}} of every SCHEMA field, checked in SCHEMA's
    order with its default filled in; an ABSENT field left out stays out."""
    got = {}
    for (sec, key), (default, what, valid) in SCHEMA.items():
        node, prefix = (cfg.get(sec, {}), f"{sec}.") if sec else (cfg, "")
        if sec not in got:   # the section as a whole, when its first field comes up
            if not isinstance(node, dict):
                raise ConfigError(f"{sec} must be an object, got {node!r}")
            for k in node:
                if (sec, k) not in _KNOWN:
                    raise ConfigError(f"unknown field {prefix}{k}")
            got[sec] = {}
        value = node.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required field {prefix}{key}")
        if value is not ABSENT:
            if not valid(value):
                raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
            got[sec][key] = value
    return got


def apply_overrides(cfg: dict, overrides: list) -> dict:
    """Apply 'section.key=value' scalar overrides (JSON-parsed values)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        if "" in keys:
            raise ConfigError(f"override path {path!r} has an empty key")
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
        return qc_rank(self.parity_check, self.spec.subgroup)

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

    Raises ConfigError with a field-level message on any invalid or unknown
    entry; algebraic violations (duplicate roots, broken conjugacy) propagate
    as their own exception types for the verifier to report.
    """
    got = _fields(cfg)
    fld, code, dec = got["field"], got["code"], got["decoder"]
    try:
        field = galois.build_field(fld["s"], _hex_mask(fld["primitive_poly"]))
    except (galois.NonPrimitivePolynomial, ValueError) as e:
        raise ConfigError(f"field: {e}") from None
    n, mode = code["n"], code["mode"]
    try:
        subgroup = galois.element_of_order(field, n)
    except (galois.NotADivisor, galois.NotPrime) as e:
        raise ConfigError(f"code.n: {e}") from None

    if ("roots" in code) == ("designed_distance" in code):
        raise ConfigError("code: give exactly one of roots and designed_distance")
    if "roots" in code:
        if len(code["roots"]) >= n:
            raise ConfigError(
                f"code.roots: need fewer than n={n} roots, got {len(code['roots'])}")
        spec = cyclic.BaseCodeSpec(subgroup=subgroup, roots=tuple(code["roots"]), mode=mode)
    else:
        if code["designed_distance"] > n:
            raise ConfigError(f"code.designed_distance must be at most n={n}, "
                              f"got {code['designed_distance']}")
        spec = cyclic.bch_spec(subgroup, code["designed_distance"], mode=mode)

    if got["sim"]["baseline"] and (mode != "binary" or n > 15):
        raise ConfigError(f"sim.baseline needs a binary code with n <= 15 (the MLD "
                          f"oracle's limit), got a {mode} code with n={n}")
    sim_cfg = SimConfig(
        ebn0_db=[float(e) for e in got["channel"]["ebn0_db"]], seed=got["channel"]["seed"],
        iterations=list(dec["iterations"]), scale=float(dec["scale"]),
        clip=None if dec["clip"] is None else float(dec["clip"]), **got["sim"])
    return SystemBundle(name=got[""]["name"], raw=cfg, spec=spec,
                        transceiver=Transceiver(spec), sim=sim_cfg,
                        output_dir=got["output"]["dir"], expected=got["expected"])


def resolve(preset: str | None = None, config_path=None, overrides=()) -> dict:
    if (preset is None) == (config_path is None):
        raise ConfigError("give exactly one of --preset or a config path")
    cfg = load_preset(preset) if preset else load_config(config_path)
    return apply_overrides(cfg, list(overrides))
