import csv
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gftmux import decoder
from gftmux.cli import main
from gftmux.config import (
    SCHEMA,
    ConfigError,
    apply_overrides,
    build_system,
    list_presets,
    load_preset,
    resolve,
)
from gftmux.txrx import Transceiver


def test_presets_shipped():
    names = list_presets()
    assert {"desk_gf8", "ex1_bch127_113", "ex2_bch127_120",
            "ex3_rs127_121", "ex5_rs89_85"} <= set(names)


def test_package_exports_resolve():
    import gftmux

    missing = [name for name in gftmux.__all__ if not hasattr(gftmux, name)]
    assert not missing


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("nope")


def test_resolve_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError):
        resolve(preset=None, config_path=None)
    with pytest.raises(ConfigError):
        resolve(preset="desk_gf8", config_path=str(tmp_path / "x.json"))


def test_overrides():
    cfg = {"channel": {"seed": 1}}
    apply_overrides(cfg, ["channel.seed=9", "sim.max_frames=50",
                          "code.mode=binary"])
    assert cfg["channel"]["seed"] == 9
    assert cfg["sim"]["max_frames"] == 50
    assert cfg["code"]["mode"] == "binary"


def test_build_system_field_errors():
    with pytest.raises(ConfigError, match="field.s"):
        build_system({"field": {"s": 2}, "code": {"n": 3, "roots": [1]}})
    with pytest.raises(ConfigError, match="code.n"):
        build_system({"field": {"s": 3}, "code": {"n": 6, "roots": [1]}})
    with pytest.raises(ConfigError, match="roots"):
        build_system({"field": {"s": 3}, "code": {"n": 7}})
    with pytest.raises(ConfigError, match="code.designed_distance"):
        build_system({"field": {"s": 3}, "code": {"n": 7, "designed_distance": 8}})


def test_cmd_construct_desk(capsys):
    assert main(["construct", "--preset", "desk_gf8"]) == 0
    out = capsys.readouterr().out
    assert "21x49" in out and "weights 3/7" in out
    assert "dimension:   30" in out and "rank:        19" in out
    assert "0.612245" in out


def test_cmd_verify_desk(capsys):
    """Every check line and the summary, byte for byte."""
    assert main(["verify", "--preset", "desk_gf8"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS gft-inverse: V x V^-1 == I over GF(2^3)",
        "PASS shape-weights: shape 21x49, weights 3/7, edges 147",
        "PASS rc-constraint: algebraic + brute force; no two rows share more than "
        "one 1-entry",
        "PASS girth: exact BFS girth = 6",
        "PASS rank-dimension: rank 19, dimension 30, rate 0.612245",
        "PASS transform-similarity: V.D.V^-1 == CPM on all 21 blocks",
        "PASS layer-decomposition: 1010 vectors (10 transmitter outputs), "
        "0 counterexamples",
        "PASS round-trip: 5 random frames: receive(transmit(x)) == x, noiseless "
        "decode converges in 1 iteration",
        "8/8 checks passed",
    ]


def test_cmd_verify_production_scale(capsys):
    """The sampled battery (n = 89 > DENSE_LIMIT) passes every check; every
    line, byte for byte."""
    assert main(["verify", "--preset", "ex5_rs89_85"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS gft-inverse: V x V^-1 == I over GF(2^11)",
        "PASS shape-weights: shape 356x7921, weights 4/89, edges 31684",
        "PASS rc-constraint: algebraic; no two rows share more than one 1-entry",
        "PASS girth: RC bound = 6",
        "PASS rank-dimension: rank 353, dimension 7568, rate 0.955435",
        "PASS transform-similarity: V.D.V^-1 == CPM on sampled 20 blocks",
        "PASS layer-decomposition: 103 vectors (3 transmitter outputs), "
        "0 counterexamples",
        "PASS round-trip: 2 random frames: receive(transmit(x)) == x, noiseless "
        "decode converges in 1 iteration",
        "8/8 checks passed",
    ]


def test_cmd_verify_reports_broken_transmitter(monkeypatch, capsys):
    """A transmitter whose words leave the code fails its two checks in
    the report, which still prints every line, rather than raising."""
    good = Transceiver.encode_composites

    def corrupted(self, streams):
        comp = good(self, streams)
        comp[..., 1, 0] ^= 1
        return comp

    monkeypatch.setattr(Transceiver, "encode_composites", corrupted)
    assert main(["verify", "--preset", "desk_gf8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:8]] == [
        "PASS gft-inverse", "PASS shape-weights", "PASS rc-constraint", "PASS girth",
        "PASS rank-dimension", "PASS transform-similarity", "FAIL layer-decomposition",
        "FAIL round-trip"]
    assert lines[8:] == ["6/8 checks passed"]


def test_cmd_verify_duplicate_roots(tmp_path, capsys):
    cfg = load_preset("desk_gf8")
    cfg["code"] = {"n": 7, "roots": [1, 2, 4, 8], "mode": "binary"}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL rc-constraint" in out


def test_cmd_export_desk(tmp_path, capsys):
    out_path = tmp_path / "desk.alist"
    assert main(["export", "--preset", "desk_gf8", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "49 21"


@pytest.mark.parametrize("preset, digest", [
    ("desk_gf8", "9873912f8502a86bd8c9637ce6e94798968f22df01e592906aed202ea0b9dbc1"),
    ("ex1_bch127_113", "fd46ad50677638c7367a0164a25233d0b43859a0ec700f28163785d020e1f6d8"),
    ("ex2_bch127_120", "ffdc51483537ae2710c888a3829272052eaa29d079af0aac93883194b6f69363"),
    ("ex3_rs127_121", "d8052620e5ed3bfae259acc6da79b49a8aa746fefb877040ff36b7efeef3b410"),
    ("ex5_rs89_85", "0616efa0539fb3474144f7efb1aaae48286610ec80b471f96baf864546ac3bc9"),
])
def test_cmd_export_alist_digest(tmp_path, capsys, preset, digest):
    """Pins the exported parity-check matrix of every preset byte for byte."""
    out_path = tmp_path / f"{preset}.alist"
    assert main(["export", "--preset", preset, "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_cmd_export_dense(tmp_path):
    out_path = tmp_path / "desk.txt"
    assert main(["export", "--preset", "desk_gf8", "--format", "dense",
                 "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    assert len(rows) == 21 and all(len(r) == 49 for r in rows)


def test_cmd_export_dense_scale_guarded(tmp_path, capsys):
    out_path = tmp_path / "big.txt"
    assert main(["export", "--preset", "ex5_rs89_85", "--format", "dense",
                 "--out", str(out_path)]) == 1


def test_cmd_simulate_desk(tmp_path, capsys):
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet",
            "--set", "channel.ebn0_db=[2.0,4.0]",
            "--set", "decoder.iterations=[5]",
            "--set", "sim.max_frames=60",
            "--set", "sim.target_errors=1000000"]
    assert main(args) == 0
    csv_text = (tmp_path / "desk_gf8.csv").read_text()
    lines = csv_text.splitlines()
    assert len(lines) == 3                      # header + one row per SNR
    manifest = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())
    assert manifest["tool"] == "gftmux"
    assert manifest["config"]["sim"]["max_frames"] == 60
    assert manifest["truncated"] is False
    assert manifest["decoder_kernel"] == ("numpy" if decoder._kernel is None else "c")

    # identical seed reproduces byte-identical data rows
    assert main(args) == 0
    assert (tmp_path / "desk_gf8.csv").read_text() == csv_text


def test_cmd_simulate_manifest_names_numpy_kernel(numpy_kernel, tmp_path):
    """Without the compiled kernel the manifest says that numpy decoded."""
    assert main(["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path), "--quiet",
                 "--set", "channel.ebn0_db=[4.0]", "--set", "decoder.iterations=[5]",
                 "--set", "sim.max_frames=10"]) == 0
    manifest = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())
    assert manifest["decoder_kernel"] == "numpy"


ENVIRONMENT_KEYS = {"python": str, "numpy": str, "blas": (str, type(None)),
                    "blas_version": (str, type(None)), "blas_threads": (int, type(None)),
                    "cpu_count": int, "affinity": (int, type(None)),
                    "git_revision": (str, type(None)),
                    "git_dirty": (bool, type(None))}


def test_cmd_simulate_manifest_records_environment(tmp_path, monkeypatch):
    """The manifest's environment block has exactly its documented keys and
    types; in a git checkout the revision is a commit hash with a dirty
    flag, and outside one both are null."""
    import platform

    import numpy as np

    from gftmux import cli

    def environment():
        assert main(["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path), "--quiet",
                     "--set", "channel.ebn0_db=[4.0]", "--set", "decoder.iterations=[5]",
                     "--set", "sim.max_frames=10"]) == 0
        env = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())["environment"]
        assert set(env) == set(ENVIRONMENT_KEYS)
        for key, kind in ENVIRONMENT_KEYS.items():
            assert isinstance(env[key], kind), (key, env[key])
        assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
        assert env["affinity"] is None or 1 <= env["affinity"] <= env["cpu_count"]
        assert env["blas_threads"] is None or env["blas_threads"] >= 1
        return env

    env = environment()
    if (Path(cli.__file__).parents[2] / ".git").exists():
        assert len(env["git_revision"]) == 40 and isinstance(env["git_dirty"], bool)
    outside = tmp_path / "not-a-checkout"
    outside.mkdir()
    monkeypatch.setattr(cli, "__file__", str(outside / "cli.py"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))   # not even above it
    env = environment()
    assert env["git_revision"] is None and env["git_dirty"] is None


def test_cmd_simulate_zero_noise_row(tmp_path):
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet",
            "--set", "channel.ebn0_db=[40.0]",
            "--set", "decoder.iterations=[5]",
            "--set", "sim.max_frames=25"]
    assert main(args) == 0
    lines = (tmp_path / "desk_gf8.csv").read_text().splitlines()
    fields = lines[1].split(",")
    assert fields[3] == "0.0"                    # ger
    assert fields[6] == ""                       # lambda absent


def test_cmd_simulate_with_baseline(tmp_path):
    """Every manifest carries the local baseline: on desk the analytic
    hard-decision rates of the (7,4) code, s = 3 codewords to a composite;
    on ex5 (nonbinary) one RS codeword to a composite."""
    for preset, grid, want in (("desk_gf8", [2.0, 4.0, 6.0], {"delta": 3, "t": 1, "rate": 4 / 7}),
                               ("ex5_rs89_85", [5.0, 6.0], {"delta": 5, "t": 2, "rate": 85 / 89})):
        assert main(["simulate", "--preset", preset, "--outdir", str(tmp_path), "--quiet",
                     "--set", f"channel.ebn0_db={json.dumps(grid)}",
                     "--set", "decoder.iterations=[5]", "--set", "sim.max_frames=2"]) == 0
        local = json.loads((tmp_path / f"{preset}.manifest.json").read_text())["local_bdd"]
        points = local.pop("points")
        assert local == pytest.approx(want, rel=1e-15)
        assert [q["ebn0_db"] for q in points] == grid
        wer = [q["wer"] for q in points]
        assert 1 > wer[0] > wer[-1] > 0
        if preset == "desk_gf8":
            assert wer == pytest.approx([1.2354e-1, 3.6715e-2, 5.3859e-3], rel=1e-4)
            assert [q["composite_wer"] for q in points] == pytest.approx(
                [1 - (1 - w) ** 3 for w in wer], rel=1e-12)
        else:
            assert [q["composite_wer"] for q in points] == wer


@pytest.mark.parametrize("preset, delta, t", [("desk_gf8", 3, 1), ("ex1_bch127_113", 5, 2),
                                              ("ex2_bch127_120", 3, 1), ("ex3_rs127_121", 7, 3),
                                              ("ex5_rs89_85", 5, 2)])
def test_cmd_construct_local_code(capsys, preset, delta, t):
    """construct prints the BCH bound of the base code and the radius
    t = (delta-1)//2 it corrects."""
    assert main(["construct", "--preset", preset]) == 0
    out = capsys.readouterr().out
    assert f"local code:  BCH bound delta = {delta}, corrects t = {t}\n" in out


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["construct", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"field": {"s": 3}}))
    assert main(["construct", str(missing)]) == 2
    assert main(["construct"]) == 2                    # no source
    desk = tmp_path / "desk.json"
    desk.write_text(json.dumps(load_preset("desk_gf8")))
    assert main(["construct", str(desk)]) == 0
    assert main(["construct", "--preset", "desk_gf8", str(desk)]) == 2   # both sources
    assert capsys.readouterr().err.count("exactly one of --preset or a config path") == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["construct", str(not_object)]) == 2


@pytest.mark.parametrize("command, flag, value, low", [
    ("verify", "--seed", "-1", 0),
    ("simulate", "--workers", "0", 1),
    ("simulate", "--workers", "-2", 1),
])
def test_cli_rejects_out_of_range_numbers(tmp_path, capsys, command, flag, value, low):
    """Seeds below 0 and worker counts below 1 are usage errors (exit 2)."""
    args = [command, "--preset", "desk_gf8", flag, value]
    if command == "simulate":   # kept small in case the value is let through
        args += ["--outdir", str(tmp_path), "--quiet", "--set", "channel.ebn0_db=[2.0]",
                 "--set", "sim.max_frames=20"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= {low}, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "desk_gf8.csv").exists()


def test_conjugacy_violation_reported(tmp_path, capsys):
    cfg = load_preset("desk_gf8")
    cfg["code"] = {"n": 7, "roots": [1, 2], "mode": "binary"}
    path = tmp_path / "conj.json"
    path.write_text(json.dumps(cfg))
    assert main(["construct", str(path)]) == 1
    assert main(["verify", str(path)]) == 1


@pytest.mark.parametrize("override, field", [
    ('decoder.scale="x"', "decoder.scale"),
    ("decoder.scale=true", "decoder.scale"),
    ('decoder.clip="x"', "decoder.clip"),
    ("decoder.clip=0", "decoder.clip"),
    ("decoder.clip=false", "decoder.clip"),
    ("decoder.iterations=[true]", "decoder.iterations"),
    ("decoder.iterations=[10,false]", "decoder.iterations"),
    ('sim.max_frames="10"', "sim.max_frames"),
    ("sim.max_frames=true", "sim.max_frames"),
    ("sim.max_frames=2.5", "sim.max_frames"),
    ("sim.target_errors=false", "sim.target_errors"),
    ("sim.max_frames=0", "sim.max_frames"),
    ("sim.target_errors=-3", "sim.target_errors"),
    ("channel.seed=7.9", "channel.seed"),
    ("channel.seed=true", "channel.seed"),
    ('channel.seed="7"', "channel.seed"),
    ("channel.seed=-1", "channel.seed"),
    ("channel.ebn0_db=[true]", "channel.ebn0_db"),
    ('channel.ebn0_db=[2.0,"x"]', "channel.ebn0_db"),
    ("channel.ebn0_db=[NaN]", "channel.ebn0_db"),
    ('sim.verify="no"', "sim.verify"),
    ("sim.verify=1", "sim.verify"),
    ("channel.ebn0_db=[2.0,4.0,2]", "channel.ebn0_db"),
    ("decoder.iterations=[10,50,10]", "decoder.iterations"),
    ("code.roots=[true,2,4]", "code.roots"),
    ("code.roots=[0,1,2,3,4,5,6]", "code.roots"),
    ("channel.ebn0_db=[1e308]", "channel.ebn0_db"),
    ("channel.ebn0_db=[-1e308]", "channel.ebn0_db"),
    ("channel.ebn0_db=[-3300]", "channel.ebn0_db"),
    ("channel.ebn0_db=[3080]", "channel.ebn0_db"),
    ("decoder.clip=" + "9" * 400, "decoder.clip"),
    ("field.primitive_poly=-11", "field.primitive_poly"),
    ('field.primitive_poly="-0xb"', "field.primitive_poly"),
    ("output.dir=5", "output.dir"),
    ("channel=5", "channel"),
    ("expected.shape=5", "expected.shape"),
    ("expected.shape=[21]", "expected.shape"),
    ('expected.shape=[21,"49"]', "expected.shape"),
    ("expected.shape=[-21,49]", "expected.shape"),
    ("expected.shape=[true,49]", "expected.shape"),
    ("expected.column_weight=3.0", "expected.column_weight"),
    ("expected.row_weight=true", "expected.row_weight"),
    ('expected.dimension="30"', "expected.dimension"),
    ("expected.dimension=null", "expected.dimension"),
    ('expected.rate="x"', "expected.rate"),
    ("expected.rate=NaN", "expected.rate"),
    ("expected.rate=1e400", "expected.rate"),
    ("expected.rate=false", "expected.rate"),
])
def test_config_field_types(tmp_path, capsys, override, field):
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet", "--set", override]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert "Traceback" not in err
    assert not (tmp_path / "desk_gf8.csv").exists()


@pytest.mark.parametrize("name", [[1, 2], "", ".", "..", "../escape", "sub/run", "a\0b",
                                  7, None])
def test_config_name_is_a_file_stem(tmp_path, capsys, name):
    """The name becomes <outdir>/<name>.csv: anything but a nonempty string
    without a path separator, other than . and .., is a config error, and
    nothing is written inside or outside the output directory."""
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path / "out"),
            "--quiet", "--set", f"name={json.dumps(name)}"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: name") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cmd_simulate_unwritable_output(tmp_path, capsys, monkeypatch):
    import gftmux.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the outputs were opened")

    monkeypatch.setattr(cli, "monte_carlo", no_sweep)
    blocker = tmp_path / "file"
    blocker.write_text("")
    quick = ["--set", "sim.max_frames=2", "--set", "channel.ebn0_db=[4.0]",
             "--set", "decoder.iterations=[2]"]
    # the output directory cannot be made
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(blocker / "x"),
            "--quiet"] + quick
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulate failed:") and "Traceback" not in err
    # the directory exists but a directory stands at the CSV path
    (tmp_path / "held" / "desk_gf8.csv").mkdir(parents=True)
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path / "held"),
            "--quiet"] + quick
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulate failed:") and "Traceback" not in err
    assert not (tmp_path / "held" / "desk_gf8.manifest.json").exists()
    # the CSV can be opened but the manifest cannot: no empty CSV is left
    (tmp_path / "desk_gf8.manifest.json").mkdir()
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet"] + quick
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulate failed:") and "Traceback" not in err
    assert not (tmp_path / "desk_gf8.csv").exists()


#: Every field of the config schema, and each section as a whole.
FIELD_PATHS = [f"{sec}.{key}" if sec else key for sec, key in SCHEMA]
SCHEMA_PATHS = FIELD_PATHS + sorted({sec for sec, _ in SCHEMA if sec})


def test_readme_documents_every_field():
    """README's config section names each SCHEMA field, as `section.key`."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Config schema\n")[1].split("\n## ")[0]
    assert [p for p in FIELD_PATHS if f"`{p}`" not in section] == []


def test_readme_example_config_builds():
    """The example config at the head of README's config section is valid."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Config schema\n")[1].split("\n## ")[0]
    bundle = build_system(json.loads(section.split("```json\n")[1].split("```")[0]))
    assert bundle.name == "my_run" and bundle.dimension == 14364


@pytest.mark.parametrize("path, in_file", [("nme", True), ("decoder.iteration", True),
                                           ("sim.max_frame", False), ("sim.baseline", True),
                                           ("sim.baseline", False)])
def test_unknown_field_rejected(tmp_path, capsys, path, in_file):
    """A misspelt or retired field (sim.baseline) is a config error (exit 2)
    that names its path, and nothing is written, whether it sits at the top
    level or inside a section of a config file, or comes in through --set."""
    args = ["simulate", "--outdir", str(tmp_path / "out"), "--quiet"]
    if in_file:
        source = tmp_path / "cfg.json"
        source.write_text(json.dumps(apply_overrides(load_preset("desk_gf8"), [f"{path}=5"])))
        args.append(str(source))
    else:
        args += ["--preset", "desk_gf8", "--set", f"{path}=5"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: unknown field {path}\n"
    assert list(tmp_path.iterdir()) == ([tmp_path / "cfg.json"] if in_file else [])


@pytest.mark.parametrize("path", [".seed", "", "channel..seed"])
def test_override_with_empty_key_named(tmp_path, capsys, path):
    """An override path with an empty key is a config error (exit 2) that
    quotes the whole path, and nothing is written."""
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path / "out"),
            "--quiet", "--set", f"{path}=1"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: override path {path!r} has an empty key\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_survives_any_field_value():
    """Any JSON value in any schema field ends in exit 0, 1 or 2."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = (st.none() | st.booleans() | st.integers() | st.integers(-3, 20)
               | st.floats() | st.text(max_size=6))
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=8)
                          | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                          max_leaves=10)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(path=st.sampled_from(SCHEMA_PATHS), value=values)
    def run(path, value):
        code = main(["construct", "--preset", "desk_gf8", "--set",
                     f"{path}={json.dumps(value)}"])
        assert code in (0, 1, 2)

    run()


def test_config_clip_accepts_positive_real():
    cfg = load_preset("desk_gf8")
    cfg["decoder"]["clip"] = 4
    assert build_system(cfg).sim.clip == 4.0


def test_cmd_simulate_interrupt_flushes_completed_cells(tmp_path, capsys,
                                                        monkeypatch):
    """An interrupt after the first completed cell keeps that cell's row."""
    import gftmux.cli as cli

    real = cli.monte_carlo

    def interrupted(*args, progress, **kwargs):
        def stop_after(cell):
            progress(cell)
            raise KeyboardInterrupt
        return real(*args, progress=stop_after, **kwargs)

    monkeypatch.setattr(cli, "monte_carlo", interrupted)
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--set", "channel.ebn0_db=[6.0,0.0]",
            "--set", "decoder.iterations=[5]",
            "--set", "sim.max_frames=200",
            "--set", "sim.target_errors=10"]
    assert main(args) == 130
    lines = (tmp_path / "desk_gf8.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.0,5,10,")
    assert lines[2] == "# truncated"
    manifest = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())
    assert manifest["truncated"] is True
    assert [q["ebn0_db"] for q in manifest["local_bdd"]["points"]] == [6.0, 0.0]
    err = capsys.readouterr().err
    assert "ebn0=0 iters=5 frames=10" in err


def test_cmd_simulate_interrupt_before_any_cell(tmp_path, monkeypatch):
    import gftmux.cli as cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "monte_carlo", interrupted)
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path), "--quiet"]
    assert main(args) == 130
    assert not (tmp_path / "desk_gf8.csv").exists()


def sigint_through_pool(tmp_path, **env) -> str:
    """A real Ctrl-C (SIGINT to the whole process group) during a pooled
    sweep writes the rows of the completed cells, which include every cell
    whose progress line was printed, then the truncation marker; exit 130.
    Returns the run's stderr."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gftmux.cli", "simulate", "--preset", "desk_gf8",
         "--workers", "2", "--outdir", str(tmp_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, bufsize=0, env=env,
        start_new_session=True)
    head = []   # stderr up to the first progress line; warnings may come first
    try:
        while not (head and head[-1].startswith("  ebn0=")):
            # unbuffered, so select sees every byte readline has not taken
            assert select.select([proc.stderr], [], [], 120)[0], f"no progress line: {head}"
            head.append(proc.stderr.readline().decode())
            assert head[-1], f"stderr closed before a progress line: {head}"
        os.killpg(proc.pid, signal.SIGINT)
        try:
            err = "".join(head) + proc.communicate(timeout=120)[1].decode()
        except subprocess.TimeoutExpired as exc:   # keep what the child wrote
            raise AssertionError("no exit 120 s after SIGINT; stderr: " + "".join(head)
                                 + (exc.stderr or b"").decode()) from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    done = {tuple(field.split("=")[1] for field in line.split()[:3])
            for line in err.splitlines() if line.startswith("  ebn0=")}
    lines = (tmp_path / "desk_gf8.csv").read_text().splitlines()
    assert lines[-1] == "# truncated"
    rows = list(csv.reader(lines[1:-1]))
    assert done <= {(f"{float(e):g}", i, n) for e, i, n, *_ in rows} and rows
    for _, _, frames, ger, *_ in rows:   # each row met the 100-error target
        assert round(float(ger) * int(frames)) >= 100
    manifest = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())
    assert manifest["truncated"] is True
    return err


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_cmd_simulate_sigint_through_pool(tmp_path):
    sigint_through_pool(tmp_path)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX signals")
def test_sigint_from_a_pool_thread(tmp_path, monkeypatch):
    """SIGINT sent from a pool thread once desk's 0 and 2 dB cells have
    stopped: the sweep raises KeyboardInterrupt at its next merge, never
    inside a future's lock (where it once surfaced as RuntimeError), leaves
    no pool thread and restores the handler; simulate exits 130 with the
    rows merged so far, each its golden row, and the truncation marker."""
    from gftmux import sim

    bundle = build_system(load_preset("desk_gf8"))
    cfg = bundle.sim
    cfg.max_frames = 1000
    run_block = sim.run_block

    def interrupting(tx, h, points, params, seed, start, count, verify=True, ws=None):
        if start >= 200 and sent.acquire(blocking=False):   # the first such block only
            os.kill(os.getpid(), signal.SIGINT)
        return run_block(tx, h, points, params, seed, start, count, verify, ws)

    monkeypatch.setattr(sim, "run_block", interrupting)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    sent = threading.Lock()
    with pytest.raises(KeyboardInterrupt) as raised:
        sim.monte_carlo(bundle.transceiver, bundle.parity_check, cfg, rate=bundle.rate,
                        workers=2)
    tb = raised.tb
    while tb.tb_next:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_name == "monte_carlo"   # its own loop, not a wait
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    sent = threading.Lock()
    args = ["simulate", "--preset", "desk_gf8", "--workers", "2", "--quiet",
            "--outdir", str(tmp_path), "--set", "sim.max_frames=1000"]
    assert main(args) == 130
    lines = (tmp_path / "desk_gf8.csv").read_text().splitlines()
    golden = (Path(__file__).parent / "data" / "golden_desk_gf8.csv").read_text().splitlines()
    assert lines[-1] == "# truncated" and lines[0] == golden[0]
    assert len(lines) > 2 and set(lines[1:-1]) <= set(golden[1:])


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_cmd_simulate_sigint_without_compiler(tmp_path):
    """The same with no gcc on PATH and an empty cache: the decoder's
    warning comes before the first progress line."""
    (tmp_path / "bin").mkdir()
    err = sigint_through_pool(tmp_path, PATH=str(tmp_path / "bin"),
                              XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert "decoding with numpy" in err.split("  ebn0=")[0]
