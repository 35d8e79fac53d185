import json

import pytest

from gftmux.cli import main
from gftmux.config import (
    ConfigError,
    apply_overrides,
    build_system,
    list_presets,
    load_preset,
    resolve,
)
from gftmux.geometry import read_alist


def test_presets_shipped():
    names = list_presets()
    assert {"desk_gf8", "ex1_bch127_113", "ex2_bch127_120",
            "ex3_rs127_121", "ex4_qc16129_binary", "ex5_rs89_85"} <= set(names)


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


def test_cmd_construct_desk(capsys):
    assert main(["construct", "--preset", "desk_gf8"]) == 0
    out = capsys.readouterr().out
    assert "21x49" in out and "weights 3/7" in out
    assert "dimension:   30" in out and "rank:        19" in out
    assert "0.612245" in out


def test_cmd_verify_desk(capsys):
    assert main(["verify", "--preset", "desk_gf8"]) == 0
    out = capsys.readouterr().out
    assert "PASS rc-constraint" in out
    assert "PASS girth" in out
    assert "FAIL" not in out


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
    back = read_alist(str(out_path))
    assert back.n_cols == 49 and back.n_rows == 21


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
            "--set", "sim.target_errors=1000000",
            "--set", "sim.baseline=false"]
    assert main(args) == 0
    csv_text = (tmp_path / "desk_gf8.csv").read_text()
    lines = csv_text.splitlines()
    assert len(lines) == 3                      # header + one row per SNR
    manifest = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())
    assert manifest["tool"] == "gftmux"
    assert manifest["config"]["sim"]["max_frames"] == 60
    assert manifest["truncated"] is False

    # identical seed reproduces byte-identical data rows
    assert main(args) == 0
    assert (tmp_path / "desk_gf8.csv").read_text() == csv_text


def test_cmd_simulate_zero_noise_row(tmp_path):
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet",
            "--set", "channel.ebn0_db=[40.0]",
            "--set", "decoder.iterations=[5]",
            "--set", "sim.max_frames=25",
            "--set", "sim.baseline=false"]
    assert main(args) == 0
    lines = (tmp_path / "desk_gf8.csv").read_text().splitlines()
    fields = lines[1].split(",")
    assert fields[3] == "0.0"                    # ger
    assert fields[6] == ""                       # lambda absent


def test_cmd_simulate_with_baseline(tmp_path):
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet",
            "--set", "channel.ebn0_db=[2.0]",
            "--set", "decoder.iterations=[5]",
            "--set", "sim.max_frames=40",
            "--set", "sim.target_errors=1000000"]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "desk_gf8.manifest.json").read_text())
    assert "baseline_mld_wer" in manifest
    entry = manifest["baseline_mld_wer"]["2.0"]
    assert entry["words"] > 0 and 0 <= entry["wer"] <= 1


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["construct", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"field": {"s": 3}}))
    assert main(["construct", str(missing)]) == 2
    assert main(["construct", "--preset", "desk_gf8", "--preset2"] if False
                else ["construct"]) == 2


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
])
def test_config_field_types(tmp_path, capsys, override, field):
    args = ["simulate", "--preset", "desk_gf8", "--outdir", str(tmp_path),
            "--quiet", "--set", override]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert "Traceback" not in err
    assert not (tmp_path / "desk_gf8.csv").exists()


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
    assert "baseline_mld_wer" not in manifest
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
