import pytest

from gftmux import config, verify


def test_battery_passes_on_desk(desk_bundle):
    checks = verify.run_battery(desk_bundle)
    assert all(c.ok for c in checks), [c.line() for c in checks if not c.ok]
    names = {c.name for c in checks}
    assert {"gft-inverse", "shape-weights", "rc-constraint", "girth",
            "rank-dimension", "transform-similarity", "layer-decomposition",
            "round-trip"} == names


def test_check_line_format(desk_bundle):
    line = verify.verify_rc(desk_bundle).line()
    assert line.startswith("PASS rc-constraint:")


def test_expected_mismatch_fails():
    cfg = config.load_preset("desk_gf8")
    cfg["expected"]["dimension"] = 31
    bundle = config.build_system(cfg)
    assert not verify.verify_rank(bundle).ok


def test_expected_shape_mismatch_fails():
    cfg = config.load_preset("desk_gf8")
    cfg["expected"]["shape"] = [21, 50]
    bundle = config.build_system(cfg)
    assert not verify.verify_shape_weights(bundle).ok


@pytest.mark.parametrize("field, value, note", [
    ("column_weight", 4, "(expected column weight 4)"),
    ("row_weight", 8, "(expected row weight 8)"),
])
def test_expected_weight_mismatch_reported(field, value, note):
    cfg = config.load_preset("desk_gf8")
    cfg["expected"][field] = value
    check = verify.verify_shape_weights(config.build_system(cfg))
    assert not check.ok
    assert check.detail.endswith(note), check.line()


def test_layer_decomposition_seeded(desk_bundle):
    a = verify.verify_layer_decomposition(desk_bundle, random_vectors=100,
                                          tx_frames=2, seed=5)
    assert a.ok


def test_round_trip_check(desk_bundle):
    assert verify.verify_round_trip(desk_bundle, frames=3, seed=9).ok
