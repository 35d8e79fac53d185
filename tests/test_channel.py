import numpy as np
import pytest

from gftmux.channel import ChannelParams, LlrFrame, llr


def test_sigma_formula():
    p = ChannelParams(ebn0_db=0.0, rate=0.5)
    assert p.sigma2 == pytest.approx(1.0)
    p = ChannelParams(ebn0_db=3.0, rate=0.8905)
    assert p.sigma2 == pytest.approx(1.0 / (2 * 0.8905 * 10 ** 0.3))


def test_llr_examples():
    assert llr(np.array([1.0]), 1.0)[0] == pytest.approx(2.0)
    assert llr(np.array([0.0]), 0.7)[0] == 0.0
    assert llr(np.array([-0.5]), np.sqrt(0.5))[0] == pytest.approx(-2.0)


def test_llr_odd_and_linear():
    rng = np.random.default_rng(11)
    y = rng.normal(size=50)
    assert np.allclose(llr(-y, 0.8), -llr(y, 0.8))
    assert np.allclose(llr(3.5 * y, 0.8), 3.5 * llr(y, 0.8))


def test_llr_requires_positive_sigma():
    with pytest.raises(ValueError):
        llr(np.zeros(3), 0.0)


def test_layer_views_single_layer():
    frame = LlrFrame(np.arange(9, dtype=float), s=1, n=3)
    assert (frame.layers()[0] == np.arange(9)).all()


def test_layer_views_stride():
    frame = LlrFrame(np.arange(3 * 49, dtype=float), s=3, n=7)
    assert frame.layers()[2][0] == 2.0          # bit 2 of symbol 0 sits at index 2
    assert frame.layers()[0][1] == 3.0


def test_layer_views_partition_and_reassemble():
    rng = np.random.default_rng(13)
    values = rng.normal(size=3 * 49)
    frame = LlrFrame(values, s=3, n=7)
    views = frame.layers()
    rebuilt = np.empty_like(values)
    for l, view in enumerate(views):
        rebuilt[l::3] = view
    assert (rebuilt == values).all()


def test_frame_length_mismatch():
    with pytest.raises(ValueError):
        LlrFrame(np.zeros(10), s=3, n=7)
