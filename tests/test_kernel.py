"""The C library's kernels against their numpy oracles, and its build.

decoder._flood is the reference for the flooding kernel: on every layer
it must report the same hard bits, convergence flag, iteration count and
operation count (OPS_PER_EDGE per edge per iteration) at every
checkpoint limit.  galois.gf2_product is the reference for Gf2Map, in C
and in numpy.
"""

import ctypes
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import gf2_map_results
from gftmux import config, decoder, galois, geometry
from gftmux.channel import ChannelParams, LlrFrame, llr
from gftmux.decoder import OPS_PER_EDGE, MsaParams, _flood, decode_batch
from gftmux.galois import Gf2Map, gf2_product
from gftmux.geometry import GlobalParityCheck
from gftmux.sim import run_trial, trial_rng
from gftmux.txrx import StreamBlock

SRC = Path(decoder.__file__).parent

needs_kernel = pytest.mark.skipif(decoder._kernel is None,
                                  reason="the C kernel is not built (no compiler)")


@functools.lru_cache(maxsize=None)
def preset_graph(preset):
    return config.build_system(config.load_preset(preset)).parity_check


def assert_same_results(h, got, expected):
    """decode_batch's (bits, iterations, converged), entry [l, j] for layer l
    at limit j, equal _flood's tuple for each layer in expected, and so do
    the operation counts."""
    bits, iterations, converged = got
    ref_bits, ref_iterations, ref_converged = (np.stack(a) for a in zip(*expected))
    assert bits.shape == ref_bits.shape and (bits == ref_bits).all()
    assert (converged == ref_converged).all() and (iterations == ref_iterations).all()
    ops = OPS_PER_EDGE * h.n_edges
    assert (ops * iterations == ops * ref_iterations).all()


def assert_matches_oracle(h, values, s, params, limits):
    frame = LlrFrame(values, s=s, n=h.n)
    assert_same_results(h, decode_batch(frame.layers(), h, params, limits),
                        [_flood(lay, h, params, limits) for lay in frame.layers()])


def llr_values(mode, size, rng):
    if mode == "noisy":     # the all-zero codeword of every code, with noise
        sigma = rng.choice([0.5, 1.0, 2.0])
        return 2.0 * (1.0 + sigma * rng.standard_normal(size)) / sigma ** 2
    if mode == "ties":      # exact zeros of both signs and many equal magnitudes
        return rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0], size=size)
    # huge magnitudes: sums overflow, and the numpy oracle takes over
    return rng.choice([1e300, -1e300, 1e-300, -0.0, 3.0, -1e308], size=size)


@needs_kernel
def test_kernel_matches_flood(monkeypatch):
    """Random LLRs on desk and ex5 (m < 8), ex1 (m = 14) and random QC
    exponent tables up to m = 20 (so numpy's blocks of eight repeat), with
    the lane cap at 1, 2, 3 and 8: lane counts that do not divide the
    layer count, and lanes whose layers overflow beside lanes whose layers
    converge.  ex1 and ex5 decode one layer at a time whatever the cap,
    and hold at most 3 layers so that the oracle stays quick."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        preset = draw(st.sampled_from(
            ["desk_gf8", "ex5_rs89_85", "ex1_bch127_113", None, None, None, None]))
        if preset:
            return preset_graph(preset)
        m, n = draw(st.integers(1, 20)), draw(st.integers(2, 13))
        seed = draw(st.integers(0, 2 ** 32 - 1))
        return GlobalParityCheck(
            np.random.default_rng(seed).integers(0, n, size=(m, n)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        h=graphs(), s=st.integers(1, 10),
        mode=st.sampled_from(["noisy", "ties", "huge"]),
        seed=st.integers(0, 2 ** 32 - 1),
        scale=st.sampled_from([0.625, 0.75, 1.0]),
        clip=st.sampled_from([None, 1.0, 4.0, 1e-3]),
        limits=st.lists(st.integers(1, 8), min_size=1, max_size=4))
    def run(h, s, mode, seed, scale, clip, limits):
        s = s if h.n <= 13 else min(s, 3)
        rng = np.random.default_rng(seed)
        values = llr_values(mode, s * h.n_vars, rng)
        assert_matches_oracle(h, values, s, MsaParams(max_iterations=max(limits),
                                                      scale=scale, clip=clip),
                              tuple(limits))

    for max_lanes in (1, 2, 3, 8):
        monkeypatch.setattr(decoder, "MAX_LANES", max_lanes)
        with np.errstate(all="ignore"):   # the oracle's overflowing sums
            run()


def run_kernel(h, layers, params, limits, lanes, pad=0):
    """The raw kernel on layers at the given lane count, with a work buffer
    of the documented size plus pad sentinel doubles: (bits, kstar, work)."""
    layers = np.ascontiguousarray(layers, dtype=np.float64)
    steps = np.array(sorted(set(limits)), dtype=np.int64)
    bits = np.zeros((len(layers), steps.size, h.n_vars), dtype=np.uint8)
    kstar = np.zeros(len(layers), dtype=np.int64)
    work = np.full(decoder.work_doubles(h, lanes) + pad, -7.25)
    decoder._kernel(layers.ctypes.data, len(layers), h.n, h.m,
                    h.cpm_exponents.ctypes.data, params.scale,
                    np.inf if params.clip is None else params.clip, steps.ctypes.data,
                    steps.size, lanes, work.ctypes.data, bits.ctypes.data,
                    kstar.ctypes.data)
    return bits, kstar, work


def desk_block_llrs(ebn0_db, trials=64, seed=20260810):
    """The (trials, 147) LLR frames of desk trials 0..trials-1 at ebn0_db,
    drawn as run_block draws them."""
    b = config.build_system(config.load_preset("desk_gf8"))
    tx = b.transceiver
    rngs = [trial_rng(seed, i) for i in range(trials)]
    streams = StreamBlock(bits=np.stack([tx.random_streams(r).bits for r in rngs]))
    noise = np.stack([r.standard_normal(tx.s * tx.n * tx.n) for r in rngs])
    _, x = tx.multiplex(tx.encode_composites(streams))
    sigma = ChannelParams(ebn0_db=ebn0_db, rate=b.rate).sigma
    return llr(x + sigma * noise, sigma)


@needs_kernel
@pytest.mark.parametrize("lanes", [1, 2, 3, 8])
def test_overflowing_lane_between_converging_lanes(lanes):
    """Eleven desk layers, the fifth overflowing: the kernel reports
    kstar = -1 for it alone, every other layer converges with _flood's
    iteration count and bits, and a lane never carries its layer's state
    into the next layer it takes."""
    h = preset_graph("desk_gf8")
    params, limits = MsaParams(max_iterations=10), (3, 10)
    layers = LlrFrame(desk_block_llrs(4.0, trials=4), s=3, n=7).layers()[:11].copy()
    layers[4] = np.where(np.arange(h.n_vars) % 2, 1e308, -1e308)
    bits, kstar, _ = run_kernel(h, layers, params, limits, lanes)
    with np.errstate(all="ignore"):
        expected = [_flood(lay, h, params, limits) for lay in layers]
    assert kstar[4] == -1
    for l, (ref_bits, ref_iterations, ref_converged) in enumerate(expected):
        if l != 4:
            assert ref_converged[-1] and kstar[l] == ref_iterations[-1]
            assert (bits[l, -1] == ref_bits[-1]).all()


@needs_kernel
@pytest.mark.parametrize("preset, lanes", [("desk_gf8", 1), ("desk_gf8", 3), ("desk_gf8", 8),
                                           (None, 2), (None, 5)])
def test_kernel_stays_inside_documented_work(preset, lanes):
    """Sentinels past the work size _flood.c documents come back untouched,
    on desk (m = 3) and on a random m = 20, n = 13 table (the pairwise sum
    in blocks of eight)."""
    h = preset_graph(preset) if preset else GlobalParityCheck(
        np.random.default_rng(9).integers(0, 13, size=(20, 13)))
    layers = llr_values("noisy", (7, h.n_vars), np.random.default_rng(10))
    _, kstar, work = run_kernel(h, layers, MsaParams(max_iterations=6), (2, 6), lanes,
                                pad=256)
    assert (kstar >= 0).all()
    assert (work[-256:] == -7.25).all()


@needs_kernel
def test_overflowing_layer_falls_back_to_flood(monkeypatch):
    h = preset_graph("desk_gf8")
    calls = []

    def counted(*args):
        calls.append(args)
        return _flood(*args)

    monkeypatch.setattr(decoder, "_flood", counted)
    values = np.where(np.arange(3 * 49) % 2, 1e308, -1e308)
    with np.errstate(all="ignore"):
        assert_matches_oracle(h, values, 3, MsaParams(max_iterations=5), (2, 5))
    assert calls           # decode_batch handed an overflowing layer to _flood


def test_wide_columns_decode_with_flood(monkeypatch):
    """Above m = 128 numpy's pairwise sum recurses; the kernel is not used."""
    def refuse(*args):
        raise AssertionError("kernel called for m > 128")

    monkeypatch.setattr(decoder, "_kernel", refuse)
    h = GlobalParityCheck(
        np.random.default_rng(3).integers(0, 2, size=(129, 2)))
    values = np.random.default_rng(4).standard_normal(h.n_vars)
    assert_matches_oracle(h, values, 1, MsaParams(max_iterations=3), (1, 3))


def test_false_convergence_trips_verify(desk_bundle, monkeypatch):
    """A kernel that reports convergence on a nonzero syndrome is caught by
    SimConfig.verify's re-check."""
    def lying(channel, s, n, m, expo, scale, clip, limits, k, lanes, work, bits, kstar):
        ctypes.memset(bits, 1, s * k * n * n)   # all ones: odd-weight checks fail
        converged = ctypes.cast(kstar, ctypes.POINTER(ctypes.c_int64))
        for l in range(s):
            converged[l] = 1

    monkeypatch.setattr(decoder, "_kernel", lying)
    params = MsaParams(max_iterations=10, scale=0.625)
    tx, h = desk_bundle.transceiver, desk_bundle.parity_check
    with pytest.raises(RuntimeError, match="nonzero syndrome"):
        run_trial(tx, h, 1.0, params, 555, 0)
    run_trial(tx, h, 1.0, params, 555, 0, verify=False)


def assert_gf2_map_matches_product(k, c, rows, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(k, c)).astype(np.float32)
    bits = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
    expected = gf2_product(bits, matrix)
    for got in gf2_map_results(Gf2Map(matrix), bits):
        assert got.dtype == np.uint8 and got.shape == (rows, c)
        assert (got == expected).all()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 61])
@pytest.mark.parametrize("c", [1, 63, 64, 65, 200, 1100])
def test_gf2_map_matches_product_at_edges(k, c):
    """Every K mod 4, K < 4, C below, at and above one 64-bit word and past
    the C applier's 1024-column chunk, and zero rows."""
    assert_gf2_map_matches_product(k, c, 9, seed=k * 10_000 + c)
    assert_gf2_map_matches_product(k, c, 0, seed=0)


def test_gf2_map_matches_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(k=st.integers(1, 300), c=st.integers(1, 300),
                      rows=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
    def run(k, c, rows, seed):
        assert_gf2_map_matches_product(k, c, rows, seed)

    run()


def test_gf2_map_keeps_leading_axes_and_checks_width():
    lift = galois.build_field(3).lift([[1, 2], [3, 4], [5, 6]])
    gmap = Gf2Map(lift)
    bits = np.random.default_rng(5).integers(0, 2, size=(2, 3, 9), dtype=np.uint8)
    for got in gf2_map_results(gmap, bits):
        assert (got == gf2_product(bits.reshape(-1, 9), lift).reshape(2, 3, 6)).all()
    with pytest.raises(ValueError, match="do not match"):
        gmap(bits[..., :8])


@pytest.mark.skipif(geometry._syndrome is None, reason="the C library is not built")
@pytest.mark.parametrize("preset", config.list_presets())
def test_library_syndrome_matches_gather(preset, monkeypatch):
    """gftmux_syndrome counts what numpy's gather of H's rows counts, on
    random bit and symbol stacks, single words, stacks and empty stacks."""
    h = preset_graph(preset)
    order = config.build_system(config.load_preset(preset)).spec.field.order
    rng = np.random.default_rng(len(preset))
    for high in (2, min(order, 256)):
        for shape in ((h.n_vars,), (9, h.n_vars), (2, 3, h.n_vars), (0, h.n_vars)):
            words = rng.integers(0, high, size=shape, dtype=np.uint8)
            if words.ndim > 1:
                words[..., :1, :] = 0   # a codeword in every stack
            got = h.syndrome_weight(words)
            with monkeypatch.context() as mp:
                mp.setattr(geometry, "_syndrome", None)
                want = h.syndrome_weight(words)
            assert np.shape(got) == np.shape(want) == shape[:-1]
            assert (got == want).all()
            if len(shape) > 1 and shape[-2]:
                assert (got[..., 0] == 0).all() and got.any()
    with pytest.raises(ValueError, match="do not end in"):
        h.syndrome_weight(np.zeros(h.n_vars - 1, dtype=np.uint8))


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
def test_kernel_compiles_without_warnings(tmp_path):
    """Every source of the library, the flooding kernel and the GF(2)
    table product, builds cleanly under -Wall -Wextra -Werror."""
    proc = subprocess.run(
        ["gcc", *galois.CFLAGS, "-Wall", "-Wextra", "-Werror",
         *(str(SRC / name) for name in galois.C_SOURCES),
         "-o", str(tmp_path / "gftmux.so"), "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(galois.C_SOURCES) == {p.name for p in SRC.glob("*.c")}


def cpu_flags():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@functools.lru_cache(maxsize=None)
def clone_cases():
    """(graph, frame values, s, params, limits, _flood's results per layer):
    chain-made noisy ex1 and ex3 frames, a 64-trial desk block at 0 and
    4 dB (decoded 8 layers side by side), and tied and overflowing LLRs on
    a random m = 20 exponent table."""
    cases, limits = [], (4, 10)
    desk = preset_graph("desk_gf8")
    for ebn0_db in (0.0, 4.0):
        cases.append((desk, desk_block_llrs(ebn0_db), 3, MsaParams(max_iterations=10),
                      limits))
    for preset in ("ex1_bch127_113", "ex3_rs127_121"):
        b = config.build_system(config.load_preset(preset))
        tx, h = b.transceiver, b.parity_check
        params = MsaParams(max_iterations=10, scale=b.sim.scale)
        rng = np.random.default_rng(11)
        for ebn0_db in (5.0, 7.0):
            sigma = ChannelParams(ebn0_db=ebn0_db, rate=b.rate).sigma
            for _ in range(2):
                _, x = tx.transmit(tx.random_streams(rng))
                cases.append((h, llr(x + sigma * rng.standard_normal(x.shape), sigma),
                              tx.s, params, limits))
    rng = np.random.default_rng(12)
    h = GlobalParityCheck(rng.integers(0, 13, size=(20, 13)))
    for mode, clip in (("ties", None), ("huge", 4.0)):
        cases.append((h, llr_values(mode, 3 * h.n_vars, rng), 3,
                      MsaParams(max_iterations=10, clip=clip), limits))
    with np.errstate(all="ignore"):
        return [(*case, [_flood(lay, case[0], case[3], limits)
                         for lay in LlrFrame(case[1], s=case[2], n=case[0].n).layers()])
                for case in cases]


@needs_kernel
@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
@pytest.mark.parametrize("march, flags", [("x86-64", ()), ("x86-64-v3", ("avx2",)),
                                          ("x86-64-v4", ("avx2", "avx512f"))],
                         ids=["x86-64", "x86-64-v3", "x86-64-v4"])
def test_every_isa_clone_matches_flood(tmp_path, monkeypatch, march, flags):
    """Each x86-64 level the loader may pick, built alone, decodes as _flood
    does; levels this CPU cannot run are skipped."""
    if os.uname().machine != "x86_64" or not set(flags) <= cpu_flags():
        pytest.skip(f"this CPU cannot run -march={march}")
    lib = tmp_path / f"flood-{march}.so"
    subprocess.run(["gcc", *galois.CFLAGS, "-DGFTMUX_ONE_TARGET", f"-march={march}",
                    str(SRC / "_flood.c"), "-o", str(lib), "-lm"], check=True)
    fn = ctypes.CDLL(str(lib)).gftmux_flood
    fn.argtypes, fn.restype = decoder._kernel.argtypes, None
    monkeypatch.setattr(decoder, "_kernel", fn)
    for h, values, s, params, limits, expected in clone_cases():
        with np.errstate(all="ignore"):
            got = decode_batch(LlrFrame(values, s=s, n=h.n).layers(), h, params, limits)
        assert_same_results(h, got, expected)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
def test_build_removes_stale_libraries(tmp_path):
    """A build into an empty slot removes the libraries of other sources
    from the cache and leaves other files; loading a cached library removes
    nothing."""
    cache = tmp_path / "cache" / "gftmux"
    cache.mkdir(parents=True)
    stale = ["gftmux-0123456789abcdef.so", "flood-5290d82f7a13386a.so"]
    for name in [*stale, "notes.txt"]:
        (cache / name).write_bytes(b"x")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=str(SRC.parent))
    load = [sys.executable, "-c", "from gftmux import galois; assert galois.c_library"]
    proc = subprocess.run(load, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    libs = sorted(p.name for p in cache.glob("*.so"))
    assert len(libs) == 1 and libs[0].startswith("gftmux-") and libs[0] not in stale
    assert (cache / "notes.txt").exists()
    (cache / stale[0]).write_bytes(b"x")
    proc = subprocess.run(load, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in cache.glob("*.so")) == sorted([*libs, stale[0]])


@needs_kernel
def test_loader_declares_every_entry_point():
    """galois.py loaded alone, in a fresh interpreter and without the rest of
    the package, sets argtypes on every gftmux_* function its C_SOURCES
    define: no caller declares an entry point of its own."""
    script = r"""
import importlib.util, json, re, sys
from pathlib import Path
path = Path(sys.argv[1])
spec = importlib.util.spec_from_file_location("galois_alone", path)
galois = sys.modules["galois_alone"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(galois)
names = sorted({name for source in galois.C_SOURCES for name in re.findall(
    r"^\w[\w ]*\b(gftmux_\w+)\(", path.with_name(source).read_text(), re.M)})
print(json.dumps({"names": names, "package": [m for m in sys.modules if "gftmux" in m],
                  "declared": [getattr(galois.c_library, n).argtypes is not None
                               for n in names]}))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(SRC / "galois.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["names"] == ["gftmux_draw", "gftmux_flood", "gftmux_gf2_apply", "gftmux_seed",
                            "gftmux_syndrome"]
    assert out["package"] == [] and all(out["declared"])


def test_missing_compiler_falls_back_with_one_warning(tmp_path):
    """With no gcc on PATH and an empty cache, importing the package warns
    once; decoding runs on _flood, the GF(2) maps on numpy tables and the
    block draw on numpy's generator, and desk's chain still round-trips,
    without further warnings."""
    (tmp_path / "bin").mkdir()
    script = """
import json, warnings
import numpy as np
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from gftmux import config, decoder, galois, sim
    from gftmux.channel import LlrFrame
    b = config.build_system(config.load_preset("desk_gf8"))
    h, tx = b.parity_check, b.transceiver
    frame = LlrFrame(np.ones(3 * 49), s=3, n=7)
    _, _, converged = decoder.decode_batch(frame.layers(), h,
                                           decoder.MsaParams(max_iterations=5), (5,))
    rng = np.random.default_rng(7)
    streams = [tx.random_streams(rng) for _ in range(20)]
    words = [tx.transmit(st)[0] for st in streams]
    round_trip = all(st.equal(tx.demultiplex(w)[1]) and (h.syndrome_weight(w.bits) == 0).all()
                     for st, w in zip(streams, words))
    block, noise = sim.draw_block(tx, 7, 0, 3)
    rng = sim.trial_rng(7, 2)
    drawn = (block.bits[2] == tx.random_streams(rng).bits).all() and (
        noise[2] == rng.standard_normal(noise[2].size).reshape(-1, tx.s).T).all()
print(json.dumps({"kernel": decoder._kernel is not None,
                  "gf2_apply": galois._gf2_apply is not None,
                  "draw": sim._draw is not None, "drawn": bool(drawn),
                  "converged": bool(converged.all()), "round_trip": round_trip,
                  "warnings": [str(w.message) for w in caught]}))
"""
    env = dict(os.environ, PATH=str(tmp_path / "bin"),
               XDG_CACHE_HOME=str(tmp_path / "cache"), PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["kernel"] is False and out["gf2_apply"] is False and out["draw"] is False
    assert out["converged"] and out["round_trip"] and out["drawn"]
    assert len(out["warnings"]) == 1
    assert "decoding with numpy" in out["warnings"][0]
    assert "GF(2) maps with numpy" in out["warnings"][0]
    assert "drawing the noise with numpy" in out["warnings"][0]
