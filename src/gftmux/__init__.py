"""Global coded multiplexing over GF(2^s).

A prime-length cyclic code and its Hadamard equivalents act as
algebraic subcarriers; serial-to-parallel interleaving and the Galois
Fourier transform couple them into one long quasi-cyclic LDPC code
whose binary constituent layers decode independently in parallel.
"""

__version__ = "0.1.0"

from .galois import GaloisField, SubgroupGen, build_field, element_of_order
from .cyclic import BaseCodeSpec, bch_spec, generator_poly, hadamard_perm
from .geometry import GlobalParityCheck, cpm, qc_rank, vandermonde
from .txrx import GlobalWord, StreamBlock, Transceiver
from .channel import ChannelParams, LlrFrame, llr
from .decoder import MsaParams, decode_batch, decode_global
from .sim import SimConfig, confidence_interval, monte_carlo, run_trial
from .config import build_system, list_presets, load_preset

__all__ = [
    "__version__",
    "GaloisField", "SubgroupGen", "build_field", "element_of_order",
    "BaseCodeSpec", "bch_spec", "generator_poly", "hadamard_perm",
    "GlobalParityCheck", "cpm", "qc_rank", "vandermonde",
    "GlobalWord", "StreamBlock", "Transceiver",
    "ChannelParams", "LlrFrame", "llr",
    "MsaParams", "decode_batch", "decode_global",
    "SimConfig", "confidence_interval", "monte_carlo", "run_trial",
    "build_system", "list_presets", "load_preset",
]
