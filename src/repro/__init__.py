"""repro -- reproduction of "Robust Design of Large Area Flexible
Electronics via Compressed Sensing" (Shao et al., DAC 2020).

Subpackages
-----------
``repro.core``
    The compressed-sensing encoder/decoder math, robust sampling
    strategies and the Fig. 7 evaluation pipeline.
``repro.devices``
    CNT thin-film-transistor compact model, Pt temperature sensor,
    variation / defect / yield models.
``repro.circuits``
    Netlists, an MNA circuit simulator, the pseudo-CMOS cell library,
    the 8-stage shift register and the self-biased amplifier of Fig. 5.
``repro.array``
    The active-matrix flexible CS encoder of Fig. 4 (drivers, readout
    chain, scan scheduler).
``repro.datasets``
    Synthetic thermal / tactile / ultrasound frame generators matching
    the Fig. 2 sparsity statistics.
``repro.ml``
    NumPy-only CNN framework and the ResNet classifier of the tactile
    case study.
``repro.eda``
    The Sec. 3.3 design-methodology flow: DRC, netlist extraction, LVS,
    compact-model parameter extraction and cell characterisation.
``repro.experiments``
    One module per paper figure/table; see DESIGN.md for the index.
``repro.instrument``
    Dependency-free tracing/metrics library (no CLI: wall-clock gates
    live in ``python -m repro.bench``); see docs/INSTRUMENTATION.md.
"""

__version__ = "1.0.0"

from . import instrument  # stdlib-only; must precede core (hooks import it)
from . import core

__all__ = ["core", "instrument", "__version__"]
