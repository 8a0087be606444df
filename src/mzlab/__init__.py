"""mzlab: phase estimation in a two-mode Mach-Zehnder interferometer.

Truncated two-mode Fock simulation with exact block-diagonal optics,
photon-counting statistics (with loss and post-selection), and phase
uncertainty from both error propagation and the quantum Cramer-Rao bound.

The package namespace holds only the names of README's library quick tour;
every other name is imported from its module (``from mzlab.states import ...``).
"""

from .estimation import qfi_analytic
from .measurement import parity_expectation, photon_distribution
from .optics import BS2_JX, beam_splitter, phase_shift
from .scenarios import ScenarioConfig, run_sweep
from .states import noon_state

__version__ = "0.1.0"
