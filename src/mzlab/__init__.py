"""mzlab: phase estimation in a two-mode Mach-Zehnder interferometer.

Truncated two-mode Fock simulation with exact block-diagonal optics,
photon-counting statistics (with loss and post-selection), and phase
uncertainty from both error propagation and the quantum Cramer-Rao bound.
"""

from .errors import (
    BasisMismatchError,
    ConfigError,
    DegenerateStateError,
    FilterExhaustedError,
    MzLabError,
    NoInformationError,
    NumericsError,
    TruncationError,
)
from .fock import (
    TwoModeState,
    basis_dim,
    inner,
    normalize,
    pair_index,
)
from .states import (
    SingleModeAmplitudes,
    SqueezeParams,
    auto_coherent,
    auto_squeezed,
    coherent_amplitudes,
    fock_after_symmetric_bs,
    noon_state,
    product_state,
    squeezed_vacuum_amplitudes,
    twin_fock,
)
from .optics import (
    BS1_SYMMETRIC,
    BS2_JX,
    BS2_JY,
    BeamSplitterSpec,
    apply_angular,
    beam_splitter,
    expect_j,
    expect_j2,
    phase_shift,
    wigner_d_block,
)
from .measurement import (
    CountDistribution,
    CountHistogram,
    ParityEstimate,
    jz_moments,
    lossy_distribution,
    parity_expectation,
    parity_from_histogram,
    photon_distribution,
    sample_counts,
    write_histogram_csv,
)
from .estimation import (
    SINGULAR,
    cramer_rao,
    is_singular,
    metric_distance,
    qfi_analytic,
    qfi_numeric,
    uncertainty_product,
)
from .scenarios import (
    NoonSamplingReport,
    QfiRow,
    ScenarioConfig,
    SweepTable,
    run_metric_check,
    run_noon_sampling,
    run_qfi_table,
    run_sweep,
)

__version__ = "0.1.0"
