"""Biorthogonal quantum geometry for PT-symmetric Hamiltonian families.

Extended quantum geometric tensor, Berry curvature and phase,
fidelity, metric-compatible adiabatic dynamics, and a dimerized XY-chain
application for locating phase transitions and PT-breaking lines.
"""

from .biortho import (
    BiorthoEigensystem,
    HamiltonianFamily,
    biortho_eig,
    build_W,
    default_step,
    gauge_transform,
)
from .dynamics import EvolutionResult, PathSpec, adiabatic_phase, evolve
from .errors import (
    AmbiguousMatching,
    CaseUnsupported,
    DefectiveMatrix,
    Degenerate,
    GaplessPoint,
    NonFinite,
    NotAdiabatic,
    NotPositiveDefinite,
    OpenLoop,
    ParseError,
    PtqgtError,
    StepTooLarge,
    ZeroScale,
)
from .families import (
    bundled_model_path,
    load_bundled_model,
    pt_two_level_family,
    spin_half_family,
)
from .geometry import (
    GeomTensor,
    LoopSpec,
    OperatorPair,
    berry_phase_loop,
    classify_interval,
    curvature_flux,
    fidelity,
    o_operators,
    qgt,
    variance_metric,
)
from .modelfile import load_model, parse_model
from .scan import ScanConfig, ScanRecord, ScanResult, run_scan, write_csv
from .xy_chain import (
    CriticalSet,
    Dispersion,
    FieldPoint,
    XYParams,
    critical_set,
    dispersion,
    dk_blocks,
    dk_family,
    dk_matrix,
    metric_intensity,
    occupied_levels,
    unbroken_at,
)

__version__ = "0.1.0"
