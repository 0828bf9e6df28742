"""eitcool: dark-resonance (EIT) ground-state cooling simulator for a trapped ion."""

from .atom import (
    Beam,
    LevelScheme,
    MagneticField,
    decompose_polarization,
    doppler_limit_occupation,
    zeeman_splitting,
)
from .cooling import (
    CoolingGeometry,
    CoolingReport,
    cooling_coefficients,
    evolve_n,
    multimode_report,
    steady_state_n_sweep,
)
from .liouville import (
    DrivenSystem,
    Liouvillian,
    build_liouvillian,
    build_system,
    steady_state,
)
from .spectrum import (
    EITConfig,
    FanoFeatures,
    Spectrum,
    ac_stark_shift,
    ac_stark_shift_approx,
    coupling_for_target_shift,
    dressed_state,
    fano_features,
    scattering_rate,
    scattering_rates,
)
from .thermometry import (
    FlopRecord,
    ThermalState,
    fit_thermal,
    ground_state_probability,
    sideband_flops,
    sideband_ratio_n,
)

__version__ = "0.1.0"
