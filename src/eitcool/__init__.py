"""eitcool: dark-resonance (EIT) ground-state cooling simulator for a trapped ion.

The public names below are imported from their modules on first access
(PEP 562), so ``import eitcool`` loads no solver module; each name is then
kept in this module's globals and read as a plain global.
"""

from importlib import import_module

_EXPORTS = {
    "atom": ("Beam", "LevelScheme", "MagneticField", "decompose_polarization",
             "doppler_limit_occupation", "zeeman_splitting"),
    "cooling": ("CoolingGeometry", "CoolingReport", "cooling_coefficients", "evolve_n",
                "multimode_report", "steady_state_n_sweep"),
    "liouville": ("DrivenSystem", "Liouvillian", "build_liouvillian", "build_system",
                  "steady_state"),
    "spectrum": ("EITConfig", "FanoFeatures", "Spectrum", "ac_stark_shift",
                 "ac_stark_shift_approx", "coupling_for_target_shift", "dressed_state",
                 "fano_features", "scattering_rate", "scattering_rates"),
    "thermometry": ("FlopRecord", "ThermalState", "fit_thermal", "ground_state_probability",
                    "sideband_flops", "sideband_ratio_n"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
