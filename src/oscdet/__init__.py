"""oscdet: zeta-regularized actions, spectra, and spectral determinants
for Schrodinger operators with even polynomial potentials on the line."""

__version__ = "0.1.0"

# each public name under the module that defines it; the module is imported
# on the name's first use (PEP 562), so that importing one module runs no
# other's body, and the spectrum module, which loads LAPACK, loads only with
# an eigen solve
_EXPORTS = {
    "actions": ("ActionValue", "adaptive_tail", "binomial_action", "binomial_action_s",
                "improper_action", "trinomial_action_asymptotic"),
    "errors": ("AccuracyError", "DivergenceError", "DomainError"),
    "mellin": ("AsymptoticTerm", "MellinPole", "assemble_asymptotics", "contributing_poles",
               "enumerate_poles"),
    "potential": ("BetaTable", "PotentialSpec", "beta_coefficients", "symanzik_map"),
    "predictions": ("PredictionReport", "predict_det_ratio_g", "predict_Z1", "verify"),
    "special_functions": ("CATALAN", "EULER_GAMMA", "Jet1", "digamma", "binomial_jets",
                          "log_gamma"),
    "spectral": ("DeterminantValue", "ZetaValue", "det_ratio", "det_ratio_skew",
                 "harmonic_det", "shooting_det", "zeta_from_det", "zeta_full", "zeta_skew"),
    "spectrum": ("SpectrumResult", "eigenvalues"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return [*globals(), *__all__]
