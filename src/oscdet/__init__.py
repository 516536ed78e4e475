"""oscdet: zeta-regularized actions, spectra, and spectral determinants
for Schrodinger operators with even polynomial potentials on the line."""

__version__ = "0.1.0"

from .actions import (
    ActionValue,
    adaptive_tail,
    binomial_action,
    binomial_action_s,
    improper_action,
    trinomial_action_asymptotic,
)
from .errors import (
    AccuracyError,
    DivergenceError,
    DomainError,
)
from .mellin import (
    AsymptoticTerm,
    MellinPole,
    assemble_asymptotics,
    contributing_poles,
    enumerate_poles,
)
from .potential import (
    BetaTable,
    PotentialSpec,
    beta_coefficients,
    symanzik_map,
)
from .predictions import (
    PredictionReport,
    predict_det_ratio_g,
    predict_Z1,
    verify,
)
from .special_functions import (
    CATALAN,
    EULER_GAMMA,
    Jet1,
    digamma,
    binomial_jets,
    log_gamma,
)
from .spectral import (
    DeterminantValue,
    ZetaValue,
    det_ratio,
    det_ratio_skew,
    harmonic_det,
    shooting_det,
    zeta_from_det,
    zeta_full,
    zeta_skew,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["SpectrumResult", "eigenvalues"]


def __getattr__(name):
    # the spectrum module loads LAPACK, which only an eigen solve needs
    if name in ("SpectrumResult", "eigenvalues"):
        from . import spectrum
        return getattr(spectrum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
