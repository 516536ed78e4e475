"""Constructors and oracles that only the tests use."""

import math

from oscdet.potential import PotentialSpec
from oscdet.special_functions import digamma


def uncoupled(M: int, v: float, lam: float = 0.0) -> PotentialSpec:
    """v q^M + lam with no higher power."""
    return PotentialSpec(N=M, M=0, u=v, v=0.0, lam=lam)


def residue_log_deriv(j: int, u: float) -> float:
    """d/ds log beta_{-1}(s) at s=0 on a level-j anomalous family with
    leading coefficient u: psi(j - 1/2) - psi(-1/2) - log u."""
    return digamma(j - 0.5) - digamma(-0.5) - math.log(u)
