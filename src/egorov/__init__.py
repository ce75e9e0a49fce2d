"""Semiclassical expectation values from classical trajectories.

Quantum expectations of smooth observables in the small-parameter regime are
approximated by transporting the observable along the classical flow
(accurate to second order) and adding a correction computed from auxiliary
tensors propagated along each trajectory, which lifts the accuracy to fourth
order.  Initial data are Gaussian wave packets, sampled by quasi-Monte Carlo
from the corresponding phase-space density; a split-step Fourier solver on a
grid provides reference quantum dynamics for validation.
"""

from .correction import (
    CorrectionState,
    a2_eval,
    evolve_correction,
    evolve_correction_snapshots,
)
from .flow import propagate, propagate_snapshots
from .observables import make_observable, OBSERVABLE_NAMES
from .potentials import (
    FreePotential,
    HarmonicPotential,
    Potential,
    TorsionalPotential,
    free_potential,
    harmonic_potential,
    torsional_potential,
)
from .reference import GridSpec, init_packet, reference_expectations
from .sampling import GaussianPacket, sample_points

__all__ = [
    "CorrectionState",
    "FreePotential",
    "GaussianPacket",
    "GridSpec",
    "HarmonicPotential",
    "OBSERVABLE_NAMES",
    "Potential",
    "TorsionalPotential",
    "a2_eval",
    "evolve_correction",
    "evolve_correction_snapshots",
    "free_potential",
    "harmonic_potential",
    "init_packet",
    "make_observable",
    "propagate",
    "propagate_snapshots",
    "reference_expectations",
    "sample_points",
    "torsional_potential",
]
