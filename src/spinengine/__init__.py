"""Work-extraction engines with interacting spin chains as working media.

The package has three layers: exact finite-chain machinery (bitmask
kernels, dense Hamiltonians, Gibbs states, protocol simulation), closed
thermodynamic-limit analytics for the periodic Ising chain, and a
Lie-algebra classifier deciding which unitaries local controls can
reach.  The command-line front end lives in :mod:`spinengine.cli`.
"""

from .control import (FULL, COMMUTING, INTERMEDIATE, GeneratorSet,
                      UnitaryClass, classify_unitary_class,
                      heisenberg_chain_drift, ising_chain_drift,
                      lie_algebra_dimension, site_controls)
from .engine import (Betas, BoundInputs, CycleReport, Isotherm, Quench,
                     ThermalContact, UndefinedResultError, Unitary, apply_step,
                     bound_terms, carnot_like_cycle, efficiency_bound, run_cycle)
from .hamiltonians import IsingParams, ising_composite, ising_diagonal
from .ising import (entropy_density, free_energy_density,
                    ground_state_degeneracy, internal_energy_density,
                    log_lambda_plus, magnetization_density, optimal_field,
                    relative_entropy_density, transfer_matrix_logZ)
from .protocols import (FREE_FIELDS, PAPER_PROTOCOL, ProtocolFields,
                        chain_efficiency_at_max_work, chain_sweep,
                        efficiency_at_max_work, efficiency_thermo_limit,
                        ferro_efficiency_limit, sweep_j, work_density)
from .thermo import (DensityState, gibbs, log_partition, min_relative_entropy,
                     relative_entropy, relative_entropy_down, trace_distance,
                     von_neumann_entropy)

__version__ = "0.1.0"

__all__ = [
    "Betas", "BoundInputs", "CycleReport", "DensityState", "FREE_FIELDS",
    "FULL", "COMMUTING", "INTERMEDIATE", "GeneratorSet", "IsingParams", "Isotherm",
    "PAPER_PROTOCOL", "ProtocolFields", "Quench",
    "ThermalContact", "UndefinedResultError", "Unitary", "UnitaryClass",
    "apply_step", "bound_terms", "carnot_like_cycle",
    "chain_efficiency_at_max_work", "chain_sweep", "classify_unitary_class",
    "efficiency_at_max_work", "efficiency_bound", "efficiency_thermo_limit",
    "entropy_density", "ferro_efficiency_limit",
    "free_energy_density", "gibbs", "ground_state_degeneracy",
    "heisenberg_chain_drift", "internal_energy_density", "ising_chain_drift",
    "ising_composite", "ising_diagonal",
    "lie_algebra_dimension", "log_lambda_plus", "log_partition",
    "magnetization_density", "min_relative_entropy", "optimal_field",
    "relative_entropy", "relative_entropy_density", "relative_entropy_down",
    "run_cycle", "site_controls", "sweep_j", "trace_distance",
    "transfer_matrix_logZ", "von_neumann_entropy", "work_density",
]
