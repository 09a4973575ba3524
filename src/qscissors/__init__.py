"""Quantum scissors: optical qubit generation by state truncation.

Two devices that clip a coherent state to the {|0>, |1>} subspace:

* linear scissors (``lqs``): beam splitters plus projection synthesis,
  with closed-form fidelities for lossy optics and inefficient detectors;
* nonlinear scissors (``nqs``): a kicked, damped Kerr oscillator with the
  exact analytic propagator between kicks.

``fock`` holds the truncated Fock-space machinery, ``specfun`` the special
functions of the exact damped solution, ``lindblad`` a brute-force RK4
integrator used as an independent check, and ``cli`` the command line.
"""

__version__ = "0.1.0"

from .fock import (
    CutoffError,
    DensityMatrix,
    FockVector,
    annihilation_matrix,
    beam_splitter_unitary,
    coherent_state,
)
from .lindblad import IntegratorConfig, integrate, lindblad_rhs
from .lqs import (
    LqsParams,
    env_gram_oracle,
    fidelity_closed_form,
    fidelity_ppb,
    fidelity_unsimplified,
    lqs_projection_oracle,
    normalization_closed_form,
    truncated_state_general_bs,
)
from .nqs import (
    EvolutionRecord,
    NqsParams,
    analytic_damped_step_thermal,
    analytic_damped_step_zero_T,
    apply_kick,
    evolve_kicked,
    kick_unitary,
    unitary_kerr_step,
)
from .specfun import (
    damping_coefficients,
    laguerre_assoc,
    sqrt_binomial_ratio,
)
