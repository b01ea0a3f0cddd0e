"""Bell-measurement magic monotones for multi-qubit states.

Exact computation, scalable sampling estimators with depolarizing-noise
mitigation, stabilizer/magical state discrimination and variational
maximization, all built on two-copy Bell measurements.
"""

from .magic import (
    MagicValue,
    additive_magic,
    bell_magic_brute,
    bell_magic_exact,
    bell_magic_of_state,
    meyer_wallach,
    mixed_bell_magic,
    product_state_magic,
    pure_state_bound,
    sample_haar_state,
    stabilizer_renyi,
)
from .pauli import BellSamples, PauliString, check_commute, symplectic_product, xor_add
from .simulator import (
    BellDistribution,
    CircuitSpec,
    NoiseModel,
    StateVector,
    bell_distribution,
    conjugate,
    cross_bell_distribution,
    hardware_efficient_ansatz,
    magic_input_circuit,
    mixed_bell_distribution,
    noisy_bell_distribution,
    pauli_expectation,
    sample,
    simulate,
)
from .stabilizer import StabilizerTableau, bell_sample_stabilizer, conjugation_offset, random_clifford
from .estimation import (
    EstimationResult,
    estimate_bell_magic,
    estimate_depolarization,
    estimate_magic,
    estimate_meyer_wallach,
    estimate_purity,
    mitigate,
    mitigate_probabilities,
    required_samples,
    std_bernoulli,
)
from .discrimination import classify, learn_threshold, p_error_random, p_error_single_magic
from .variational import (
    TrainState,
    estimate_gradient,
    grad_bell_magic_exact,
    grad_p_shift,
    maximize_magic,
    optimize,
    qfim_diagonal,
    trainability_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
