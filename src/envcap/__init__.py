"""Passive environment-assisted quantum channel capacities of two-qubit
unitaries: induced-channel construction, degradability classification,
coherent-information optimizers, and the associated numerical experiments.
"""

__version__ = "0.1.0"

from .canonical import (
    CNOT,
    DCNOT,
    MAGIC,
    SWAP,
    CanonicalParams,
    DecompositionError,
    canonical_unitary,
    decompose_params,
    fold_to_fundamental,
    in_antidegradable_region,
    in_degradable_region,
    magic_basis,
    swap_power,
)
from .capacity import (
    BracketError,
    CapacityResult,
    OptimizerOptions,
    TwoCopySpec,
    coherent_info,
    entangled_helper_coherent_info,
    find_zero_crossing,
    jammer_value,
    max_coherent_info,
    separable_helper_capacity,
    standard_two_copy,
    swap_power_helper_capacity,
    swap_power_helper_outputs,
    theta_two_copy,
    two_copy_coherent_info,
)
from .channels import (
    BipartiteUnitary,
    KrausChannel,
    apply_channel,
    choi_state,
    complement_channel,
    complementary_channel,
    effective_channel,
    entangled_env_channel,
    kraus_normal_form,
    tensor_gates,
)
from .degradability import (
    Classification,
    Degradability,
    batch_degradability_index,
    bloch_sphere_grid,
    classify_env,
    degradability_index,
    is_antidegradable_choi,
    is_universally_antidegradable,
)
from .linalg import (
    binary_entropy,
    entropy,
    haar_unitary,
    herm_eigvals,
    partial_trace,
    tensor,
)
