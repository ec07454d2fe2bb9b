"""Passive environment-assisted quantum channel capacities of two-qubit
unitaries: induced-channel construction, degradability classification,
coherent-information optimizers, and the associated numerical experiments.
"""

__version__ = "0.1.0"

from .canonical import (
    CNOT,
    MAGIC,
    SWAP,
    CanonicalParams,
    canonical_unitary,
    decompose_params,
    fold_to_fundamental,
    in_antidegradable_region,
    in_degradable_region,
    swap_power,
)
from .capacity import (
    BracketError,
    CapacityResult,
    OptimizerOptions,
    coherent_info,
    find_zero_crossing,
    jammer_value,
    max_coherent_info,
    separable_helper_capacity,
    swap_power_helper_capacity,
    two_copy_curve,
)
from .channels import BipartiteUnitary, KrausChannel, effective_channel, normal_form_stack
from .degradability import (
    Classification,
    Degradability,
    batch_degradability_index,
    bloch_sphere_grid,
    classify_envs,
    degradability_index,
    is_universally_antidegradable,
)
from .linalg import entropy, haar_unitary
