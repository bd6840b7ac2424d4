"""Sobolev and Besov norms of dominating mixed smoothness on sampled grids.

Difference-based and Littlewood-Paley characterizations of the norms, plus
the experiment layer that measures multiplication-algebra constants, Moser
ratio growth, localization brackets and embedding thresholds at desk scale.
"""

from .grid import (
    Box,
    GridError,
    GridFunction,
    GridMismatchError,
    NumericalAnomalyError,
    coarsen,
    crop,
    dyadic_dilate,
    lp_norm,
    pointwise_multiply,
    sample,
    shift,
    tensor_product,
)
from .differences import (
    DegenerateStepWarning,
    all_direction_sets,
    besov_norm_diff,
    besov_norm_integral,
    difference_table,
    directional_difference,
    isotropic_besov_norm,
    leibniz_difference,
    mixed_difference,
    mixed_leibniz_terms,
    modulus,
)
from .fourier import (
    DyadicSystem,
    bandlimit,
    besov_norm_fourier,
    build_system,
    difference_maximal_check,
    lp_block,
    nikolskij_ratio,
    peetre_maximal,
    sobolev_norm_fourier,
    spectral_derivative,
    system_for,
)
from .sobolev import (
    cmix_norm,
    derivative,
    mixed_sup_lp,
    sobolev_norm_full,
    sobolev_norm_reduced,
)
from .spaces import SpaceSpec, embedding_ratio, space_norm, sup_norm
from .multipliers import (
    PartitionOfUnity,
    algebra_ratio,
    apply_translate,
    build_partition,
    localization_ratio,
    moser_ratio,
    pair_terms,
    partition_deviation,
    tensor_pair_terms,
    translate_function,
    uniform_norm,
)
from .families import (
    TestFamily,
    base_bump,
    companion_bump,
    dilated_family,
    oscillatory_family,
    random_smooth_field,
    random_trig_field,
    rate_fit,
    tensor_pair_family,
)

__version__ = "0.1.0"
