"""Exact combinatorial and spectral invariants of rank-one constructions,
with empirical weak-limit and Mobius-orthogonality experiments on their
symbolic models."""

__version__ = "0.1.0"

from .construction import (
    ConstructionParams,
    chacon,
    finite_measure_partial_sums,
    generalized_chacon,
    heights,
    katok,
    load_construction,
    spacer_stats,
    von_neumann_kakutani,
)
from .blocks import (
    AbcDecomposition,
    BlockDag,
    CylinderMeasureEstimate,
    abc_decompose,
    abc_threshold,
    block_occurrence,
    eventual_period,
    measure_distance,
    spacer_order,
)
from .errors import InputError, RangeError, Refusal
from .limits import (
    Classification,
    DisjointnessVerdict,
    LimitProfile,
    certify_powers,
    classify,
    detect_stabilizing,
    disjointness_certificate,
    eigenvalue_search,
    flat_step,
    limit_distribution,
    profile_invariants,
    spacer_value_sets,
)
from .odometer import (
    IntegerDistribution,
    OdometerPoint,
    add_one,
    cocycle_distribution,
    cocycle_sum,
    g_function,
    roof_value,
    spacer_cocycle,
    tower_index,
)
from .correlations import (
    CorrelationEstimate,
    correlation,
    verify_half_spacer_mixing,
    verify_rigid_one_spacer,
    verify_weak_limit_prediction,
)
from .sarnak import (
    OrbitSpec,
    OrbitWord,
    cylinder_sarnak_averages,
    eigen_suspension_averages,
    mertens,
    mobius_sieve,
    orbit_word,
    prime_power_averages,
)
