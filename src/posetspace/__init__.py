"""Desk-scale poset spaces: filters, topologies, constructions, and games."""

from .poset_core import (
    BinaryTreePoset,
    FinitePoset,
    PosetError,
    incompatible,
    poset_to_strict,
    strict_to_poset,
    validate_poset,
)
from .filters import (
    ChainFilter,
    Filter,
    classify_filter,
    enumerate_filters,
    extend_to_maximal,
    upward_closure,
)
from .topology import (
    PosetSpace,
    reduce_countable_subposet,
    restriction_homeomorphism_check,
    separation_check,
    verify_correspondence,
)
from .constructions import (
    FiniteTopSpace,
    FormalBallPoset,
    RationalMetric,
    formal_ball_poset,
    gdelta_mf_poset,
    gdelta_uf_poset,
    open_subspace_uf,
    point_chain,
    precompact_open_poset,
    product_poset,
)
from .games import (
    Strategy,
    baire_generic_filter,
    canonical_choquet_strategy,
    choquet_referee,
    splitting_strategy,
    star_game_referee,
    star_game_solve,
)
from .choquet_mf import (
    Condition,
    ConditionSystem,
    condition_lt,
    mf_characterization_check,
    refine_conditions,
    validate_condition,
)
from .domain_theory import (
    dcpo_classify,
    filter_completion,
    ideal_completion,
    scott_max_homeomorphism_check,
    way_below,
)
from .semi_topogenous import (
    SubsetOrder,
    check_axioms_and_generation,
    completeness_check,
    interval_order,
    mf_poset_from_order,
    order_from_poset,
)

__version__ = "0.1.0"
