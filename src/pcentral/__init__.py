"""Finite p-group computation engine with automorphism actions.

Exact enumerated group tables over two element backends (matrices over a
prime field, permutations), mixed commutator series for a group acted on by
automorphisms, omega/agemo series and regularity predicates, brute-force
automorphism group search with Sylow extraction, a family catalog, and a
corpus runner that checks structural statements with explicit hypothesis and
conclusion verdicts.
"""

from .actions import (
    ActionPair,
    aut_as_perm_group,
    commutator_group_of_pair,
    gamma_term,
    induced_quotient_action,
    inner_action,
    is_p_central_action,
    mixed_commutator,
    mixed_lower_central_series,
    mixed_series_definitional,
    restrict_action,
    trivial_action,
)
from .autsearch import brute_force_aut, sylow_p_subgroup
from .catalog import build_action, build_group, parse_family, paper_sigma_pair
from .corpus import (
    ExperimentConfig,
    default_config,
    replay_bundle,
    run_corpus,
)
from .elements import Element, FpMatrix, Permutation
from .errors import (
    BudgetExceeded,
    CapExceeded,
    ConfigError,
    NotPGroup,
    PcentralError,
)
from .groups import (
    Automorphism,
    GroupTable,
    automorphism_from_images,
    center,
    close,
    commutator_subgroup,
    quotient,
)
from .series import (
    agemo,
    central_order_bound,
    is_omega_regular,
    is_p_central_of_height,
    lower_central_series,
    nilpotency_class,
    omega_set,
    omega_subgroup,
    upper_central_series,
)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "ActionPair", "Automorphism", "BudgetExceeded", "CapExceeded",
    "ConfigError", "Element", "ExperimentConfig", "FpMatrix", "GroupTable",
    "NotPGroup", "PcentralError", "Permutation", "Verdict",
    "agemo", "aut_as_perm_group", "automorphism_from_images",
    "brute_force_aut", "build_action", "build_group", "center",
    "central_order_bound", "close", "commutator_group_of_pair",
    "commutator_subgroup", "default_config", "gamma_term",
    "induced_quotient_action", "inner_action", "is_omega_regular",
    "is_p_central_action", "is_p_central_of_height", "lower_central_series",
    "mixed_commutator", "mixed_lower_central_series",
    "mixed_series_definitional", "nilpotency_class", "omega_set",
    "omega_subgroup", "paper_sigma_pair", "parse_family", "quotient",
    "replay_bundle", "restrict_action", "run_corpus", "sylow_p_subgroup",
    "trivial_action", "upper_central_series",
]
