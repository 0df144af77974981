"""Bayesian clustered federated learning simulator.

Posterior mixtures over client-cluster association hypotheses, with greedy,
consensus, and multi-hypothesis reductions, exact conjugate-Gaussian local
models, non-IID scenario generation, and a CLI for reproducible runs.
"""

from .assignment import (Assignment, CostMatrix, RankedAssignments,
                         best_assignment, build_cost_matrix,
                         count_hypotheses_constrained,
                         count_hypotheses_unconstrained, enumerate_assignments,
                         m_best_exact, m_best_heuristic)
from .datasets import (ClientDataset, GeneratedScenario, SkewConfig,
                       gen_feature_skew, gen_heldout, gen_label_skew,
                       gen_scenario)
from .density import GaussianDensity, fuse_local_posteriors, merge_mixture
from .errors import (ConfigError, ContractError, DegenerateHypothesisSetError,
                     FusionDegenerateError, NumericalError, SingularModelError)
from .hypotheses import (HypothesisSet, consensus_merge, expand, prune_top_m,
                         select_greedy)
from .metrics import association_accuracy, heldout_log_likelihood, parameter_rmse
from .models import (LocalModelSpec, assoc_log_weight_at_mean,
                     assoc_log_weight_sampled, posterior_update)
from .reports import CommLedger, RoundReport
from .simulation import (RoundConfig, ServerState, WeightEstimator, initialize,
                         run_round, run_training, warm_up)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CostMatrix", "RankedAssignments", "best_assignment",
    "build_cost_matrix", "count_hypotheses_constrained",
    "count_hypotheses_unconstrained", "enumerate_assignments", "m_best_exact",
    "m_best_heuristic",
    "ClientDataset", "GeneratedScenario", "SkewConfig", "gen_feature_skew",
    "gen_heldout", "gen_label_skew", "gen_scenario",
    "GaussianDensity", "fuse_local_posteriors", "merge_mixture",
    "ConfigError", "ContractError", "DegenerateHypothesisSetError",
    "FusionDegenerateError", "NumericalError", "SingularModelError",
    "HypothesisSet", "consensus_merge", "expand",
    "prune_top_m", "select_greedy",
    "association_accuracy", "heldout_log_likelihood", "parameter_rmse",
    "LocalModelSpec", "assoc_log_weight_at_mean", "assoc_log_weight_sampled",
    "posterior_update",
    "CommLedger", "RoundReport",
    "RoundConfig", "ServerState", "WeightEstimator", "initialize", "run_round",
    "run_training", "warm_up",
]
