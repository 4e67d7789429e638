"""Equilibria of routing games whose users partly carry each other's costs.

Each user ships a fixed demand over the paths of a shared network and
minimizes a blend of everyone's delay, weighted by a cooperation matrix.
The package finds the resulting equilibria from many starting points,
verifies them against first-order conditions, sweeps cooperation degrees
and structural parameters, and flags the two counterintuitive effects
that show up along such sweeps: added capacity hurting everyone, and more
cooperation hurting the cooperator.  A separate module treats one
coordinated flow sharing two queues with a crowd of selfish
infinitesimal users, in closed form and with an independent iterative
cross-check.
"""

from .costs import CooperationProfile, LinearCost, MM1Cost
from .errors import (ConfigError, CoopRouteError, InfeasibleError,
                     SolverError)
from .experiments import (ParadoxReport, ParadoxWitness, Scenario,
                          SweepParameter, SweepRow, SweepTable, alpha_sweep,
                          detect_braess, detect_cooperation_paradox,
                          get_preset, parameter_sweep)
from .mixed import (MixedNumericSet, MixedPoint, MixedScenario,
                    MixedSolution, MixedSolutionSet, mixed_closed_form,
                    mixed_costs, mixed_numeric, verify_mixed, wardrop_split)
from .nash import (DynamicsResult, EquilibriumResult, EquilibriumSet,
                   NashCheck, RoutingGame, br_dynamics, make_game,
                   multistart_nash, verify_nash)
from .netmodel import (FlowProfile, Link, Network, PathSet, UserSpec,
                       assemble_profile, build_network, build_path_set,
                       check_feasibility, enumerate_paths, saturated_links)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CooperationProfile", "CoopRouteError",
    "DynamicsResult", "EquilibriumResult", "EquilibriumSet",
    "FlowProfile", "InfeasibleError", "LinearCost", "Link", "MM1Cost",
    "MixedNumericSet", "MixedPoint", "MixedScenario", "MixedSolution",
    "MixedSolutionSet", "NashCheck", "Network", "ParadoxReport",
    "ParadoxWitness", "PathSet", "RoutingGame", "Scenario", "SolverError",
    "SweepParameter", "SweepRow", "SweepTable", "UserSpec", "alpha_sweep",
    "assemble_profile", "br_dynamics", "build_network", "build_path_set",
    "check_feasibility", "detect_braess",
    "detect_cooperation_paradox", "enumerate_paths", "get_preset",
    "make_game", "mixed_closed_form", "mixed_costs", "mixed_numeric",
    "multistart_nash", "parameter_sweep", "saturated_links", "verify_mixed",
    "verify_nash", "wardrop_split",
]
