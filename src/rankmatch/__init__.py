"""Matching mechanisms with rankings-dependent utility.

Subpackages by concern: ``core`` (domain types), ``mechanisms`` (scalar RSD /
Boston engines and exact oracles, without numpy), ``batch`` (the engines over
many orders at once, in numpy), ``equilibrium`` (symmetric-environment
solver), ``simulation`` (seeded Monte Carlo), ``elicitation`` (price-list
payments), ``stats`` (nonparametric tests, OLS), ``analysis`` (session
pipeline), ``cli`` (command line).

The names below load lazily: ``from rankmatch import simulate`` imports
``simulation`` on first use, so ``import rankmatch`` loads no submodule.
"""
import importlib

_EXPORTS = {
    "core": ("DataFormatError", "Good", "MarketInstance", "Matching", "Outcome",
             "RankList", "RhoSchedule", "SizeLimitError", "ValueMatrix", "cents", "dollars"),
    "mechanisms": ("MechanismKind", "TieBreakOrder", "exact_expected_utilities",
                   "is_pareto_efficient", "run_boston", "run_mechanism", "run_random",
                   "run_rsd"),
    "equilibrium": ("EquilibriumSolution", "SymmetricInstance", "brute_force_equilibria",
                    "check_truthtelling_equilibrium", "equilibrium_welfare",
                    "solve_equilibrium", "symmetric_params"),
    "simulation": ("SimReport", "StrategyProfile", "rank_distribution", "simulate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import an exported name's module on first use (PEP 562); any other
    name is missing, so ``from rankmatch import analysis`` imports the
    submodule."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
