"""The names and result fields that the benchmark harness reads.

``perfbench/tracer.py`` wraps program functions by module and attribute
name, and ``perfbench/run.py`` reads fields of their results.  Renaming
or deleting one of them would only show in a traced benchmark run; these
tests make it fail here.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from cooproute import (EquilibriumResult, FlowProfile, LinearCost,
                       MixedNumericSet, MixedPoint, MixedSolutionSet,
                       br_dynamics, get_preset, make_game, mixed_numeric,
                       multistart_nash)
from cooproute.netmodel import UserSpec, build_network

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("span", list(tracer.SPANS))
def test_wrapped_names_exist(span):
    module, attr, _ = tracer.SPANS[span]
    assert callable(getattr(importlib.import_module(f"cooproute.{module}"),
                            attr, None))


def names(record):
    return {f.name for f in dataclasses.fields(record)}


def test_result_fields_exist():
    net = build_network([1, 2], [("l1", 1, 2, LinearCost(1.0)),
                                 ("l2", 1, 2, LinearCost(0.0, 0.5))])
    game = make_game(net, [UserSpec(1, 1, 2, 1.0), UserSpec(2, 1, 2, 1.0)],
                     [0.0, 0.0])
    res = br_dynamics(game, [(1.0, 0.0), (1.0, 0.0)])
    assert {"sweeps", "converged"} <= names(res)
    diagnostics = multistart_nash(game).diagnostics
    assert {"scan_candidates", "scan_added"} <= set(diagnostics)
    diagnostics = mixed_numeric(get_preset("mixed-fig7").build_mixed()
                                ).diagnostics
    assert {"non_converged", "scan_added"} <= set(diagnostics)
    # the records perfbench/workloads.py checks each solve by
    priced = {"group_split", "mass_split", "group_cost", "mass_cost",
              "operating_cost", "verified"}
    assert priced | {"case", "kind"} <= names(MixedPoint)
    assert {"solutions"} <= names(MixedSolutionSet)
    assert {"points", "diagnostics"} <= names(MixedNumericSet)
    assert {"verified", "raw_costs", "operating_costs",
            "profile"} <= names(EquilibriumResult)
    assert {"path_flows", "user_link_flows"} <= names(FlowProfile)
