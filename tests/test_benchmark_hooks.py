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

from cooproute import LinearCost, br_dynamics, make_game, multistart_nash
from cooproute.netmodel import UserSpec, build_network

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("span", list(tracer.SPANS))
def test_wrapped_names_exist(span):
    module, attr, _ = tracer.SPANS[span]
    assert callable(getattr(importlib.import_module(f"cooproute.{module}"),
                            attr, None))


def test_result_fields_exist():
    net = build_network([1, 2], [("l1", 1, 2, LinearCost(1.0)),
                                 ("l2", 1, 2, LinearCost(0.0, 0.5))])
    game = make_game(net, [UserSpec(1, 1, 2, 1.0), UserSpec(2, 1, 2, 1.0)],
                     [0.0, 0.0])
    res = br_dynamics(game, [(1.0, 0.0), (1.0, 0.0)])
    fields = {f.name for f in dataclasses.fields(res)}
    assert {"sweeps", "converged"} <= fields
    diagnostics = multistart_nash(game).diagnostics
    assert {"scan_candidates", "scan_added"} <= set(diagnostics)
