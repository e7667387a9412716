import importlib
import inspect

import numpy as np
import pytest

import graphonsp
from graphonsp import (ChebCoeffVector, DesignResult, ExperimentConfig, ExperimentRecord,
                       FilterCoeffs, IdealResponse, Motif, QuadratureRule, build_fg_shift,
                       erdos_renyi, filter_pipeline, lift, sample_graph)
from graphonsp.experiments import ExperimentCurves
from graphonsp.homdensity import GraphonDensityEstimate

MODULES = ("kernels", "sampling", "steps", "chebyshev", "galerkin",
           "filtering", "homdensity", "experiments", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"graphonsp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_exports_are_public_module_names():
    # every name graphonsp re-exports is listed in its home module's __all__
    for attr, obj in vars(graphonsp).items():
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        assert attr in home.__all__, f"{attr} is not in {obj.__module__}.__all__"


def test_no_shift_operator_type():
    # a graph is its own shift S = A/N
    assert not hasattr(graphonsp, "ShiftOperator")
    assert not hasattr(importlib.import_module("graphonsp.sampling"), "ShiftOperator")


# each builds a fresh instance of a frozen value type that holds an array
ARRAY_HOLDERS = {
    "Graphon": lambda: erdos_renyi(0.5),
    "Graph": lambda: sample_graph(erdos_renyi(0.5), 5, seed=0),
    "StepSignal": lambda: lift([1.0, 2.0]),
    "ChebCoeffVector": lambda: ChebCoeffVector(np.ones(3)),
    "QuadratureRule": lambda: QuadratureRule(4),
    "OperatorMatrix": lambda: build_fg_shift(erdos_renyi(0.5), 4, 3),
    "FilterCoeffs": lambda: FilterCoeffs([1.0, 0.5]),
    "IdealResponse": lambda: IdealResponse([1.0, 0.0]),
    "DesignResult": lambda: DesignResult(FilterCoeffs([1.0]), 0.0, 1),
    "PipelineResult": lambda: filter_pipeline(erdos_renyi(0.5), np.sin, 2,
                                              IdealResponse([1.0, 0.0, 0.0]), 4, 3, 5),
    "ExperimentConfig": lambda: ExperimentConfig({"er": erdos_renyi(0.5)}),
    "ExperimentCurves": lambda: ExperimentCurves("er", 5, 0, *np.ones((4, 3))),
}


@pytest.mark.parametrize("name, make", ARRAY_HOLDERS.items(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(name, make):
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and hash(a) == hash(a)
    assert not a == b and a != b  # equal copies, compared without raising
    assert len({a, b}) == 2


def test_plain_value_types_keep_value_equality():
    for make in (lambda: Motif(3, ((0, 1), (1, 2))),
                 lambda: ExperimentRecord("er", 5, 0, 1, 0.5, 0.25),
                 lambda: GraphonDensityEstimate(0.5, 0.1, 10)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
