"""The table of kinds: each kind and cir method has its plan, lane step, pair chf
and generator in one table entry, or raises the one refusal form."""

import re

import numpy as np
import pytest

from gammaproc import processes
from gammaproc import (
    GENERATOR_KINDS,
    PAIR_CHF_KINDS,
    CirMethod,
    Dependence,
    GammaParams,
    ParameterError,
    ProcessKind,
    TestFunction,
    UnsupportedKindError,
    derive_stream,
    generator_apply,
    make_uniform_grid,
    pair_chf,
    triplet_sample,
)

PARAMS, DEP = GammaParams(1.5, 1.0), Dependence.from_rho(0.5)
GRID = make_uniform_grid(0.0, 1.0, 3)
SAMPLERS = [(kind, CirMethod.EXACT) for kind in ProcessKind if kind is not ProcessKind.SQUARED_OU]
SAMPLERS += [(ProcessKind.SQUARED_OU, method) for method in CirMethod]
# the kinds that step lanes gap by gap; rm sums tent cells instead
LANE_KINDS = {ProcessKind.AR1, ProcessKind.THINNED, ProcessKind.CHANGE_POINT,
              ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED}
# things that are not kinds
NOT_KINDS = ["ar1", None, 3]


def _refusal(operation, kind):
    """The one UnsupportedKindError message form, as a full-match pattern."""
    return f"^{re.escape(operation)} does not support kind {re.escape(repr(kind))}$"


def _accepted(name, operation):
    """The kinds for which ``operation(kind)`` returns; ``name`` must refuse every other kind."""
    accepted = set()
    for kind in ProcessKind:
        try:
            operation(kind)
        except UnsupportedKindError as exc:
            assert re.match(_refusal(name, kind), str(exc)), exc
        else:
            accepted.add(kind)
    return accepted


@pytest.mark.parametrize("kind,method", SAMPLERS,
                         ids=[f"{k.cli_name}-{m.value}" for k, m in SAMPLERS])
def test_every_kind_and_cir_method_samples_through_block(kind, method):
    plan = processes._plan_class(kind, method)(GRID, PARAMS, DEP)
    assert isinstance(plan, processes._Plan)
    values = plan.block(derive_stream(1, 0).gen, 2)
    assert values.shape == (2, GRID.n)
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("kind", NOT_KINDS)
def test_a_value_that_is_not_a_kind_is_refused_in_the_one_form(kind):
    with pytest.raises(UnsupportedKindError, match=_refusal("simulation", kind)):
        processes._plan_class(kind, CirMethod.EXACT)(GRID, PARAMS, DEP)
    with pytest.raises(UnsupportedKindError, match=_refusal("pair_chf", kind)):
        pair_chf(kind, 0.5, 1.0, PARAMS, DEP)
    with pytest.raises(UnsupportedKindError, match=_refusal("generator_apply", kind)):
        generator_apply(kind, TestFunction.identity(), 1.0, PARAMS, DEP)


@pytest.mark.parametrize("method", ["exact", None])
def test_an_unknown_cir_method_is_a_parameter_error(method):
    with pytest.raises(ParameterError, match="^unknown cir method"):
        processes._plan_class(ProcessKind.SQUARED_OU, method)(GRID, PARAMS, DEP)


@pytest.mark.parametrize("kind", list(ProcessKind), ids=lambda k: k.cli_name)
def test_each_gap_by_gap_kind_has_a_lane_step_and_rm_is_refused(kind):
    if kind not in LANE_KINDS:
        with pytest.raises(UnsupportedKindError, match=_refusal("the lane update", kind)):
            processes._lane_plan(kind)
        return
    x = processes._lane_plan(kind).lane_step(derive_stream(2, 0).gen, np.full(4, 1.0), 1.5, 1.0,
                                             0.5)
    assert x.shape == (4,)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)


@pytest.mark.parametrize("kind", list(ProcessKind), ids=lambda k: k.cli_name)
def test_pair_chf_and_generator_refuse_in_the_one_form(kind):
    if kind in PAIR_CHF_KINDS:
        assert abs(pair_chf(kind, 0.5, 1.0, PARAMS, DEP)) <= 1.0
    else:
        with pytest.raises(UnsupportedKindError, match=_refusal("pair_chf", kind)):
            pair_chf(kind, 0.5, 1.0, PARAMS, DEP)
    if kind in GENERATOR_KINDS:
        assert np.isfinite(generator_apply(kind, TestFunction.square(), 1.0, PARAMS, DEP))
    else:
        with pytest.raises(UnsupportedKindError, match=_refusal("generator_apply", kind)):
            generator_apply(kind, TestFunction.square(), 1.0, PARAMS, DEP)
    if kind not in (ProcessKind.THINNED, ProcessKind.RANDOM_MEASURE):
        with pytest.raises(UnsupportedKindError, match=_refusal("triplet_sample", kind)):
            triplet_sample(kind, 10, PARAMS, DEP, 1)


def test_the_supported_kind_sets_are_the_kinds_each_operation_accepts():
    assert set(PAIR_CHF_KINDS) == _accepted(
        "pair_chf", lambda k: pair_chf(k, 0.5, 1.0, PARAMS, DEP))
    assert set(GENERATOR_KINDS) == _accepted(
        "generator_apply", lambda k: generator_apply(k, TestFunction.identity(), 1.0, PARAMS, DEP))
    assert LANE_KINDS == _accepted("the lane update", processes._lane_plan)
    assert set(ProcessKind) == _accepted("simulation", processes._plan_class)
    # the sets keep the kinds the CLI reports on: all but cthin, and cir and cthin
    assert set(PAIR_CHF_KINDS) == set(ProcessKind) - {ProcessKind.CONTINUOUSLY_THINNED}
    assert set(GENERATOR_KINDS) == {ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED}
