"""Property tests: every parameter point the validators accept gives finite,
nonnegative batch-sampler values (and cthin path and ensemble values) or a
ParameterError/NumericalError."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gammaproc import (  # noqa: E402
    CthinConfig,
    Dependence,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    cthin_path,
    derive_stream,
    make_uniform_grid,
    marginal_sample,
    pair_sample,
    processes,
    simulate_ensemble,
)

# thinned is left out: its beta ratio is 0/0 at small shapes (see the xfail below)
KINDS = [ProcessKind.AR1, ProcessKind.RANDOM_MEASURE, ProcessKind.CHANGE_POINT,
         ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED]


def _finite_nonnegative_or_refused(sampler, kind, params, dep, gap):
    try:
        out = sampler(kind, 64, params, dep, master_seed=1, gap=gap)
    except (ParameterError, NumericalError):
        return
    values = np.stack(out) if isinstance(out, tuple) else out
    assert np.all(np.isfinite(values)), (kind, params, dep, gap)
    assert np.all(values >= 0.0), (kind, params, dep, gap)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(KINDS),
    alpha=st.floats(1e-3, 1e3),
    rho=st.floats(1e-6, 1.0 - 1e-6),
    gap=st.floats(1e-3, 40.0),
)
def test_batch_samplers_give_finite_nonnegative_values_or_refuse(kind, alpha, rho, gap):
    params, dep = GammaParams(alpha, 1.0), Dependence.from_rho(rho)
    _finite_nonnegative_or_refused(marginal_sample, kind, params, dep, gap)
    # cthin has no pair sampler: that refusal is an UnsupportedKindError, a ParameterError
    _finite_nonnegative_or_refused(pair_sample, kind, params, dep, gap)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, 1e3), rho=st.floats(1e-6, 1.0 - 1e-6))
def test_cthin_paths_and_ensembles_are_finite_nonnegative_and_thread_independent(alpha, rho):
    grid = make_uniform_grid(0.0, 0.5, 5)  # 128 lattice steps at 64 per unit
    params, dep, config = GammaParams(alpha, 1.0), Dependence.from_rho(rho), CthinConfig(64)
    path = cthin_path(derive_stream(3, 0), grid, params, dep, config=config)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(processes, "_BLOCK_DRAWS", 2 * grid.n)  # blocks of two paths
        one, three = (simulate_ensemble(ProcessKind.CONTINUOUSLY_THINNED, grid, params, dep, 6,
                                        master_seed=3, cthin=config, threads=t)
                      for t in (1, 3))
    for values in (path.values, one.values):
        assert np.all(np.isfinite(values)), (alpha, rho)
        assert np.all(values >= 0.0), (alpha, rho)
    assert one.values.tobytes() == three.values.tobytes(), (alpha, rho)
    assert one.values[0].tobytes() == path.values.tobytes(), (alpha, rho)


@pytest.mark.xfail(strict=True, reason="the thinned beta ratio g1/(g1+g2) is 0/0 when both "
                   "gammas underflow at small shapes (ROADMAP item 1)")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_thinned_small_shape_values_are_finite():
    params, dep = GammaParams(0.01, 1.0), Dependence.from_rho(0.001)
    assert np.all(np.isfinite(marginal_sample(ProcessKind.THINNED, 20000, params, dep, 1)))
    assert np.all(np.isfinite(pair_sample(ProcessKind.THINNED, 20000, params, dep, 1)))
