"""Every state evaluator takes a (B, n) batch and nothing else."""

import numpy as np
import pytest

from deepwkb import net
from deepwkb.models import BENCHMARKS, make_benchmark
from deepwkb.net import MlpSpec

PARAMS = net.init_params(MlpSpec(widths=(2, 5, 1)), seed=0)
ONE = np.ones(1)

# label -> (state dimension, evaluator, output shape for a (1, n) batch)
CASES = {}
for _name in BENCHMARKS:
    _sys = make_benchmark(_name)
    _n = _sys.dim_state
    CASES[f"{_name}.drift"] = (_n, _sys.drift, (1, _n))
    CASES[f"{_name}.drift_jacobian"] = (_n, _sys.drift_jacobian, (1, _n, _n))
    CASES[f"{_name}.drift_divergence"] = (_n, _sys.drift_divergence, (1,))
CASES.update({
    "net.forward": (2, lambda x: net.forward(PARAMS, x), (1,)),
    "net.trace": (2, lambda x: net.trace(PARAMS, x)[-1], (1, 1)),
    "net.grad_params": (2, lambda x: net.grad_params(PARAMS, net.trace(PARAMS, x), ONE),
                        (PARAMS.size,)),
    "net.grad_input": (2, lambda x: net.grad_input(PARAMS, net.trace(PARAMS, x)), (1, 2)),
    "net.hessian_input": (2, lambda x: net.hessian_input(PARAMS, x), (1, 2, 2)),
    "net.grad_params_of_directional_input_grad": (
        2, lambda x: net.grad_params_of_directional_input_grad(PARAMS, net.trace(PARAMS, x),
                                                       np.ones((1, 2)), ONE),
        (PARAMS.size,)),
})


@pytest.mark.parametrize("label", sorted(CASES))
def test_batch_is_the_only_input_shape(label):
    dim, evaluate, shape = CASES[label]
    x = np.linspace(0.1, 0.3, dim)
    assert evaluate(x[None, :]).shape == shape
    with pytest.raises(ValueError):
        evaluate(x)
