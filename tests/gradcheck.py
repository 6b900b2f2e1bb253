"""Central finite-difference gradient checking, and the tolerances the test
suite compares against.  Tests import it as the module ``gradcheck``: pytest
puts this folder on ``sys.path`` when it imports a test file from it."""

import numpy as np

from condenseg.tensor import Tensor

GRAD_TOL = 1e-4            # composite ops / full network, double precision
GRAD_TOL_POINTWISE = 1e-6  # pointwise ops
CONV_ORACLE_TOL = 1e-10    # conv vs direct-loop oracle
ADJOINT_TOL = 1e-8         # <conv(x),y> == <x, conv_T(y)>
SOFTMAX_SUM_TOL = 1e-9     # per-pixel probability normalization


def grad_check(f, x: Tensor, h: float = 1e-5, rng=None) -> float:
    """Compare f's backward gradient at x against central differences.

    f must be a deterministic scalar-valued function of x (double
    precision).  Checks all entries of x unless an rng for subsampling up
    to 64 entries is given.  Returns the max relative error.
    """
    x.zero_grad()
    out = f(x)
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    idx = np.arange(flat.size)
    if rng is not None and flat.size > 64:
        idx = np.sort(rng.choice(flat.size, size=64, replace=False))

    ana_flat = analytic.reshape(-1)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        num = (fp - fm) / (2 * h)
        a = ana_flat[i]
        denom = max(abs(num), abs(a))
        if denom < 1e-10:
            continue
        worst = max(worst, abs(num - a) / denom)
    return worst
