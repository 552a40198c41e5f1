"""Central finite-difference gradient checker shared by the test modules.

Independent oracle: perturbs each entry of each input by +-h (h scaled by the
entry magnitude), re-runs the forward function under no_grad, and compares the
quotient against the analytic gradient produced by the tape.

The kink-aware variant additionally records the relu6/clamp activity pattern
of each evaluation, ReLU6 applied inside a conv op included; when a
perturbation flips a unit across a kink the central difference stops being a
derivative estimate, so that comparison is marked invalid instead of asserted.
"""

import contextlib

import numpy as np

from pamunet import tensor as T


def fd_gradient(f, t, h_scale=1e-5):
    """Numerical d f / d t for scalar-valued f, perturbing one entry at a time."""
    grad = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            h = h_scale * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)))


def check_gradients(f, inputs, tol=1e-4, h_scale=1e-5):
    """Assert analytic grads of scalar f() match central differences on every input.

    ``f`` must rebuild the computation from the live ``inputs`` each call.
    Returns the worst relative error seen.
    """
    loss = f()
    T.backward(loss)
    worst = 0.0
    for t in inputs:
        assert t.grad is not None, "input did not receive a gradient"
        numeric = fd_gradient(f, t, h_scale=h_scale)
        err = max_rel_error(t.grad, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch: rel error {err:.3e} >= {tol:.0e}"
    for t in inputs:
        t.zero_grad()
    return worst


CONV_OPS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d")  # the ops that take relu6


@contextlib.contextmanager
def _kink_signature(collector):
    """Patch clamp (relu6 calls it) and the conv ops to record per-site
    active-unit counts.

    A conv called with ``relu6=True`` applies ReLU6 itself; its site is counted
    on the output, where ``0 < y < 6`` holds exactly where it held on the input.
    """
    real = {name: getattr(T, name) for name in ("clamp",) + CONV_OPS}

    def spy_clamp(x, lo, hi):
        d = x.data if isinstance(x, T.Tensor) else np.asarray(x)
        collector.append(int(np.count_nonzero((d > lo) & (d < hi))))
        return real["clamp"](x, lo, hi)

    def spy_conv(op):
        def spy(*args, **kwargs):
            out = op(*args, **kwargs)
            if kwargs.get("relu6"):
                collector.append(int(np.count_nonzero((out.data > 0) & (out.data < 6))))
            return out
        return spy

    T.clamp = spy_clamp
    for name in CONV_OPS:
        setattr(T, name, spy_conv(real[name]))
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(T, name, fn)


def fd_gradient_kink_aware(f, t, h_scale=1e-5):
    """Central differences plus a validity mask.

    An entry is invalid when perturbing it flips some relu6/clamp unit across
    a kink, which makes the two-sided quotient meaningless there.
    """
    grad = np.zeros_like(t.data)
    valid = np.ones(t.data.size, dtype=bool)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            h = h_scale * max(1.0, abs(orig))
            sig_plus: list[int] = []
            sig_minus: list[int] = []
            flat[i] = orig + h
            with _kink_signature(sig_plus):
                f_plus = f().item()
            flat[i] = orig - h
            with _kink_signature(sig_minus):
                f_minus = f().item()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
            valid[i] = sig_plus == sig_minus
    return grad, valid.reshape(t.data.shape)
