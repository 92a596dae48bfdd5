"""Tour of the tensor engine: tape recording, backward, gradient checking.

Run:  python3 demos/01_tensor_engine.py
"""

import numpy as np

from fot import numerics as N
from fot.numerics import Tensor

print("== forward ops ==")
a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), requires_grad=True)
b = Tensor(np.array([[0.5, -1.0], [2.0, 0.0]], dtype=np.float32), requires_grad=True)
print("a @ b =\n", N.matmul(a, b).data)
print("softmax([1,2,3]) =", N.softmax_last_axis(Tensor(np.array([1.0, 2.0, 3.0]))).data)

print("\n== tape + backward ==")
with N.Tape() as tape:
    y = N.matmul(a, b)
    z = N.silu(y)
    loss = N.sum_all(z)
N.backward(tape, loss)
print("loss =", loss.item())
print("dloss/da =\n", a.grad)

print("\n== finite-difference verification (f64) ==")
rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
gain = Tensor(rng.standard_normal(5), requires_grad=True)
w = Tensor(rng.standard_normal((3, 5)))

def f():
    return N.sum_all(N.mul(N.rms_norm(x, gain), w))

err = N.finite_diff_check(f, [x, gain], eps=1e-5)
print(f"rms_norm chain: max relative error vs central differences = {err:.2e}")

wfix = Tensor(rng.standard_normal((3, 3)))

def g_fixed():
    h = N.softmax_last_axis(N.matmul(x, N.transpose(x, (1, 0))))
    return N.sum_all(N.mul(h, wfix))

err = N.finite_diff_check(g_fixed, [x], eps=1e-5)
print(f"softmax(x xT) chain: max relative error = {err:.2e}")
