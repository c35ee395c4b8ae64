"""A walk through the autodiff core (``tensor.py``): tensors, backward passes
and the Adam optimizer, with the gradients checked against finite
differences by ``gradcheck.py``.

Run with:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from denoiseclf import tensor as T
from denoiseclf.gradcheck import finite_difference_check, run_op_checks
from denoiseclf.tensor import Adam, Tensor

# ---------------------------------------------------------------------------
# 1. Tensors record the graph; backward() fills .grad
# ---------------------------------------------------------------------------
print("== gradients through a diamond-shaped graph ==")
x = Tensor([2.0], requires_grad=True)
y = Tensor([5.0], requires_grad=True)
# z = x*y + x*x, so dz/dx = y + 2x and dz/dy = x
z = T.sum_all(T.mul(x, y) + T.mul(x, x))
z.backward()
print(f"  z        = {float(z.values):.1f}")
print(f"  dz/dx    = {x.grad[0]:.1f}   (expected {5.0 + 2 * 2.0:.1f})")
print(f"  dz/dy    = {y.grad[0]:.1f}   (expected 2.0)")

# ---------------------------------------------------------------------------
# 2. Every gradient is checked against central finite differences
# ---------------------------------------------------------------------------
print("\n== finite-difference check of a small MLP ==")
rng = np.random.default_rng(0)
inputs = Tensor(rng.normal(size=(4, 6)))
w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
b1 = Tensor(np.zeros(8), requires_grad=True)
w2 = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
target = Tensor(rng.normal(size=(4, 3)))


def loss_fn():
    hidden = T.gelu(T.matmul(inputs, w1) + b1)
    return T.mse_loss(T.matmul(hidden, w2), target)


err = finite_difference_check(loss_fn, [w1, b1, w2])
print(f"  max relative error vs central differences: {err:.2e}")

# ---------------------------------------------------------------------------
# 3. Adam with bias correction minimizes a quadratic
# ---------------------------------------------------------------------------
print("\n== Adam on (w - 3)^2 ==")
w = Tensor([0.0], requires_grad=True)
opt = Adam([w], lr=0.1)
for step in range(1, 101):
    gap = w + Tensor([-3.0])
    loss = T.sum_all(T.mul(gap, gap))
    loss.backward()
    opt.step()
    if step in (1, 10, 50, 100):
        print(f"  step {step:3d}: w = {w.values[0]:+.4f}  "
              f"loss = {float(loss.values):.6f}")
print("  (w converges to 3.0)")

# ---------------------------------------------------------------------------
# 4. The kernel checks of the verification suite
# ---------------------------------------------------------------------------
print("\n== built-in gradient verification suite: the kernels ==")
for result in run_op_checks(seed=0):
    status = "PASS" if result.passed else "FAIL"
    print(f"  {status} {result.name}: max rel err {result.max_rel_err:.2e}")
print("  (the whole suite, with the encoder block, the denoise stack and the")
print("   training objectives: python -m denoiseclf gradcheck)")
