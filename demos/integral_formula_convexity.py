"""The closed integral boundary formula and its convexity threshold.

The boundary equals the perpetual exercise level plus a damped
semi-infinite integral whose sign is controlled by the kernel f2.  As long
as f2 stays within [0, pi] the integrand is positive, which makes the
boundary a convex function of time to maturity.  The smallest gamma =
2 r / sigma^2 with that property is found here from scratch.
"""

import math

from putboundary import (
    MarketParams,
    f2_max,
    gamma_critical,
    rho_zhu,
    zhu_kernels,
    zhu_second_derivative,
)

p = MarketParams(r=0.1, sigma=0.3, strike=100.0)

print("boundary from the integral formula, long horizons:")
for tau in (0.02, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
    print(f"  rho({tau:5g}) = {rho_zhu(tau, p):9.4f}")
print(f"  perpetual level gamma E/(1+gamma) = {p.perpetual_boundary:.4f}")
print()

print("kernels at a few frequencies (gamma = %.4f):" % p.gamma)
for zeta in (0.0, 0.5, 1.0, 5.0, 50.0):
    f1, f2 = zhu_kernels(zeta, p)
    print(f"  zeta={zeta:5g}: f1={f1:9.6f}  f2={f2:9.6f}")
print()

print("second derivative of the boundary (positive = convex):")
for tau in (0.05, 0.5, 1.0, 5.0):
    print(f"  d2 rho/d tau2 at {tau:4g}: {zhu_second_derivative(tau, p):10.4f}")
print()

print("how large can f2 get?  peak over zeta as gamma varies:")
for gamma in (0.005, 0.0167821, 0.05, 0.5, p.gamma):
    peak = f2_max(gamma)
    marker = "  <-- crosses pi here" if abs(peak - math.pi) < 1e-3 else ""
    print(f"  gamma={gamma:9.6f}: max f2 = {peak:8.5f}{marker}")
print()

g0 = gamma_critical()
print(f"critical parameter: gamma0 = {g0:.7g}")
print(f"check: max f2 at gamma0 = {f2_max(g0):.7f} vs pi = {math.pi:.7f}")
print("any market with 2 r / sigma^2 above gamma0 has a convex boundary;")
print(f"this one has gamma = {p.gamma:.4f}, far above the threshold.")
