"""Quadratic calibration of Kendall's tau for a non-elliptical copula.

For Clayton/Gumbel dependence there is no multiplicative correction: the
shrinkage of the sample tau under asynchronicity bends with the parameter.
The fix is simulation-based calibration: map true tau -> expected uncorrected
estimate on a grid, fit a quadratic, and invert it at the observed value.
Runs at a reduced scale so it finishes in a few seconds.
"""

import numpy as np
from scipy import stats

from tickcopula import (
    PoissonPair,
    SimSpec,
    build_curve,
    interval_quad,
    interval_quantile,
    kendall_tau,
    pair_ticks,
    param_of_tau,
    simulate,
)

FAMILY = "clayton"
TAU_TRUE = 0.4
N_TICKS = 350
MARGINS = (stats.norm(), stats.norm())

# --- observe one nonsynchronous dataset -------------------------------------
model = param_of_tau(FAMILY, TAU_TRUE)
sim = simulate(
    SimSpec(model=model, margins=MARGINS, lambda1=1.0, lambda2=1.0,
            n1=N_TICKS, n2=N_TICKS, seed=23)
)
paired = pair_ticks(sim.a, sim.b)
tau_obs = kendall_tau(paired, basis="all-pairs").tau_hat
print(f"family {FAMILY}, true tau {TAU_TRUE}: observed (uncorrected) tau {tau_obs:.4f}\n")

# --- build the correction curve ----------------------------------------------
print("building calibration curve (12 grid points x 100 replicates)...")
curve = build_curve(
    FAMILY,
    PoissonPair(1.0, 1.0),
    MARGINS,
    grid=np.linspace(0.02, 0.75, 12),
    n_rep=100,
    n_ticks=N_TICKS,
    seed=0,
)
a, b, c = curve.quad_coeffs
print(f"fitted map: estimate = {a:+.4f} {b:+.4f} tau {c:+.4f} tau^2 "
      f"(residual scale {curve.resid_scale:.4f})")
print("grid tau -> mean estimate:")
for tau, row in zip(curve.grid_taus, curve.estimates):
    print(f"  {tau:.3f} -> {row.mean():.3f}")
print()

# --- correct the observation and attach intervals ----------------------------
iv_quad = interval_quad(curve, tau_obs, level=0.95)
iv_quant = interval_quantile(curve, tau_obs, level=0.95)
print(f"corrected tau            : {iv_quad.point:.4f} (true {TAU_TRUE})")
print(f"prediction interval      : [{iv_quad.lo:.4f}, {iv_quad.hi:.4f}] "
      f"(length {iv_quad.length:.3f})")
print(f"quantile-band interval   : [{iv_quant.lo:.4f}, {iv_quant.hi:.4f}] "
      f"(length {iv_quant.length:.3f})")
