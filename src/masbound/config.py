"""Numeric tolerances and caps, all fixed constants.

`LP_TOL` is the tolerance of every LP the package solves: both the HiGHS
primal/dual feasibility tolerance and the slack of the redundancy
certificate.  No argument or environment variable changes it, so `t*`,
`m1` and `m2` depend on the problem alone: system, box and epsilon.
"""

# HiGHS refuses feasibility tolerances below 1e-10.  A looser one lets the
# redundancy slack accept rows that cut by less than it: at 1e-5 and 1e-4
# the forced exact index of seed-2026 study systems drops below its value
# at 1e-9.
LP_TOL = 1e-9
# Vertex handling.
VERTEX_DEDUP = 1e-8
VERTEX_FEASIBILITY = 1e-8
# Rows with coefficient norm below this are treated as all-zero.
ZERO_ROW = 1e-12
# Relative symmetry check for symmetric-eigensolver inputs.
SYMMETRY = 1e-10
# Relative residual accepted from the discrete Lyapunov solve.
LYAPUNOV_RESIDUAL = 1e-8
# Divergence guard for the power-series coefficient recursion.
BETA_GROWTH_LIMIT = 1e12

# Iteration caps (not tolerances, but centralized for the same reason).
POWER_SERIES_STEP_CAP = 10**6
EXACT_STEP_CAP = 10**5
VERTEX_DIM_CAP = 12

# Default rejection thresholds for system validation and the study generator.
STABILITY_THRESHOLD = 0.999
OBSERVABILITY_THRESHOLD = 1e-4

