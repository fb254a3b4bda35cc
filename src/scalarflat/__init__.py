"""Scalar-flat conformal factors on asymptotically flat exterior domains.

Computes conformal deformations of an asymptotically flat metric that make
the scalar curvature vanish while fixing either the metric on the inner
boundary or the boundary mean curvature, together with diagnostics: weighted
norms, decay rates, Sobolev-quotient upper bounds, mass coefficients.
"""

from .chart import AXISYM, RADIAL, BoundaryField, Chart, ScalarField
from .dirichlet import (ConformalSolution, lambda_sweep,
                        solve_scalar_flat_dirichlet, sweep_certificate)
from .elliptic import (DirichletBC, LinearProblem, LinearSolveResult, RobinBC,
                       assemble, constant_field, solve_linear)
from .errors import (BarrierError, ChartError, ConfigError, DecayError,
                     DiscreteIsomorphismError, InvalidNormSpec, MetricError,
                     NoSupersolutionError, NonConvergenceError,
                     PositivityError, ScalarFlatError, SolveError, StageError)
from .meancurv import (MeanCurvatureSolution, SubSuperPair, build_sub_super,
                       harmonic_unit, monotone_iterate,
                       prescribe_mean_curvature, reduce_to_minimal,
                       rho_threshold, solve_nonlinear_robin)
from .metrics import (MetricField, boundary_mean_curvature,
                      check_asymptotic_flatness, conformal_transform,
                      flat_metric, conformal_metric, laplace_beltrami,
                      metric_from_spec, normal_derivative, scalar_curvature)
from .oracle import (mean_curvature_root_threshold, radial_dirichlet_yamabe,
                     radial_mean_curvature)
from .quotient import estimate_sobolev_quotient, rayleigh_quotient
from .report import SolveReport, emit_fields, emit_report, read_fields
from .weighted import (DecayFit, WeightedNormSpec, decay_fit,
                       mass_coefficient, weighted_norm)

__version__ = "0.1.0"
