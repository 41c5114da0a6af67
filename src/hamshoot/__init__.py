"""Multiplicity toolkit for coupled planar Hamiltonian systems.

Minimal periods of positively 2-homogeneous Hamiltonians, resonance
classification, Landesman-Lazer and twist-type diagnostics, and multistart
shooting for geometrically distinct T-periodic and Neumann-type solutions.
"""

__version__ = "0.1.0"

from .errors import (
    HamshootError, ExprSyntaxError, UnboundVariableError, DomainError,
    IntegrationError, StepUnderflowError, NonfiniteStateError,
    OriginTooCloseError, NonpositiveHamiltonianError, DimensionMismatchError,
    MissingDecompositionError, RhoTooSmallError, ShootingError,
    MaxIterationsError, SingularJacobianError, IntegrationOverflowError,
    SingularMatrixError, ConfigError, ConfigParseError, ValidationError,
)
from .expr import parse_expr, eval_expr, grad_expr, unparse, free_variables
from .dynamics import (VectorField, Trajectory, WindingReport,
                       integrate, winding, variational_field)
from .homogeneous import (PlanarHamiltonian, AsymmetricParams, HalfPeriods,
                          ReferenceOrbit, isotropic, asymmetric,
                          hamiltonian_from_expr, check_homogeneous,
                          minimal_period, half_periods, asym_period,
                          reference_orbit, angle_to_orbit_time)
from .systems import (CoupledSystem, DecompositionData, CutoffProfile,
                      assemble_field, validate_decomposition, build_cutoff,
                      modify_system, CutoffModification, validate_periodicity)
from .solvers import (PeriodicSolutionRecord, NeumannSolutionRecord,
                      DistinctnessPartition, MultistartSpec, NeumannStartSpec,
                      shoot_periodic, multistart_periodic, classify_distinct,
                      shoot_neumann, multistart_neumann, classify_distinct_neumann,
                      revalidate)
from .conditions import (ResonanceTag, ResonanceClass, classify_resonance,
                         estimate_mbar, SampleBox, LLReport, ll_margin, scalar_ll,
                         AsymmetricEigenfunction, TwistReport, twist_check,
                         avoiding_rays_check, indefinite_twist_check, Ball,
                         constant_path, fourier_paths)
from .config import ExperimentConfig, load_config, loads_config
