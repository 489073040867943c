"""Spectral analysis of absorbing Markov chains.

Builds absorbing generators, computes their first Dirichlet eigenpair and
quasi-stationary distribution, bounds the eigenvector amplitude
max(phi)/min(phi) through path and spectral estimates, verifies the
probabilistic representation of eigenvector ratios by Monte Carlo, and
extends the spectral machinery to denumerable birth-death chains through
reflecting truncations.
"""

from .errors import (
    DegenerateGap,
    EmptyResult,
    EventBudgetExceeded,
    GapViolation,
    HeavyTailWarning,
    InvalidParameter,
    NegativeRate,
    NoAbsorption,
    NoConvergence,
    NonIrreducible,
    NonPositiveInput,
    NotBirthDeath,
    NotConverged,
    NotReversible,
    QsampError,
    SingularFactor,
    UnderflowWarning,
    UnknownCase,
)
from .generators import (
    AbsorbingGenerator,
    Path,
    build_birth_death,
    build_general,
    build_graph_walk,
    build_rho_chain,
    load_generator,
    minor,
    save_generator,
)
from .spectral import (
    DirichletEigenpair,
    SpectrumReport,
    amplitude,
    dirichlet_eigenpair,
    full_spectrum,
    lambda0_minor,
    quasi_stationary_dist,
    reversible_measure,
)
from .bounds import (
    PathBoundReport,
    SpectralBoundReport,
    exact_bd_amplitude,
    graph_bound,
    graph_parameters,
    path_bound,
    path_weight,
    rough_weight,
    spectral_bound,
)
from .simulate import (
    EstimateWithCI,
    TrajectoryOutcome,
    absorption_times,
    doob_stationary,
    doob_transform,
    estimate_psi,
    estimate_ratio,
    expm_action,
    sample_path,
    sandwich_experiment,
    total_variation,
)
from .bd_infinite import (
    EntranceVerdict,
    RateFamily,
    TheoremBoundReport,
    TruncationSeries,
    accelerated_poisson_family,
    dirichlet_form,
    eigen_convergence,
    entrance_check,
    gap_identity_check,
    hitting_time_from,
    lyapunov_check,
    pi_measure,
    poisson_family,
    rho_family,
    tail_sum_estimate,
    theorem_bound,
    truncate_neumann,
)

__version__ = "0.1.0"
