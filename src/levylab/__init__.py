"""levylab: quantum dynamical semigroups driven by classical noise.

Construct increment laws, realize the noise-averaged dynamics by Monte
Carlo on a spectral lattice, verify the finite-dimensional structure theory
(complete positivity, jump expansion, gauge freedom, covariance), and probe
explosion through boundary classification of the abelian reduction.
"""

__version__ = "0.3.0"

from .levy import (  # noqa: F401
    DensitySpec,
    JumpMeasure,
    LevyTriplet1D,
    LevyTriplet2D,
    PathSample,
    char_exponent_1d,
    char_exponent_2d,
    convolve_classical,
    empirical_char_function,
    sample_ensemble,
    sample_increments,
    validate_levy_condition,
    with_truncation,
)
from .grid import (  # noqa: F401
    GridSpec,
    PTable,
    QTable,
    WaveFunction,
    WeylLabel,
    apply_free_evolution,
    apply_position_phase,
    apply_shift,
    apply_weyl,
    ccr_defect,
    default_grid,
    expectation,
    gaussian_state,
)
from .generators import (  # noqa: F401
    GaugeElement,
    StandardGenerator,
    apply_gauge,
    apply_generator,
    check_duality,
    choi_matrix,
    covariance_defect,
    exact_evolve,
    gauge_product,
    is_completely_positive,
    is_conditionally_cp,
)
from .montecarlo import MCConfig, MCResult  # noqa: F401
