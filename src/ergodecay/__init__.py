"""ergodecay: Fourier decay of measure sequences on Z, made computational.

Measures on the integers, rigorous sup brackets of the decay functional
sup |(1 - e(gamma)) mu_hat(gamma)|, greedy certified subsequence selection,
the discrete Calderon-Zygmund / maximal-operator machinery, quadratic Weyl
and Gauss sum audits, block-structure analysis of averages along
k^2 + floor(rho(k)), and weighted ergodic averages on concrete systems.
"""

__version__ = "0.1.0"

from .czmax import (
    CZDecomposition,
    DyadicInterval,
    cz_decompose,
    cz_report,
    cz_tree,
    e1_e2_diagnostics,
    maximal_function,
    sigma_deficit_sup,
    sigma_n,
    weak11_ratio,
    weak11_rows,
)
from .dynsys import (
    ObservedFunction,
    System,
    convergence_trace,
    cyclic_system,
    golden_rotation,
    indicator_function,
    rotation_system,
    table_function,
    trig_function,
    weighted_average,
)
from .errors import (
    ConfigError,
    ErgodecayError,
    ResourceCapError,
    SelectionStalled,
    VerificationError,
)
from .families import (
    MeasureFamily,
    RhoSpec,
    parse_family,
    parse_rho,
    perturbed_family,
    perturbed_squares_measure,
    rho_constant,
    rho_log,
    rho_log_power,
    rho_power,
    rotated_family,
    rotated_squares_measure,
    squares_family,
    squares_measure,
)
from .measures import (
    SupBracket,
    WeightedMeasure,
    certify_sup_below,
    convolve,
    fourier_at,
    fourier_grid,
    make_measure,
    modulate,
    triviality_sup,
)
from .selection import (
    SelectionState,
    select_subsequence,
    selection_from_json,
    verify_selection,
)
from .threshold import (
    BlockStructure,
    ResidueProfile,
    block_sqrt_sum,
    block_structure,
    block_sum,
    cesaro_expos,
    major_arc_audit,
    quadratic_residues,
    residue_density,
    transform_bound_audit,
    vj_sum,
)
from .weyl import (
    ApproxCertificate,
    dirichlet_approx,
    exact_frequency,
    gauss_sum,
    weyl_bound_audit,
    weyl_sum,
)
