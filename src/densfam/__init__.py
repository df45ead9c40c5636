"""densfam: families of integer sets with prescribed asymptotic
densities, exact window counting, and empirical independence
certification."""

from .constructors import (
    BlockParitySet,
    ExtensionParams,
    Family,
    KWSet,
    PackResult,
    alignment_block,
    atom_density,
    block_bounds,
    block_of,
    block_transform,
    coded_independent_set,
    f2_rank,
    gap_family,
    greedy_atom_pack,
    kw_family,
    kw_set,
    random_extension,
    square_free_radicands,
)
from .density import (
    DEFAULT_SCHEDULE,
    DensityEstimate,
    WindowSchedule,
    as_fraction,
    default_tolerance,
    estimate_density,
    relative_density,
    rho_estimate,
    upper_density_estimate,
)
from .reaping import (
    BisectReport,
    WitnessReport,
    bisect_check,
    nonindependence_witness,
    thin_extension,
)
from .sets import (
    CHUNK_BITS,
    OmegaSet,
    SetBase,
    SetExpr,
    complement,
    empty_set,
    from_elements,
    from_membership,
    intersect,
    omega,
    prefix_density,
    scale,
    sym_diff,
    thin,
    union,
    window_counts,
)
from .verify import (
    AtomReport,
    FieldElement,
    FieldValues,
    ScanReport,
    SignPattern,
    VerificationReport,
    atom,
    expected_atom_density,
    field_elements,
    field_image,
    field_values,
    image_density_scan,
    verify_independence,
)

__version__ = "0.1.0"
