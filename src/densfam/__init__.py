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
    block_transform,
    coded_independent_set,
    f2_rank,
    gap_family,
    greedy_atom_pack,
    kw_family,
    kw_set,
    random_extension,
)
from .density import (
    DEFAULT_SCHEDULE,
    DensityEstimate,
    WindowSchedule,
    as_fraction,
    default_tolerance,
    estimate_density,
)
from .reaping import (
    BisectReport,
    WitnessReport,
    bisect_check,
    intersections,
    nonindependence_witness,
    thin_extension,
)
from .sets import (
    CHUNK_BITS,
    SetBase,
    SetExpr,
    complement,
    from_elements,
    from_membership,
    intersect,
    omega,
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
    VerificationReport,
    atoms,
    field_elements,
    field_values,
    image_density_scan,
    pattern_label,
    verify_independence,
)

__version__ = "0.1.0"
