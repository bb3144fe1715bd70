"""Persistence posets, their classifying-space homology, and interleaving bounds."""

from .errors import (
    CycleError,
    DuplicateElement,
    EmptyAfterNonempty,
    HypothesisUnmet,
    InternalError,
    NonMonotoneStructureMap,
    NotNested,
    PartialStructureMap,
    PersistenceError,
    SchemaError,
    ShapeMismatch,
    UnknownElement,
    ValidationError,
)
from .posets import (
    FinitePoset,
    linear_extension,
    new_poset,
)
from .pposets import (
    ElementTrack,
    PersistenceMap,
    PersistencePoset,
    chain_filtrations,
    fibers,
    persistence_linear_extension,
    persistence_mapping_cylinder,
    tracks,
    validate,
)
from .complexes import SimplicialComplex, order_complex
from .homology import FieldSpec, pposet_barcodes
from .modules import (
    Barcode,
    PersistenceModule,
    barcode,
    bottleneck_distance,
    direct_sum,
    point_comparison_defect,
    triviality_defect,
)
from .verifier import (
    TheoremCertificate,
    chain_puncture_suite,
    fiber_defects,
    verify_cylinder_retraction,
    verify_join_acyclicity,
    verify_split_ses_properties,
    verify_theorem,
)
from .documents import (
    CoverTower,
    GeneratorLimits,
    InstanceDocument,
    Scale,
    cover_to_pposet,
    parse_instance,
    random_instance,
    serialize_instance,
)

__version__ = "0.1.0"
