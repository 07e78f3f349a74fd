"""Maximal tori of SL_n/GL_n from étale algebras, S-ampleness certificates,
and verified integer-matrix generator sets for commensurably maximal
amenable subgroups of arithmetic groups.

All arithmetic is exact (arbitrary-precision rationals); analytic
quantities (log embeddings) are handled through certified enclosures held
as integer balls. See README.md for an overview and demos/ for worked
examples.
"""

from .errors import (
    AmpleToriError,
    BudgetExceededError,
    IndependenceUndecidedError,
    InputError,
    InvalidUnitSystemError,
    NoSuchElementError,
    NotAnOrderError,
    RamifiedPlaceError,
    UnsupportedError,
)
from .etale import EtaleAlgebra
from .matgroups import (
    GeneratorSet,
    elementary_matrix,
    enumerate_automorphisms,
    group_sanity,
    verify_normalization,
    verify_semidirect,
)
from .pipeline import CmaReport, PipelineRequest, run_pipeline, verify_paper_examples
from .places import (
    GaloisTag,
    PlaceProfile,
    Signature,
    decomposition_profile,
    galois_group_small,
    places_over_p,
    signature,
)
from .polynomials import (
    QPoly,
    discriminant,
    factor_mod_p,
    is_square_integer,
)
from .serialize import replay_certificate
from .torus import (
    AmpleCertificate,
    PlaceSet,
    TorusDatum,
    build_torus,
    decompose_module,
    global_rank,
    is_s_ample,
    local_rank,
    replay_certificate_json,
)
from .units import (
    LogEmbedding,
    UnitSystem,
    assemble_unit_system,
    dirichlet_rank,
    norm_one_subgroup,
    search_units,
    torsion_units,
    verify_unit_system,
)

__version__ = "0.1.0"
