"""Exact tools for k-uniform local arcs in the projective planes PG(2, q)."""

from localarc.gf import (
    Field,
    NonPrime,
    make_field,
    tower_isomorphism,
)
from localarc.plane import Plane, convert_line, convert_point, make_plane
from localarc.arcs import (
    LocalArcFamily,
    derive_phi,
    family_from_dict,
    family_to_dict,
    is_arc,
    lrc_params,
    reduce_uniformity,
    sample_verify,
    verify_local_arc,
    verify_local_arc_oracle,
)
from localarc.bounds import (
    compare_upper_bounds,
    eml_upper,
    fftc_upper,
    lower_exponent,
    trivial_upper,
)
from localarc.sdf import (
    A205,
    BASIS_5,
    BASIS_205,
    SdfBasis,
    is_sdf_int,
    is_sdf_mod,
    max_sdf_bruteforce,
    sdf_subset,
)
from localarc.construct import (
    GenericSeed,
    best_construction,
    case1_lift,
    case2_lift,
    case3_lift,
    choose_M1_M2,
    conic_partition_seed,
    generic_k_arc,
    lift_prime,
    oval_partition,
    plan_lift,
    validate_generic,
)
from localarc.search import (
    SearchResult,
    check_certificate,
    emit_ilp,
    exact_max,
    load_reference_table,
    reproduce_table,
)

__version__ = "0.1.0"
