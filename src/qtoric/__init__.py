"""Exact equivariant localization data and q-hypergeometric series for smooth
compact toric quotients.

A model is a K x N integer matrix presenting the manifold as a torus quotient
of C^N, plus a chamber point.  On top of that the library computes, entirely
in exact rational arithmetic:

* fixed points, degree pairings, Mori cone data, truncation boxes;
* minimal multiplicative relation sets and their fixed-point verification;
* localization sums: the K-theoretic trace, equivariant integrals, and
  integrals over spaces of degree-d spheres;
* q-hypergeometric series per fixed point (with bundle and super-bundle
  twists), the point-series q-exponential identity, and Adams operations;
* the q-difference system satisfied by the series, its Gamma-ratio
  reconstruction, and the degree-shift relations of the cohomological series;
* one-dimensional orbit data and the simple-pole residue recursion, with an
  independent Euler-class oracle.

Identities are machine-checked by exact evaluation at seeded random rational
parameter values; nothing is ever compared approximately.
"""

__version__ = "0.1.0"

from .kirwan import (
    kirwan_relations,
    spectrum_point_count,
    verify_relations_at_fixed_points,
)
from .localization import cohomology_integral, ktheory_trace, map_space_integral
from .models import (
    ModelFile,
    ModelFormatError,
    hirzebruch,
    load_bundled_model,
    parse_model,
    parse_model_text,
    product_of_lines,
    projective_space,
    resolve_model,
)
from .qdiff import (
    apply_gamma_ratio,
    gamma_reconstruction,
    verify_coh_relation,
    verify_dq_system,
    verify_shifted_identity,
)
from .recursion import (
    OrbitData,
    all_orbits,
    edge_euler_class,
    edge_euler_class_from_forms,
    orbit_data,
    root_context,
    verify_residue_recursion,
)
from .scalars import (
    DegenerateSampleError,
    DoublePoleError,
    LeadingTerm,
    PoleError,
    SampleContext,
    TruncationError,
    ratio_table,
    root_factor,
    sample_context,
    with_resampling,
)
from .series import (
    BundleData,
    NovikovSeries,
    TruncationBox,
    adams,
    assemble_cohomological_series,
    assemble_series,
    cohomological_series,
    component_residues,
    component_series,
    point_series,
    series_exp,
    truncation_box,
)
from .toric import (
    FixedPoint,
    InvalidModelError,
    NonRegularChamberError,
    NonSmoothModelError,
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    format_monomial,
    mori_cone_membership,
    mori_generators,
)
