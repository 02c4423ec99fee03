"""Exact discriminant atlases for simple boundary singularities.

Families B_mu, C_mu and F4: discriminant membership, topological
classification of nonsingular parameters, component enumeration with
constructive seeds, exact path certificates, and deterministic SVG
rendering.  All decisions are made in rational arithmetic.
"""

from .classify import (
    BCSignature,
    DiscriminantParameter,
    F4Descriptor,
    LowerSetType,
    NonGenericConfiguration,
    canonical_type_id,
    classify,
    type_key,
)
from .atlas import (
    AtlasReport,
    DiscriminantEndpoint,
    InvalidSignature,
    NotFound,
    PathCertificate,
    SamplingConfig,
    SegmentFailure,
    SegmentProof,
    TypeMismatch,
    certify_path,
    certify_segment,
    construct_representative,
    enumerate_components,
    valid_signatures,
)
from .exactpoly import (
    Interval,
    MultiPoly,
    UniPoly,
    discriminant,
    gcd_uni,
    isolate_real_roots,
    restrict_to_segment,
    root_signature,
    sturm_count,
)
from .models import (
    Membership,
    Parameter,
    SingularityClass,
    boundary_polynomial,
    deformation_polynomial,
    discriminant_membership,
    f4_sigma0_eliminant,
    f4_sigma1_polynomial,
    table1_metadata,
    xi0_point,
)

__version__ = "0.1.0"

__all__ = [
    "AtlasReport",
    "BCSignature",
    "DiscriminantEndpoint",
    "DiscriminantParameter",
    "F4Descriptor",
    "Interval",
    "InvalidSignature",
    "LowerSetType",
    "Membership",
    "MultiPoly",
    "NonGenericConfiguration",
    "NotFound",
    "Parameter",
    "PathCertificate",
    "SamplingConfig",
    "SegmentFailure",
    "SegmentProof",
    "SingularityClass",
    "TypeMismatch",
    "UniPoly",
    "boundary_polynomial",
    "canonical_type_id",
    "certify_path",
    "certify_segment",
    "classify",
    "construct_representative",
    "deformation_polynomial",
    "discriminant",
    "discriminant_membership",
    "enumerate_components",
    "f4_sigma0_eliminant",
    "f4_sigma1_polynomial",
    "gcd_uni",
    "isolate_real_roots",
    "restrict_to_segment",
    "root_signature",
    "sturm_count",
    "table1_metadata",
    "type_key",
    "valid_signatures",
    "xi0_point",
]
