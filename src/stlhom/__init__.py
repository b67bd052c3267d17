"""stlhom: exact second homology of Steinberg Leibniz algebras.

The package builds stl_n(R) for a unital associative algebra R over an exact
scalar domain, computes Leibniz homology in low degrees with exact sparse
linear algebra, verifies the defining cocycles and central extensions for
n = 3 and n = 4, and exposes a campaign runner / CLI over a ring catalog.
"""

from .domains import F2, F3, F5, Q, Z, SCALARS, ScalarDomain, parse_scalar
from .linalg import (ContainmentError, SmithForm, SpanSolver,
                     SubquotientInvariants, smith_normal_form, subquotient)
from .assoc import (AssocAlgebra, commutator_span, hochschild_h1, ideal_Im,
                    load_ring_json, make_algebra, quotient_Rm,
                    save_ring_json)
from .catalog import ACCEPTANCE_PAIRS, RING_BUILDERS, catalog_ring
from .leibniz import (CentralExtensionModel, GlAlgebra, HomologyReport,
                      LeibnizAlgebra, LeibnizIdentityError, SlAlgebra,
                      StructuralReport, build_gl, build_sl, homology_hl,
                      is_central, is_perfect, iter_d3_columns, make_leibniz,
                      structural_report, uce)
from .steinberg import (CalculusReport, CocycleReport, CocycleSpace,
                        HatModel, Hl2Report, SharpReport, SteinbergModel,
                        SteinbergSymbolic, ThetaMap, build_hat, build_stl,
                        build_theta, corrupted_theta, hl2_report,
                        predicted_hl2, verify_calculus, verify_cocycle,
                        verify_sharp_relations)
from .campaign import (DEFAULT_MAX_CUBE, CampaignConfig, CampaignConfigError,
                       CampaignReport, declared_rows, resolve_ring,
                       run_campaign)

__version__ = "0.1.0"

__all__ = [
    "F2", "F3", "F5", "Q", "Z", "SCALARS", "ScalarDomain", "parse_scalar",
    "ContainmentError", "SmithForm", "SpanSolver",
    "SubquotientInvariants", "smith_normal_form", "subquotient",
    "AssocAlgebra", "commutator_span", "hochschild_h1",
    "ideal_Im", "load_ring_json", "make_algebra", "quotient_Rm",
    "save_ring_json",
    "ACCEPTANCE_PAIRS", "RING_BUILDERS", "catalog_ring",
    "CentralExtensionModel", "GlAlgebra", "HomologyReport", "LeibnizAlgebra",
    "LeibnizIdentityError", "SlAlgebra", "StructuralReport",
    "build_gl", "build_sl", "homology_hl", "is_central", "is_perfect",
    "iter_d3_columns", "make_leibniz", "structural_report", "uce",
    "CalculusReport", "CocycleReport", "CocycleSpace",
    "HatModel", "Hl2Report", "SharpReport", "SteinbergModel",
    "SteinbergSymbolic", "ThetaMap", "build_hat", "build_stl", "build_theta",
    "corrupted_theta", "hl2_report", "predicted_hl2",
    "verify_calculus", "verify_cocycle", "verify_sharp_relations",
    "DEFAULT_MAX_CUBE", "CampaignConfig", "CampaignConfigError",
    "CampaignReport", "declared_rows", "resolve_ring", "run_campaign",
]
