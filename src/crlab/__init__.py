"""Completely regular codes with covering radius 2 and antipodal duals:
exact construction, verification and desk-scale classification."""

from .field import FieldSpec, field_create, field_from_modulus
from .matrix import MatGF
from .codes import (CodewordMatrix, LinearCode, WeightDistribution,
                    complementary_code, is_antipodal_two_weight,
                    is_projective, macwilliams, projective_dual_transform)
from .regularity import (IntersectionArray, brute_subconstituents,
                         complete_regularity, delsarte_ia, dual_regularity,
                         oa_strength)
from .diffmat import (DifferenceMatrix, difference_matrix, dm_code,
                      is_difference_matrix, normalize_dm)
from .conditions import (power_decomposition, two_weight_counts,
                         max_distance_bound, cardinality_window_check,
                         complement_valuation_check)
from .families import (FamilyInstance, cr1_extended_hamming, cr2_dm_dual,
                       cr3_mds_dual, cr4_bose_bush, cr5_delsarte,
                       cr6_denniston, family_match)
from .search import search_antipodal_duals, search_arcs
from .report import CodeReport, build_code_report

__version__ = "0.1.0"

__all__ = [
    "FieldSpec", "field_create", "field_from_modulus", "MatGF",
    "CodewordMatrix", "LinearCode", "WeightDistribution",
    "complementary_code", "is_antipodal_two_weight",
    "is_projective", "macwilliams", "projective_dual_transform",
    "IntersectionArray", "brute_subconstituents", "complete_regularity",
    "delsarte_ia", "dual_regularity", "oa_strength",
    "DifferenceMatrix", "difference_matrix", "dm_code",
    "is_difference_matrix", "normalize_dm",
    "power_decomposition", "two_weight_counts", "max_distance_bound",
    "cardinality_window_check", "complement_valuation_check",
    "FamilyInstance", "cr1_extended_hamming", "cr2_dm_dual", "cr3_mds_dual",
    "cr4_bose_bush", "cr5_delsarte", "cr6_denniston", "family_match",
    "search_antipodal_duals", "search_arcs",
    "CodeReport", "build_code_report",
]
