"""Exact computations in modular group algebras F_pG of finite p-groups."""

__version__ = "0.1.0"

from .algebra import (AlgebraContext, AugmentedSubalgebra,
                      group_algebra_subalgebra, ideal_generated,
                      mho_ideal_mod_derived, normal_subgroup_ideal,
                      omega_central, omega_central_ideal, product_space,
                      right_ideal, unit_exponent_commutative)
from .catalog import builtin_catalog, catalog_by_name
from .decompose import (Certificate, DecompositionReport,
                        certify_indecomposable, find_group_basis_commutative,
                        lambda_map, recover_decomposition, split_cyclic)
from .fplin import FpSubspace, QuotientSpace
from .groups import (PGroup, Subgroup, abelian_invariants, agemo_derived,
                     catalog_build, characteristic_subgroup,
                     cyclic_factor_orders, direct_factor_oracle,
                     is_internal_direct_product, omega_center_derived,
                     quotient_group, r_subquotient, retraction_complement,
                     subgroup_to_pgroup)
from .lemmas import (IdentityReport, TensorFactorizationInput,
                     VerificationError, cyclic_factor_test,
                     lemma_identity_check, verify_tensor_factorization)
