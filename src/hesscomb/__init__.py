"""
Combinatorics of Hessenberg Schubert varieties in type A: permutations and
their inversion sets, Bruhat and weak order, Hessenberg functions and the
roots they select, Weyl-type subsets (each its own acyclic orientation of
the incomparability graph), increasing-path reachability, and torus-fixed
point sets computed by two independent routes.
"""

from .fixed_points import (
    dimension_report,
    fixed_points_by_interval,
    fixed_points_by_reachability,
    fixed_points_by_translation,
    interval_family,
    reachability_family,
    reducibility_witness,
    schubert_fixed_points,
)
from .hessenberg import (
    Hessenberg,
    delete_vertex,
    enumerate_hessenberg,
    hessenberg_length,
    hessenberg_roots,
    total_dimension,
    validate_hessenberg,
)
from .orders import (
    KTuple,
    bruhat_family,
    bruhat_interval,
    bruhat_leq,
    ktuple_leq,
    sort_action,
    weak_left_leq,
)
from .perms import (
    Perm,
    Root,
    all_perms,
    apply_to_root,
    compose,
    front_cycle,
    identity,
    inverse,
    inversion_set,
    is_positive,
    length,
    longest_element,
    positive_roots,
    validate_perm,
)
from .reach import (
    is_reachable,
    largest_source,
    reachability_table,
    reachable_sets,
    reachable_tuples,
    sources,
)
from .weyl import (
    InvariantError,
    WeylSubset,
    class_of,
    complement,
    enumerate_weyl_subsets,
    induced_subset,
    is_acyclic,
    is_weyl_type,
    make_weyl_subset,
    max_element,
    min_element,
    weyl_subset_of,
)

__version__ = "0.1.0"
