"""
Combinatorics of Hessenberg Schubert varieties in type A: permutations and
their inversion sets, Bruhat and weak order, Hessenberg functions and
incomparability graphs, Weyl-type subsets and their acyclic orientations,
increasing-path reachability, and torus-fixed point sets computed by two
independent routes.
"""

from .fixed_points import (
    dimension_report,
    fixed_points_by_interval,
    fixed_points_by_reachability,
    fixed_points_by_translation,
    reducibility_witness,
    schubert_fixed_points,
)
from .hessenberg import (
    Hessenberg,
    IncompGraph,
    delete_vertex,
    enumerate_hessenberg,
    hessenberg_length,
    hessenberg_roots,
    incomparability_graph,
    total_dimension,
    validate_hessenberg,
)
from .orders import (
    KTuple,
    bruhat_interval,
    bruhat_leq,
    ktuple_leq,
    sort_action,
    weak_interval,
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
    reachable_tuples,
    set_reachable,
    sources,
)
from .weyl import (
    InvariantError,
    Orientation,
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
    orientation_of,
    subset_of_orientation,
    weyl_subset_of,
)

__version__ = "0.1.0"
