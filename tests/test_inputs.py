"""Malformed input at every public entry of the package.

A malformed permutation has a repeat, a 0, a negative entry, the entry
n + 1, or the wrong length for its rank; a malformed Hessenberg function
decreases, dips below the diagonal, exceeds n or is empty; a malformed
subset is a hand-built one with a directed cycle.  Every public function of
hesscomb that takes such an input raises ValueError for it, or says in its
docstring that it does not check that input.
"""

import functools
import inspect

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hesscomb as hc


def e(n):
    return hc.identity(n)


# For each kind of input, the calls that must raise ValueError on a
# malformed one, x, beside well-formed arguments of rank n.
CALLS = {
    "permutation": {
        "bruhat_family": [lambda x, n: hc.bruhat_family(x, e(n)),
                          lambda x, n: hc.bruhat_family(e(n), x)],
        "bruhat_interval": [lambda x, n: hc.bruhat_interval(x, e(n)),
                            lambda x, n: hc.bruhat_interval(e(n), x)],
        "bruhat_leq": [lambda x, n: hc.bruhat_leq(x, e(n)), lambda x, n: hc.bruhat_leq(e(n), x)],
        "dimension_report": [lambda x, n: hc.dimension_report(x, (n,) * n)],
        "fixed_points_by_reachability": [lambda x, n: hc.fixed_points_by_reachability(x, (n,) * n)],
        "fixed_points_by_translation": [lambda x, n: hc.fixed_points_by_translation(x, (n,) * n)],
        "hessenberg_length": [lambda x, n: hc.hessenberg_length(x, (n,) * n)],
        "interval_family": [lambda x, n: hc.interval_family(x, (n,) * n)],
        "reachability_family": [lambda x, n: hc.reachability_family(x, (n,) * n)],
        "reachable_tuples": [lambda x, n: hc.reachable_tuples(x, (n,) * n, 1)],
        # it has no rank to compare a length with, so it gets no wrong length
        "validate_perm": [lambda x, n: hc.validate_perm(x)],
        "weyl_subset_of": [lambda x, n: hc.weyl_subset_of(x, (n,) * n)],
    },
    "Hessenberg function": {
        "WeylSubset": [lambda x, n: hc.WeylSubset(frozenset(), x)],
        "delete_vertex": [lambda x, n: hc.delete_vertex(x, 1)],
        "dimension_report": [lambda x, n: hc.dimension_report(e(n), x)],
        "enumerate_weyl_subsets": [lambda x, n: hc.enumerate_weyl_subsets(x)],
        "fixed_points_by_reachability": [lambda x, n: hc.fixed_points_by_reachability(e(n), x)],
        "fixed_points_by_translation": [lambda x, n: hc.fixed_points_by_translation(e(n), x)],
        "hessenberg_length": [lambda x, n: hc.hessenberg_length(e(n), x)],
        "hessenberg_roots": [lambda x, n: hc.hessenberg_roots(x)],
        "interval_family": [lambda x, n: hc.interval_family(e(n), x)],
        "is_weyl_type": [lambda x, n: hc.is_weyl_type((), x)],
        "list_classes": [lambda x, n: hc.list_classes(x)],
        "make_weyl_subset": [lambda x, n: hc.make_weyl_subset((), x)],
        "reachability_family": [lambda x, n: hc.reachability_family(e(n), x)],
        "reachable_tuples": [lambda x, n: hc.reachable_tuples(e(n), x, 1)],
        "total_dimension": [lambda x, n: hc.total_dimension(x)],
        "validate_hessenberg": [lambda x, n: hc.validate_hessenberg(x)],
        "weyl_subset_of": [lambda x, n: hc.weyl_subset_of(e(n), x)],
    },
    "subset": {
        "class_of": [lambda x, n: hc.class_of(x)],
        "fixed_points_by_interval": [lambda x, n: hc.fixed_points_by_interval(x)],
        "largest_source": [lambda x, n: hc.largest_source(x)],
        "make_weyl_subset": [lambda x, n: hc.make_weyl_subset(x.roots, x.h)],
        "max_element": [lambda x, n: hc.max_element(x)],
        "min_element": [lambda x, n: hc.min_element(x)],
        "reducibility_witness": [lambda x, n: hc.reducibility_witness(x)],
        "schubert_fixed_points": [lambda x, n: hc.schubert_fixed_points(x)],
        "sources": [lambda x, n: hc.sources(x)],
    },
}

# The functions that answer on such an input, each with the words of its
# docstring that say so.
UNCHECKED = {
    "permutation": {
        "apply_to_root": "is not checked",
        "compose": "only the rank is checked",
        "inverse": "is not checked",
        "inversion_set": "is not checked",
        "length": "is not checked",
        "sort_action": "is not checked",
        "weak_left_leq": "only the rank is checked",
    },
    "Hessenberg function": {},
    "subset": {
        "WeylSubset": "cyclic ones included",
        "complement": "A cyclic S is not checked",
        "induced_subset": "A cyclic S is not checked",
        "is_acyclic": "S may be any subset",
        "is_reachable": "Defined for any orientation",
        "is_weyl_type": "cyclic ones included",
        "reachability_table": "Defined for any orientation",
        "reachable_sets": "Defined for any orientation",
    },
}

# How a signature names each kind of input; the two validators take any
# iterable and are named here.
ANNOTATIONS = {
    "Perm": "permutation",
    "Hessenberg": "Hessenberg function",
    "WeylSubset": "subset",
    "Iterable[Root]": "subset",
    "frozenset[Root]": "subset",
}
VALIDATORS = {"validate_perm": "permutation", "validate_hessenberg": "Hessenberg function"}


def _public_functions() -> dict:
    return {
        name: obj for name, obj in vars(hc).items()
        if not name.startswith("_") and (
            inspect.isfunction(obj) or inspect.isclass(obj)
            or isinstance(obj, functools._lru_cache_wrapper))
    }


def _kinds_taken(name, obj) -> set:
    if name in VALIDATORS:
        return {VALIDATORS[name]}
    try:
        parameters = inspect.signature(obj).parameters.values()
    except ValueError:  # an exception class
        return set()
    return {ANNOTATIONS[p.annotation] for p in parameters if p.annotation in ANNOTATIONS}


def test_every_public_function_is_covered_for_each_input_it_takes():
    for name, obj in _public_functions().items():
        listed = {kind for kind in CALLS if name in CALLS[kind] or name in UNCHECKED[kind]}
        assert listed == _kinds_taken(name, obj), name
    for kind in CALLS:
        assert not set(CALLS[kind]) & set(UNCHECKED[kind]), kind


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind in UNCHECKED for name in sorted(UNCHECKED[kind])])
def test_each_unchecked_input_is_documented(kind, name):
    assert UNCHECKED[kind][name] in " ".join(inspect.getdoc(getattr(hc, name)).split())


@st.composite
def malformed_permutations(draw, wrong_length=True):
    n = draw(st.integers(2, 5))
    faults = ["repeat", "zero", "negative", "n + 1"] + ["length"] * wrong_length
    fault = draw(st.sampled_from(faults))
    if fault == "length":  # a permutation of the next rank down or up
        m = draw(st.sampled_from([n - 1, n + 1]))
        return tuple(draw(st.permutations(range(1, m + 1)))), n
    w = list(draw(st.permutations(range(1, n + 1))))
    i = draw(st.integers(0, n - 1))
    if fault == "repeat":
        w[i] = w[(i + draw(st.integers(1, n - 1))) % n]
    elif fault == "negative":
        w[i] = -draw(st.integers(1, n))
    else:
        w[i] = 0 if fault == "zero" else n + 1
    return tuple(w), n


HESSENBERG = {n: list(hc.enumerate_hessenberg(n)) for n in (3, 4, 5)}


@st.composite
def malformed_hessenberg_functions(draw):
    fault = draw(st.sampled_from(["decreasing", "below the diagonal", "above n", "empty"]))
    n = draw(st.sampled_from(sorted(HESSENBERG)))
    if fault == "empty":
        return (), n
    if fault == "decreasing":  # every value in range, with a descent at position i
        h = [draw(st.integers(j, n)) for j in range(1, n + 1)]
        i = draw(st.integers(1, n - 2))
        h[i] = draw(st.integers(i + 1, n - 1))
        h[i - 1] = draw(st.integers(h[i] + 1, n))
        return tuple(h), n
    h = list(draw(st.sampled_from(HESSENBERG[n])))
    if fault == "above n":
        h[-1] = n + draw(st.integers(1, 3))
    else:  # nondecreasing, with h(i) = i - 1 or less at one position i >= 2
        i = draw(st.integers(2, n))
        h[:i] = [min(v, i - 1) for v in h[:i]]
    return tuple(h), n


@st.composite
def cyclic_subsets(draw):
    """A hand-built subset with the cycle a -> b -> c -> a: (a, c) is in it,
    and (a, b) and (b, c), selected with it, are not; every other root of h
    is in it or not as drawn."""
    n = draw(st.sampled_from(sorted(HESSENBERG)))
    h = draw(st.sampled_from([h for h in HESSENBERG[n] if any(
        v >= a + 2 for a, v in enumerate(h, start=1))]))
    a = draw(st.sampled_from([a for a, v in enumerate(h, start=1) if v >= a + 2]))
    c = draw(st.integers(a + 2, h[a - 1]))
    b = draw(st.integers(a + 1, c - 1))
    others = sorted(hc.hessenberg_roots(h) - {(a, b), (b, c), (a, c)})
    roots = {(a, c)} | {r for r in others if draw(st.booleans())}
    return hc.WeylSubset(frozenset(roots), h), n


MALFORMED = {
    "permutation": malformed_permutations(),
    "Hessenberg function": malformed_hessenberg_functions(),
    "subset": cyclic_subsets(),
}


@pytest.mark.parametrize("kind, name, call", [
    pytest.param(kind, name, call, id=f"{kind}-{name}-{i}")
    for kind in CALLS for name in sorted(CALLS[kind])
    for i, call in enumerate(CALLS[kind][name])])
@seed(30)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_malformed_input_raises_value_error(kind, name, call, data):
    strategy = MALFORMED[kind]
    if name == "validate_perm":
        strategy = malformed_permutations(wrong_length=False)
    x, n = data.draw(strategy)
    with pytest.raises(ValueError):
        call(x, n)
