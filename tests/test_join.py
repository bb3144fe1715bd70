"""The join lemma on the ordinal sum, against the join of the full towers.

Every element of A lies below every element of B in the ordinal sum
A (+) B, so its order complex is the join of the order complexes of A and
B.  verify_join_acyclicity reads every defect off pposet_barcodes, the
join's on the ordinal sum.  The reference (reference.verify_join_acyclicity)
relabels both factors, joins their full order-complex towers complex by
complex, and reads the defects off tower_barcodes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persposet.complexes import order_complex
from persposet.documents import random_pposet
from persposet.errors import HypothesisUnmet
from persposet.homology import FieldSpec
from persposet.pposets import ordinal_sum
from persposet.verifier import verify_join_acyclicity
import reference

FIELDS = (2, 3, 5)


def random_pair(seed, max_slice):
    """Two persistence posets of one length, with the same element names."""
    rng = random.Random(seed)
    T = rng.randint(0, 4)
    return random_pposet(rng, T, max_slice, 2 * max_slice), random_pposet(rng, T, max_slice, 2 * max_slice)


def report_or_unmet(verify, A, B, field, k_max):
    try:
        return vars(verify(A, B, field, k_max))
    except HypothesisUnmet:
        return None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from((3, 5)))
def test_ordinal_sum_slices_are_joins(seed, max_slice):
    A, B = random_pair(seed, max_slice)
    tagged_a, tagged_b = reference.relabel(A, "A:"), reference.relabel(B, "B:")
    total = ordinal_sum(A, B)
    for P, Q, S in zip(tagged_a.components, tagged_b.components, total.components):
        joined = reference.join(order_complex(P), order_complex(Q))
        assert order_complex(S).vertices == joined.vertices
        assert order_complex(S).simplices == joined.simplices


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from((3, 5)),
    st.sampled_from(FIELDS),
    st.sampled_from((None, 0, 2)),
)
def test_join_lemma_equals_full_tower_reference(seed, max_slice, p, k_max):
    A, B = random_pair(seed, max_slice)
    field = FieldSpec(p)
    expected = report_or_unmet(reference.verify_join_acyclicity, A, B, field, k_max)
    assert report_or_unmet(verify_join_acyclicity, A, B, field, k_max) == expected


def test_join_defects_are_not_all_zero():
    """Comparing join defects is only sharp if some pair has a nonzero one."""
    defects = [
        report["join_defect"]
        for seed in range(60)
        if (report := report_or_unmet(verify_join_acyclicity, *random_pair(seed, 3), FieldSpec(2), None))
    ]
    assert len(defects) >= 20 and any(d > 0 for d in defects)


def test_ordinal_sum_with_itself_keeps_both_copies():
    A, _ = random_pair(3, 5)
    total = ordinal_sum(A, A)
    for P, S in zip(A.components, total.components):
        assert set(S.elements) == {"A:" + e for e in P.elements} | {"B:" + e for e in P.elements}
        assert len(S.elements) == 2 * len(P.elements)
    assert report_or_unmet(verify_join_acyclicity, A, A, FieldSpec(2), None) == report_or_unmet(
        reference.verify_join_acyclicity, A, A, FieldSpec(2), None
    )


def test_length_mismatch_is_unmet():
    rng = random.Random(0)
    A, B = random_pposet(rng, 1, 3, 6), random_pposet(rng, 2, 3, 6)
    with pytest.raises(HypothesisUnmet):
        verify_join_acyclicity(A, B, FieldSpec(2))
