"""The process-wide memo of lifted operation tables.

Memoized tables are checked against `reference_lifted_table`, which fills
each entry from the definition; the memo is checked for read-only
entries, its byte bound, rebuilding after eviction, and reuse across
equal but distinct algebras.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_lifted_table
from maltcube import algebras
from maltcube.algebras import FiniteAlgebra, generate_subpower
from maltcube.terms import OperationSymbol


@st.composite
def operations(draw):
    """A universe size at most 3, an arity 1 to 3, a table, a chunk length 1 to 3."""
    n = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
    length = draw(st.integers(1, 3))
    return n, arity, tuple(table), length


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(operations())
def test_memoized_tables_match_the_definition(case):
    n, arity, table, length = case
    lifted, _ = algebras._lifted_table(n, arity, table, length)
    assert lifted.dtype == np.uint16
    assert tuple(lifted.tolist()) == reference_lifted_table(n, arity, table, length)
    again, built = algebras._lifted_table(n, arity, tuple(table), length)
    assert not built and again is lifted


def test_memoized_tables_are_read_only():
    lifted, _ = algebras._lifted_table(2, 2, (0, 1, 1, 0), 2)
    assert not lifted.flags.writeable
    with pytest.raises(ValueError):
        lifted[0] = 1


def test_wide_blocks_are_stored_in_int32():
    # 2**17 block codes no longer fit uint16
    lifted, _ = algebras._lifted_table(2, 1, (1, 0), 17)
    assert lifted.dtype == np.int32
    assert lifted[0] == (1 << 17) - 1 and lifted[-1] == 0


def test_memo_stays_within_its_byte_bound(monkeypatch):
    bound = 4096
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", bound)
    memo = algebras._lift_memo
    built_bytes = 0
    for value in range(3):
        for length in range(1, 7):
            lifted, built = algebras._lifted_table(3, 1, (value, 1, 2 - value), length)
            if built:  # only an insertion evicts
                built_bytes += lifted.nbytes
                assert memo.nbytes <= bound
                assert memo.nbytes == sum(t.nbytes for t in memo.tables.values())
    assert built_bytes > bound


def test_rebuilt_table_equals_the_evicted_one(monkeypatch):
    monkeypatch.setattr(algebras, "_LIFT_MEMO_BYTES", 2048)
    key = (2, 3, (0, 0, 0, 1, 0, 1, 1, 1), 2)
    first, _ = algebras._lifted_table(*key)
    for value in range(2):
        for length in range(1, 10):  # together about twice the bound
            algebras._lifted_table(2, 1, (value, 1 - value), length)
    assert key not in algebras._lift_memo.tables
    rebuilt, built = algebras._lifted_table(*key)
    assert built and rebuilt is not first
    assert np.array_equal(rebuilt, first) and rebuilt.dtype == first.dtype


def test_equal_algebras_share_lifted_tables():
    def majority_algebra():
        maj = OperationSymbol("maj", 3)
        table = tuple(
            sorted((a, b, c))[1] for a in range(3) for b in range(3) for c in range(3)
        )
        return FiniteAlgebra(3, {maj: table, OperationSymbol("neg", 1): (2, 1, 0)})

    generators = [(0, 1, 2, 0, 1, 2, 0), (2, 2, 1, 0, 0, 1, 1), (1, 0, 0, 2, 2, 2, 1)]
    first = generate_subpower(majority_algebra(), generators)
    second = generate_subpower(majority_algebra(), generators)
    assert second.stats.lifts_built == 0
    assert second.stats.lifts_reused == first.stats.lifts_built + first.stats.lifts_reused
    assert second.stats.lifts_reused > 0
    assert second.member_list == first.member_list
    assert second.stats == first.stats
