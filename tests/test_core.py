import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcplace.core import (ConfigurationMatrix, ServiceInstance, Window,
                           feasible_sequences, validate_configuration)


def test_window_bounds():
    w = Window(3, 4)
    assert w.end == 6
    assert list(w.slots) == [3, 4, 5, 6]
    assert w.index_of(3) == 0
    assert w.index_of(6) == 3
    with pytest.raises(IndexError):
        w.index_of(7)
    with pytest.raises(ValueError):
        Window(1, 0)
    with pytest.raises(ValueError):
        Window(0, 2)


def test_instance_validation():
    with pytest.raises(ValueError):
        ServiceInstance(id=0, arrival_slot=1)
    with pytest.raises(ValueError):
        ServiceInstance(id=1, arrival_slot=5, actual_departure_slot=4)
    with pytest.raises(ValueError):
        ServiceInstance(id=1, arrival_slot=1, max_lifetime=0)
    with pytest.raises(ValueError):
        ServiceInstance(id=1, arrival_slot=0)      # slots count from 1


def test_active_span_truncation():
    w = Window(1, 5)
    inst = ServiceInstance(id=1, arrival_slot=2, max_lifetime=10)
    assert inst.active_span(w) == (2, 5)
    inst = ServiceInstance(id=1, arrival_slot=2, max_lifetime=2)
    assert inst.active_span(w) == (2, 3)
    # actual departure truncates further than the declared lifetime
    inst = ServiceInstance(id=1, arrival_slot=2, max_lifetime=10,
                           actual_departure_slot=3)
    assert inst.active_span(w) == (2, 3)
    inst = ServiceInstance(id=1, arrival_slot=9)
    assert inst.active_span(w) is None


def test_matrix_column_isolation():
    w = Window(1, 3)
    m = ConfigurationMatrix(w, [1, 2])
    m.set_column(1, [1, 1, 2])
    assert m.column(2).tolist() == [0, 0, 0]
    m.set(2, 2, 3)
    assert m.column(1).tolist() == [1, 1, 2]
    assert m.slot_state(2) == (1, 3)
    m.zero_after(1, 1)
    assert m.column(1).tolist() == [1, 0, 0]


def test_validate_configuration_catches_gap():
    w = Window(1, 4)
    inst = ServiceInstance(id=1, arrival_slot=1)
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [1, 0, 1, 0])
    v = validate_configuration(m, [inst])
    assert v is not None and v.instance_id == 1


def test_validate_configuration_span():
    w = Window(1, 4)
    inst = ServiceInstance(id=1, arrival_slot=3)
    m = ConfigurationMatrix(w, [1])
    m.set_column(1, [0, 1, 1, 0])
    v = validate_configuration(m, [inst])
    assert v is not None and v.slot == 2
    m.set_column(1, [0, 0, 1, 1])
    assert validate_configuration(m, [inst]) is None


@given(K=st.integers(1, 4), T=st.integers(1, 4),
       arrival=st.integers(1, 6), life=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_feasible_sequences_count(K, T, arrival, life):
    """|Lambda| = K^(span length); the enumeration oracle is the count."""
    w = Window(1, T)
    inst = ServiceInstance(id=1, arrival_slot=arrival, max_lifetime=life)
    seqs = feasible_sequences(inst, w, K)
    span = inst.active_span(w)
    expect = 1 if span is None else K ** (span[1] - span[0] + 1)
    assert len(seqs) == expect
    assert len(set(seqs)) == len(seqs)
    for seq in seqs:
        nz = [q for q, v in enumerate(seq) if v]
        if span is None:
            assert not nz
        else:
            assert nz == list(range(w.index_of(span[0]), w.index_of(span[1]) + 1))
            assert all(1 <= seq[q] <= K for q in nz)
