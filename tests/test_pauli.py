import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfqec.pauli import PauliOperator
from statevector import pauli_matrix

labels = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.sampled_from("+-"),
        st.text(alphabet="IXYZ", min_size=n, max_size=n),
    ).map(lambda t: t[0] + t[1])
)


def test_from_label_roundtrip():
    p = PauliOperator.from_label("-XIYZ")
    assert p.label() == "-XIYZ"
    assert p.sign == -1


def test_single_and_support_constructors():
    p = PauliOperator.single(4, 2, "Y")
    assert p.label() == "+IIYI"
    q = PauliOperator.on_support(5, (0, 2, 4), "Z")
    assert q.label() == "+ZIZIZ"


def test_identity():
    p = PauliOperator.identity(3)
    assert p.label() == "+III"


def test_bad_inputs():
    with pytest.raises(ValueError):
        PauliOperator.from_label("+XQ")
    with pytest.raises(ValueError):
        PauliOperator(np.zeros(3), np.zeros(3), sign=2)


@given(labels, labels)
@settings(max_examples=300, deadline=None)
def test_commutes_with_matches_matrices(a, b):
    pa = PauliOperator.from_label(a)
    pb = PauliOperator.from_label(b)
    if pa.n != pb.n:
        return
    ma, mb = pauli_matrix(pa), pauli_matrix(pb)
    commute = np.allclose(ma @ mb, mb @ ma)
    assert pa.commutes_with(pb) == commute
