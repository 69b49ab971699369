"""Code-definition validation: stabilizer structure, commutation, and
the built-in three-qubit repetition and distance-3 surface codes."""

import numpy as np
import pytest

from mfqec.circuits import CIRCUITS
from mfqec.codes import (
    BIT_FLIP_CODE,
    CODES,
    SURFACE17_CODE,
    UNENCODED,
    CodeSpec,
    _f2_rank,
)


class TestF2Rank:
    def test_identity(self):
        assert _f2_rank(np.eye(4, dtype=np.uint8)) == 4

    def test_dependent_rows(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], np.uint8)
        assert _f2_rank(m) == 2  # third row = sum of first two

    def test_zero(self):
        assert _f2_rank(np.zeros((3, 5), np.uint8)) == 0


class TestBitFlipCode:
    def test_shape(self):
        assert BIT_FLIP_CODE.n_data == 3
        assert BIT_FLIP_CODE.z_stabilizers == ((0, 1), (1, 2))
        assert BIT_FLIP_CODE.x_stabilizers == ()
        assert BIT_FLIP_CODE.logical_z == (0, 1, 2)

    def test_logical_anticommute(self):
        zl = BIT_FLIP_CODE.logical_z_pauli()
        xl = BIT_FLIP_CODE.logical_x_pauli()
        assert not zl.commutes_with(xl)

    def test_generators_commute_with_logical_z(self):
        zl = BIT_FLIP_CODE.logical_z_pauli()
        for g in BIT_FLIP_CODE.generators():
            assert g.commutes_with(zl)


class TestSurface17Code:
    def test_shape(self):
        assert SURFACE17_CODE.n_data == 9
        assert len(SURFACE17_CODE.z_stabilizers) == 4
        assert len(SURFACE17_CODE.x_stabilizers) == 4
        assert len(SURFACE17_CODE.generators()) == 8

    def test_weights(self):
        weights = sorted(
            len(s)
            for s in SURFACE17_CODE.z_stabilizers + SURFACE17_CODE.x_stabilizers
        )
        assert weights == [2, 2, 2, 2, 4, 4, 4, 4]

    def test_all_generators_commute(self):
        gens = SURFACE17_CODE.generators()
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                assert a.commutes_with(b)

    def test_logicals(self):
        zl = SURFACE17_CODE.logical_z_pauli()
        xl = SURFACE17_CODE.logical_x_pauli()
        assert not zl.commutes_with(xl)
        for g in SURFACE17_CODE.generators():
            assert g.commutes_with(zl)
            assert g.commutes_with(xl)

    def test_distance_three_logical_weight(self):
        assert len(SURFACE17_CODE.logical_z) == 3
        assert len(SURFACE17_CODE.logical_x) == 3

    def test_generators_padded_to_total(self):
        gens = SURFACE17_CODE.generators(29)
        assert all(g.n == 29 for g in gens)


class TestUnencoded:
    def test_trivial(self):
        assert UNENCODED.n_data == 1
        assert list(UNENCODED.generators()) == []

    def test_logicals_are_bare_paulis(self):
        assert UNENCODED.logical_z_pauli().label() == "+Z"
        assert UNENCODED.logical_x_pauli().label() == "+X"


class TestRegistry:
    def test_codes_by_name(self):
        assert CODES["bf"] is BIT_FLIP_CODE
        assert CODES["surface17"] is SURFACE17_CODE
        assert CODES["unencoded"] is UNENCODED

    def test_every_code_has_circuits(self):
        assert set(CIRCUITS) == set(CODES)


class TestValidation:
    def test_rejects_anticommuting_stabilizers(self):
        with pytest.raises(ValueError):
            CodeSpec(
                name="bad",
                n_data=2,
                z_stabilizers=((0,),),
                x_stabilizers=((0,),),  # Z0 and X0 anticommute
                logical_x=(1,),
                logical_z=(1,),
            )

    def test_rejects_commuting_logicals(self):
        with pytest.raises(ValueError):
            CodeSpec(
                name="bad",
                n_data=3,
                z_stabilizers=((0, 1), (1, 2)),
                x_stabilizers=(),
                logical_x=(0, 1),  # overlap with logical_z is even
                logical_z=(0, 1),
            )

    def test_rejects_dependent_generators(self):
        with pytest.raises(ValueError):
            CodeSpec(
                name="bad",
                n_data=4,
                z_stabilizers=((0, 1), (1, 2), (0, 2)),  # sum of first two
                x_stabilizers=(),
                logical_x=(0, 1, 2, 3),
                logical_z=(3,),
            )

    def test_rejects_out_of_range_support(self):
        with pytest.raises(ValueError):
            CodeSpec(
                name="bad",
                n_data=2,
                z_stabilizers=((0, 5),),
                x_stabilizers=(),
                logical_x=(0, 1),
                logical_z=(0,),
            )

    def test_rejects_wrong_logical_count(self):
        with pytest.raises(ValueError):
            CodeSpec(
                name="bad",
                n_data=3,
                z_stabilizers=((0, 1),),  # leaves 2 logical qubits
                x_stabilizers=(),
                logical_x=(0, 1, 2),
                logical_z=(2,),
            )
