"""Tests for the counted global memory: data movement AND exact accounting."""

import numpy as np
import pytest

from repro.errors import AccessError, ShapeError
from repro.machine.macro.global_memory import GlobalMemory, transactions_for_run
from repro.machine.params import MachineParams


@pytest.fixture
def gm():
    return GlobalMemory(MachineParams(width=4, latency=3))


class TestTransactionsForRun:
    def test_aligned_exact(self):
        assert transactions_for_run(0, 8, 4) == 2

    def test_misaligned_straddles(self):
        assert transactions_for_run(2, 4, 4) == 2

    def test_single_word(self):
        assert transactions_for_run(5, 1, 4) == 1

    def test_zero_length(self):
        assert transactions_for_run(0, 0, 4) == 0

    def test_lower_bound_ceil(self):
        for start in range(8):
            for length in range(1, 20):
                txn = transactions_for_run(start, length, 4)
                assert txn >= -(-length // 4)
                assert txn <= -(-length // 4) + 1


class TestAllocation:
    def test_alloc_and_shape(self, gm):
        gm.alloc("A", (4, 8))
        assert gm.shape("A") == (4, 8)

    def test_install_copies(self, gm):
        src = np.ones((2, 4))
        gm.install("B", src)
        src[0, 0] = 99
        assert gm.array("B")[0, 0] == 1

    def test_install_stores_row_major(self, gm):
        src = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        gm.install("F", src)
        assert gm.array("F").flags["C_CONTIGUOUS"]
        assert np.array_equal(gm.array("F"), src)
        assert list(gm.read_drun("F", 0, 3, 3)) == [3, 6, 9]

    def test_adopt_keeps_the_array(self, gm):
        src = np.arange(8.0).reshape(2, 4)
        assert gm.adopt("B", src) is src
        assert gm.array("B") is src
        assert gm.read_hrun("B", 1, 0, 4).tolist() == [4, 5, 6, 7]

    def test_adopt_rejects_non_row_major(self, gm):
        """A drun is a strided view of the flat buffer only in C order."""
        with pytest.raises(ShapeError):
            gm.adopt("F", np.asfortranarray(np.zeros((3, 4))))
        with pytest.raises(ShapeError):
            gm.adopt("S", np.zeros((4, 8))[:, ::2])
        assert not gm.has("F") and not gm.has("S")

    def test_duplicate_name_rejected(self, gm):
        gm.alloc("A", (4, 4))
        with pytest.raises(AccessError):
            gm.alloc("A", (4, 4))

    def test_free_then_realloc(self, gm):
        gm.alloc("A", (4, 4))
        gm.free("A")
        assert not gm.has("A")
        gm.alloc("A", (8, 8))

    def test_missing_buffer(self, gm):
        with pytest.raises(AccessError):
            gm.array("missing")

    def test_3d_rejected(self, gm):
        with pytest.raises(ShapeError):
            gm.install("X", np.zeros((2, 2, 2)))

    def test_buffers_start_group_aligned(self, gm):
        gm.alloc("A", (1, 5))  # 5 words -> padded to 8
        gm.alloc("B", (1, 4))
        assert gm.linear_address("B", 0, 0) % 4 == 0


class TestCoalescedAccess:
    def test_hrun_moves_data_and_counts(self, gm):
        gm.install("A", np.arange(16.0).reshape(4, 4))
        vals = gm.read_hrun("A", 1, 0, 4)
        assert list(vals) == [4, 5, 6, 7]
        assert gm.counters.coalesced_elements == 4
        assert gm.counters.coalesced_transactions == 1
        assert gm.counters.stride_ops == 0

    def test_write_hrun(self, gm):
        gm.alloc("A", (2, 4))
        gm.write_hrun("A", 0, 0, np.array([1.0, 2, 3, 4]))
        assert list(gm.array("A")[0]) == [1, 2, 3, 4]
        assert gm.counters.coalesced_elements == 4

    def test_misaligned_hrun_charged_extra_transaction(self, gm):
        gm.alloc("A", (1, 8))
        gm.read_hrun("A", 0, 2, 4)
        assert gm.counters.coalesced_transactions == 2

    def test_block_read_write(self, gm):
        gm.install("A", np.arange(16.0).reshape(4, 4))
        blk = gm.read_block("A", 1, 0, 2, 4)
        assert blk.shape == (2, 4)
        gm.write_block("A", 0, 0, blk)
        assert np.allclose(gm.array("A")[:2], np.arange(4, 12).reshape(2, 4))

    def test_strip_equivalent_to_hruns(self, gm):
        gm.install("A", np.arange(32.0).reshape(8, 4))
        strip = gm.read_strip("A", 2, 0, 3, 4)
        assert np.allclose(strip, np.arange(8, 20).reshape(3, 4))
        assert gm.counters.coalesced_elements == 12
        assert gm.counters.coalesced_transactions == 3

    def test_strip_misaligned_row_width(self):
        # Buffer with 6 columns (not a multiple of w=4): per-row alignment differs.
        gm = GlobalMemory(MachineParams(width=4, latency=3))
        gm.alloc("A", (3, 6))
        gm.read_strip("A", 0, 0, 3, 6)
        # rows start at addresses 0, 6, 12 -> each straddles 2 groups
        assert gm.counters.coalesced_transactions == 6

    def test_write_strip(self, gm):
        gm.alloc("A", (4, 4))
        gm.write_strip("A", 1, 0, np.ones((2, 4)))
        assert gm.array("A")[1:3].sum() == 8

    def test_hrun_returns_copy(self, gm):
        gm.install("A", np.zeros((2, 4)))
        v = gm.read_hrun("A", 0, 0, 4)
        v[0] = 5
        assert gm.array("A")[0, 0] == 0

    def test_bounds(self, gm):
        gm.alloc("A", (2, 4))
        with pytest.raises(AccessError):
            gm.read_hrun("A", 0, 2, 4)
        with pytest.raises(AccessError):
            gm.read_strip("A", 1, 0, 2, 4)


class TestStrideAccess:
    def test_vrun(self, gm):
        gm.install("A", np.arange(16.0).reshape(4, 4))
        col = gm.read_vrun("A", 2, 0, 4)
        assert list(col) == [2, 6, 10, 14]
        assert gm.counters.stride_ops == 4
        assert gm.counters.coalesced_elements == 0

    def test_write_vrun(self, gm):
        gm.alloc("A", (4, 4))
        gm.write_vrun("A", 0, 1, np.array([7.0, 8, 9]))
        assert list(gm.array("A")[:, 0]) == [0, 7, 8, 9]
        assert gm.counters.stride_ops == 3

    def test_read_write_at(self, gm):
        gm.alloc("A", (2, 4))
        gm.write_at("A", 1, 2, 5.0)
        assert gm.read_at("A", 1, 2) == 5.0
        assert gm.counters.stride_ops == 2

    def test_strip_stride_counts(self, gm):
        gm.install("A", np.arange(16.0).reshape(4, 4))
        gm.read_strip_stride("A", 0, 0, 2, 4)
        assert gm.counters.stride_ops == 8
        assert gm.counters.coalesced_elements == 0

    def test_vrun_on_1d_rejected(self, gm):
        gm.alloc("V", (8,))
        with pytest.raises(AccessError):
            gm.read_vrun("V", 0, 0, 4)


class TestDiagonalRun:
    """``read_drun``/``write_drun``: ``(row + t, col - t)`` for ``t < length``."""

    def test_round_trip(self, gm):
        gm.install("A", np.arange(20.0).reshape(4, 5))
        vals = gm.read_drun("A", 0, 3, 4)  # (0,3) (1,2) (2,1) (3,0)
        assert list(vals) == [3, 7, 11, 15]
        vals[:] = -1  # a copy, not a view of the buffer
        assert gm.array("A")[0, 3] == 3
        gm.write_drun("A", 1, 4, np.array([90.0, 91, 92]))
        expected = np.arange(20.0).reshape(4, 5)
        expected[[1, 2, 3], [4, 3, 2]] = [90, 91, 92]
        assert np.array_equal(gm.array("A"), expected)

    @pytest.mark.parametrize(
        "row,col,length",
        [(-1, 3, 2), (2, 4, 3), (0, 5, 1), (0, 2, 4)],
        ids=["row-before", "row-past", "col-past", "col-before"],
    )
    def test_out_of_range_raises(self, gm, row, col, length):
        gm.alloc("A", (4, 5))
        with pytest.raises(AccessError):
            gm.read_drun("A", row, col, length)
        with pytest.raises(AccessError):
            gm.write_drun("A", row, col, np.zeros(length))
        assert gm.counters.stride_ops == 0
        assert not gm.array("A").any()

    def test_negative_length_raises(self, gm):
        gm.alloc("A", (4, 5))
        with pytest.raises(AccessError):
            gm.read_drun("A", 0, 0, -1)

    def test_every_run_matches_fancy_indexing_or_raises(self, gm):
        a = np.arange(12.0).reshape(3, 4)
        gm.install("A", a)
        for row in range(-1, 5):
            for col in range(-1, 6):
                for length in range(0, 6):
                    t = np.arange(length)
                    rows, cols = row + t, col - t
                    inside = bool(
                        ((rows >= 0) & (rows < 3) & (cols >= 0) & (cols < 4)).all()
                    )
                    if inside:
                        got = gm.read_drun("A", row, col, length)
                        assert np.array_equal(got, a[rows, cols])
                    else:
                        with pytest.raises(AccessError):
                            gm.read_drun("A", row, col, length)

    def test_one_column_buffer(self, gm):
        gm.install("C", np.arange(3.0).reshape(3, 1))
        assert list(gm.read_drun("C", 2, 0, 1)) == [2]
        gm.write_drun("C", 1, 0, np.array([7.0]))
        assert list(gm.array("C")[:, 0]) == [0, 7, 2]
        with pytest.raises(AccessError):
            gm.read_drun("C", 0, 0, 2)

    def test_two_dimensional_values_rejected(self, gm):
        gm.alloc("A", (4, 4))
        with pytest.raises(ShapeError):
            gm.write_drun("A", 0, 1, np.ones((2, 1)))

    def test_one_dimensional_buffer_rejected(self, gm):
        gm.alloc("V", (8,))
        with pytest.raises(AccessError):
            gm.read_drun("V", 0, 0, 1)
        with pytest.raises(AccessError):
            gm.write_drun("V", 0, 0, np.ones(1))

    def test_one_stride_op_per_element(self, gm):
        gm.alloc("A", (4, 4))
        gm.read_drun("A", 0, 3, 4)
        gm.write_drun("A", 1, 3, np.ones(3))
        gm.read_drun("A", 2, 2, 0)
        assert gm.counters.stride_ops == 7
        assert gm.counters.coalesced_elements == 0
        assert gm.counters.coalesced_transactions == 0

    def test_write_log_records_linear_addresses(self, gm):
        gm.alloc("pad", (3, 3))  # a nonzero base address for "A"
        gm.alloc("A", (4, 5))
        log = gm.begin_write_log()
        gm.write_drun("A", 1, 4, np.array([1.0, 2.0, 3.0]))
        gm.end_write_log()
        addresses, values = log.consolidated()
        expected = [gm.linear_address("A", 1 + t, 4 - t) for t in range(3)]
        assert list(addresses) == expected
        assert list(values) == [1.0, 2.0, 3.0]


class TestOneDimensional:
    def test_1d_hrun(self, gm):
        gm.install("V", np.arange(8.0))
        assert list(gm.read_hrun("V", 0, 2, 3)) == [2, 3, 4]

    def test_1d_hrun_nonzero_row_rejected(self, gm):
        gm.alloc("V", (8,))
        with pytest.raises(AccessError):
            gm.read_hrun("V", 1, 0, 2)
