"""Tests for the CP command format and mailbox area."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CPProtocolError
from repro.nvmc.cp import CPAck, CPArea, CPCommand, Opcode, Phase


class TestEncoding:
    def test_round_trip(self):
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                        dram_slot=12345, nand_page=999_999)
        assert CPCommand.decode(cmd.encode()) == cmd

    def test_word_is_64_bits(self):
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK,
                        dram_slot=(1 << 28) - 1, nand_page=(1 << 28) - 1)
        assert cmd.encode() < (1 << 64)

    def test_field_overflow_rejected(self):
        with pytest.raises(CPProtocolError):
            CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                      dram_slot=1 << 28).encode()
        with pytest.raises(CPProtocolError):
            CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                      nand_page=1 << 28).encode()

    def test_unknown_opcode_rejected_on_decode(self):
        with pytest.raises(CPProtocolError):
            CPCommand.decode(0xF << 56)

    @pytest.mark.parametrize("nibble", [2, 7, 0xF])
    def test_malformed_command_phase_rejected_on_decode(self, nibble):
        with pytest.raises(CPProtocolError, match=f"unknown phase {nibble}"):
            CPCommand.decode(nibble << 60)

    @pytest.mark.parametrize("nibble", [2, 7, 0xF])
    def test_malformed_ack_phase_rejected_on_decode(self, nibble):
        with pytest.raises(CPProtocolError, match=f"unknown phase {nibble}"):
            CPAck.decode((nibble << 4) | CPAck.OK)

    def test_malformed_ack_word_rejected_on_poll(self):
        area = CPArea()
        area.publish_ack(0, 0x25)
        with pytest.raises(CPProtocolError, match="unknown phase 2"):
            area.poll_ack(0, Phase.ODD)

    def test_polled_acks_equal_decoded_words(self):
        area = CPArea()
        for phase in Phase:
            for status in range(16):
                area.ack(0, CPAck(phase=phase, status=status))
                ack = area.poll_ack(0, phase)
                assert ack == CPAck.decode((phase << 4) | status)
                assert (ack.phase, ack.status) == (phase, status)

    @given(st.sampled_from(list(Opcode)), st.integers(0, (1 << 28) - 1),
           st.integers(0, (1 << 28) - 1))
    def test_round_trip_property(self, opcode, slot, page):
        cmd = CPCommand(phase=Phase.EVEN, opcode=opcode,
                        dram_slot=slot, nand_page=page)
        decoded = CPCommand.decode(cmd.encode())
        assert (decoded.opcode, decoded.dram_slot, decoded.nand_page) == (
            opcode, slot, page)

    def test_ack_round_trip(self):
        ack = CPAck(phase=Phase.ODD, status=CPAck.MEDIA_ERROR)
        assert CPAck.decode(ack.encode()) == ack


class TestCPArea:
    def test_post_then_poll(self):
        area = CPArea()
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                        dram_slot=1, nand_page=2)
        area.post(0, cmd)
        assert area.poll_command(0, last_phase=None) == cmd

    def test_same_phase_is_not_a_new_command(self):
        area = CPArea()
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL)
        area.post(0, cmd)
        assert area.poll_command(0, last_phase=Phase.ODD) is None

    def test_phase_must_toggle_between_posts(self):
        area = CPArea()
        area.post(0, CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL))
        with pytest.raises(CPProtocolError):
            area.post(0, CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK))
        area.post(0, CPCommand(phase=Phase.EVEN, opcode=Opcode.WRITEBACK))

    def test_ack_flow(self):
        area = CPArea()
        area.post(0, CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL))
        assert area.poll_ack(0, Phase.ODD) is None
        area.ack(0, CPAck(phase=Phase.ODD))
        ack = area.poll_ack(0, Phase.ODD)
        assert ack is not None and ack.status == CPAck.OK

    def test_stale_ack_not_returned(self):
        area = CPArea()
        area.ack(0, CPAck(phase=Phase.ODD))
        assert area.poll_ack(0, Phase.EVEN) is None

    def test_empty_area_polls_none(self):
        area = CPArea()
        assert area.poll_command(0, last_phase=None) is None
        assert area.poll_ack(0, Phase.ODD) is None

    def test_queue_depth_bounds(self):
        area = CPArea(queue_depth=4)
        for slot in range(4):
            area.post(slot, CPCommand(phase=Phase.ODD,
                                      opcode=Opcode.CACHEFILL,
                                      dram_slot=slot))
        with pytest.raises(CPProtocolError):
            area.post(4, CPCommand(phase=Phase.ODD, opcode=Opcode.NOP))

    def test_depth_limited_by_4kb_area(self):
        # 4 KB / 64 B = 64 cachelines; half commands, half acks.
        CPArea(queue_depth=32)
        with pytest.raises(CPProtocolError):
            CPArea(queue_depth=33)
        with pytest.raises(CPProtocolError):
            CPArea(queue_depth=0)
