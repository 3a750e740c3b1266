"""IPv6 flow identifier and parser tests."""

import pytest

from repro.core import make_jet
from repro.net.flow import PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.parse import ParseError
from tests.ipv6_reference import FiveTuple6, build_ipv6, parse_ipv6

FT6 = FiveTuple6.make("2001:db8::1", "2001:db8::2", 50000, 443, PROTO_TCP)
FT6_UDP = FiveTuple6.make("fe80::1", "2001:db8::53", 5353, 53, PROTO_UDP)


class TestFiveTuple6:
    def test_make_from_strings(self):
        assert FT6.src_port == 50000
        assert FT6.protocol == PROTO_TCP

    def test_validation(self):
        with pytest.raises(ValueError):
            FiveTuple6(2**128, 0, 1, 2)
        with pytest.raises(ValueError):
            FiveTuple6(1, 2, 70000, 2)

    def test_encoding_is_37_bytes(self):
        assert len(FT6.encode()) == 37

    def test_key_distinct_from_v4(self):
        # A v4 tuple with "the same" numeric fields must not collide.
        v4 = FiveTuple(1, 2, 50000, 443, PROTO_TCP)
        v6 = FiveTuple6(1, 2, 50000, 443, PROTO_TCP)
        assert v4.key64 != v6.key64

    def test_distinct_addresses_distinct_keys(self):
        keys = {
            FiveTuple6.make(f"2001:db8::{i:x}", "2001:db8::ffff", 1000 + i, 443).key64
            for i in range(1, 500)
        }
        assert len(keys) == 499

    def test_str_rendering(self):
        assert "[2001:db8::1]:50000" in str(FT6)

    def test_dispatches_through_jet(self):
        lb = make_jet("hrw", ["a", "b", "c"], ["d"])
        destination = lb.get_destination(FT6.key64)
        assert destination in lb.working
        assert lb.get_destination(FT6.key64) == destination


class TestParseIPv6:
    @pytest.mark.parametrize("ft", [FT6, FT6_UDP])
    def test_roundtrip(self, ft):
        assert parse_ipv6(build_ipv6(ft)) == ft

    def test_payload_ignored(self):
        assert parse_ipv6(build_ipv6(FT6, b"data" * 50)) == FT6

    def test_extension_header_chain(self):
        # Insert a destination-options header before TCP.
        packet = bytearray(build_ipv6(FT6))
        l4 = bytes(packet[40:])
        ext = bytes([packet[6], 0]) + b"\x00" * 6  # next=TCP, len 8 bytes
        packet[6] = 60  # destination options first
        rebuilt = bytes(packet[:40]) + ext + l4
        assert parse_ipv6(rebuilt) == FT6

    def test_first_fragment_parses(self):
        packet = bytearray(build_ipv6(FT6))
        l4 = bytes(packet[40:])
        frag = bytes([packet[6], 0, 0, 0, 0, 0, 0, 1])  # offset 0
        packet[6] = 44
        assert parse_ipv6(bytes(packet[:40]) + frag + l4) == FT6

    def test_later_fragment_rejected(self):
        packet = bytearray(build_ipv6(FT6))
        l4 = bytes(packet[40:])
        frag = bytes([packet[6], 0]) + (8 << 3).to_bytes(2, "big") + b"\x00" * 4
        packet[6] = 44
        with pytest.raises(ParseError):
            parse_ipv6(bytes(packet[:40]) + frag + l4)

    def test_version_mismatch(self):
        packet = bytearray(build_ipv6(FT6))
        packet[0] = 0x45
        with pytest.raises(ParseError):
            parse_ipv6(bytes(packet))

    def test_short_packet(self):
        with pytest.raises(ParseError):
            parse_ipv6(b"\x60" + b"\x00" * 10)

    def test_unsupported_next_header(self):
        packet = bytearray(build_ipv6(FT6))
        packet[6] = 58  # ICMPv6
        with pytest.raises(ParseError):
            parse_ipv6(bytes(packet))
