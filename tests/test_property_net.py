"""Property-based tests for the packet-parsing layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.parse import build_ethernet, build_ipv4, parse_ethernet, parse_ipv4, try_parse_ethernet
from tests.ipv6_reference import FiveTuple6, build_ipv6, parse_ipv6

ports = st.integers(min_value=0, max_value=65535)
protocols = st.sampled_from([PROTO_TCP, PROTO_UDP])
ipv4 = st.integers(min_value=0, max_value=2**32 - 1)
ipv6 = st.integers(min_value=0, max_value=2**128 - 1)
payloads = st.binary(max_size=64)


class TestParseRoundtripProperties:
    @given(src=ipv4, dst=ipv4, sport=ports, dport=ports, proto=protocols, payload=payloads)
    @settings(max_examples=200, deadline=None)
    def test_ipv4_build_parse_identity(self, src, dst, sport, dport, proto, payload):
        ft = FiveTuple(src, dst, sport, dport, proto)
        assert parse_ipv4(build_ipv4(ft, payload)) == ft
        assert parse_ethernet(build_ethernet(ft, payload)) == ft

    @given(src=ipv6, dst=ipv6, sport=ports, dport=ports, proto=protocols, payload=payloads)
    @settings(max_examples=200, deadline=None)
    def test_ipv6_build_parse_identity(self, src, dst, sport, dport, proto, payload):
        ft = FiveTuple6(src, dst, sport, dport, proto)
        assert parse_ipv6(build_ipv6(ft, payload)) == ft

    @given(src=ipv4, dst=ipv4, sport=ports, dport=ports, proto=protocols)
    @settings(max_examples=100, deadline=None)
    def test_key64_agrees_across_representations(self, src, dst, sport, dport, proto):
        # Parsing a built frame yields a tuple with the same dispatch key.
        ft = FiveTuple(src, dst, sport, dport, proto)
        parsed = parse_ethernet(build_ethernet(ft))
        assert parsed.key64 == ft.key64

    @given(data=st.binary(max_size=100))
    @settings(max_examples=300, deadline=None)
    def test_try_parse_never_raises(self, data):
        result = try_parse_ethernet(data)
        assert result is None or isinstance(result, FiveTuple)
