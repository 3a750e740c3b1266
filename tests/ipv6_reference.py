"""An IPv6 5-tuple, ``parse_ipv6`` and ``build_ipv6``, kept as a test fixture.

No trace reader or command parses IPv6 (``traces.from_pcap`` counts IPv6
frames as skipped), so this lives beside the tests that hold it: the
37-byte encoding keeps v4 and v6 keys apart, and the parser walks the
skippable extension headers (hop-by-hop, routing, destination options)
to the first TCP/UDP header, refusing later fragments.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Union

from repro.hashing.xxh import xxhash64
from repro.net.flow import PROTO_TCP, PROTO_UDP, _PROTO_NAMES
from repro.net.parse import ParseError


def _to_ip6_int(address: Union[str, int]) -> int:
    """Normalize an IPv6 address (string or int) to a uint128."""
    if isinstance(address, int):
        if not 0 <= address < 2**128:
            raise ValueError(f"IPv6 address out of range: {address}")
        return address
    return int(ipaddress.IPv6Address(address))


@dataclass(frozen=True)
class FiveTuple6:
    """An immutable TCP/UDP-over-IPv6 connection identifier."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = PROTO_TCP

    def __post_init__(self):
        for ip in (self.src_ip, self.dst_ip):
            if not 0 <= ip < 2**128:
                raise ValueError(f"IPv6 address out of range: {ip}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port < 65536:
                raise ValueError(f"port out of range: {port}")
        if not 0 <= self.protocol < 256:
            raise ValueError(f"protocol out of range: {self.protocol}")

    @classmethod
    def make(
        cls,
        src_ip: Union[str, int],
        dst_ip: Union[str, int],
        src_port: int,
        dst_port: int,
        protocol: int = PROTO_TCP,
    ) -> "FiveTuple6":
        return cls(_to_ip6_int(src_ip), _to_ip6_int(dst_ip), src_port, dst_port, protocol)

    def encode(self) -> bytes:
        """Canonical 37-byte wire encoding (the hashing input)."""
        return (
            self.src_ip.to_bytes(16, "big")
            + self.dst_ip.to_bytes(16, "big")
            + self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.protocol.to_bytes(1, "big")
        )

    @property
    def key64(self) -> int:
        """64-bit connection key (xxHash64 of the canonical encoding)."""
        return xxhash64(self.encode())

    def __str__(self) -> str:
        proto = _PROTO_NAMES.get(self.protocol, str(self.protocol))
        return (
            f"[{ipaddress.IPv6Address(self.src_ip)}]:{self.src_port} -> "
            f"[{ipaddress.IPv6Address(self.dst_ip)}]:{self.dst_port}/{proto}"
        )


_FIXED_HEADER = 40

# Extension headers a transit parser can skip: hop-by-hop (0),
# routing (43), destination options (60).  Fragment (44) ends parsing
# unless offset 0.
_SKIPPABLE = {0, 43, 60}
_FRAGMENT = 44


def parse_ipv6(packet: bytes) -> FiveTuple6:
    """Parse an IPv6 packet carrying TCP or UDP down to its 5-tuple."""
    if len(packet) < _FIXED_HEADER:
        raise ParseError("packet shorter than an IPv6 header")
    version = packet[0] >> 4
    if version != 6:
        raise ParseError(f"not IPv6 (version={version})")
    src_ip = int.from_bytes(packet[8:24], "big")
    dst_ip = int.from_bytes(packet[24:40], "big")

    next_header = packet[6]
    offset = _FIXED_HEADER
    for _ in range(8):  # bounded extension-header chain walk
        if next_header in (PROTO_TCP, PROTO_UDP):
            break
        if next_header == _FRAGMENT:
            if len(packet) < offset + 8:
                raise ParseError("truncated fragment header")
            frag_offset = int.from_bytes(packet[offset + 2 : offset + 4], "big") >> 3
            if frag_offset != 0:
                raise ParseError("non-first IPv6 fragment has no L4 header")
            next_header = packet[offset]
            offset += 8
            continue
        if next_header in _SKIPPABLE:
            if len(packet) < offset + 8:
                raise ParseError("truncated extension header")
            length = (packet[offset + 1] + 1) * 8
            next_header = packet[offset]
            offset += length
            continue
        raise ParseError(f"unsupported IPv6 next-header {next_header}")
    else:
        raise ParseError("extension-header chain too long")

    l4 = packet[offset:]
    if len(l4) < 4:
        raise ParseError("truncated L4 header")
    return FiveTuple6(
        src_ip,
        dst_ip,
        int.from_bytes(l4[0:2], "big"),
        int.from_bytes(l4[2:4], "big"),
        next_header,
    )


def build_ipv6(five_tuple: FiveTuple6, payload: bytes = b"") -> bytes:
    """Construct a minimal valid IPv6+L4 packet for a 5-tuple."""
    l4_header_len = 20 if five_tuple.protocol == PROTO_TCP else 8
    header = bytearray(_FIXED_HEADER)
    header[0] = 0x60
    header[4:6] = (l4_header_len + len(payload)).to_bytes(2, "big")
    header[6] = five_tuple.protocol
    header[7] = 64  # hop limit
    header[8:24] = five_tuple.src_ip.to_bytes(16, "big")
    header[24:40] = five_tuple.dst_ip.to_bytes(16, "big")

    l4 = bytearray(l4_header_len)
    l4[0:2] = five_tuple.src_port.to_bytes(2, "big")
    l4[2:4] = five_tuple.dst_port.to_bytes(2, "big")
    if five_tuple.protocol == PROTO_TCP:
        l4[12] = 0x50
    else:
        l4[4:6] = (8 + len(payload)).to_bytes(2, "big")
    return bytes(header) + bytes(l4) + payload
