"""Connection identifiers, IPv4/Ethernet/VLAN parsing and pcap I/O."""

from repro.net.flow import PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.parse import (
    ParseError,
    build_ethernet,
    build_ipv4,
    parse_ethernet,
    parse_ipv4,
    try_parse_ethernet,
)
from repro.net.pcap import PcapError, PcapPacket, read_pcap, write_pcap

__all__ = [
    "FiveTuple",
    "PROTO_TCP",
    "PROTO_UDP",
    "ParseError",
    "parse_ethernet",
    "parse_ipv4",
    "try_parse_ethernet",
    "build_ethernet",
    "build_ipv4",
    "PcapError",
    "PcapPacket",
    "read_pcap",
    "write_pcap",
]
