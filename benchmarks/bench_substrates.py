"""Micro-benchmarks of the functional substrates.

Not paper artifacts -- these measure the reproduction's own building
blocks (LPM lookups, AES, checksums, DES event throughput) so regressions
in the substrate code are visible.
"""

import random

import pytest

from repro.crypto import AES128
from repro.net import Packet, internet_checksum
from repro.routing import Dir24_8, generate_rib
from repro.routing.rib_gen import random_destinations
from repro.simnet import Link, Simulator


@pytest.fixture(scope="module")
def rib():
    return generate_rib(num_entries=20_000, seed=1)


@pytest.fixture(scope="module")
def destinations(rib):
    return random_destinations(5_000, rib, seed=2)


def test_dir24_8_lookup_throughput(benchmark, rib, destinations):
    def lookup_all():
        table = rib
        hits = 0
        for dst in destinations:
            if table.lookup(dst) is not None:
                hits += 1
        return hits

    hits = benchmark(lookup_all)
    assert hits == len(destinations)


def test_trie_lookup_throughput(benchmark, destinations):
    from repro.routing import RoutingTable
    slow = generate_rib(num_entries=2_000, seed=1,
                        table=RoutingTable(engine="trie"))
    dests = random_destinations(1_000, slow, seed=3)

    def lookup_all():
        return sum(1 for d in dests if slow.lookup(d) is not None)

    assert benchmark(lookup_all) == len(dests)


def test_dir24_8_update_throughput(benchmark):
    from repro.net.addresses import Prefix

    def churn():
        table = Dir24_8()
        rng = random.Random(0)
        prefixes = []
        for i in range(300):
            prefix = Prefix.from_address(rng.getrandbits(32),
                                         rng.randint(8, 28))
            table.insert(prefix, i + 1)
            prefixes.append(prefix)
        removed = 0
        for prefix in prefixes[:150]:
            try:
                table.remove(prefix)
                removed += 1
            except Exception:
                pass
        return removed

    assert benchmark(churn) > 100


def test_aes_block_throughput(benchmark):
    cipher = AES128(b"\x07" * 16)
    block = b"\x42" * 16

    def encrypt_many():
        out = block
        for _ in range(50):
            out = cipher.encrypt_block(out)
        return out

    out = benchmark(encrypt_many)
    # Invert to prove correctness survived the speed run.
    for _ in range(50):
        out = cipher.decrypt_block(out)
    assert out == block


def test_checksum_throughput(benchmark):
    payload = bytes(range(256)) * 6  # 1536 B

    def checksum_many():
        total = 0
        for _ in range(100):
            total ^= internet_checksum(payload)
        return total

    benchmark(checksum_many)


def test_des_event_throughput(benchmark):
    def run_sim():
        sim = Simulator()
        delivered = []
        link = Link(sim, "l", rate_bps=10e9,
                    deliver=lambda p: delivered.append(p))
        for i in range(2_000):
            sim.schedule_timer(
                i * 1e-7, lambda: link.send(Packet.udp("1.1.1.1", "2.2.2.2")))
        sim.run()
        return len(delivered)

    assert benchmark(run_sim) == 2_000


def test_fib_aggregation(benchmark):
    """ORTC-lite aggregation over a synthetic RIB: shrink + equivalence."""
    from repro.routing.aggregate import aggregate_table

    table = generate_rib(num_entries=1_500, num_ports=2, seed=8)

    def run():
        compact, stats = aggregate_table(table)
        return compact, stats

    compact, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats["aggregated_routes"] <= stats["original_routes"]
    probes = random_destinations(300, table, seed=9)
    assert all(compact.lookup(p) == table.lookup(p) for p in probes)


def test_fragmentation_throughput(benchmark):
    from repro.net.fragment import Reassembler, fragment_packet

    packet = Packet.udp("10.0.0.1", "10.0.0.2", length=14 + 20 + 2800,
                        payload=b"\x55" * 2780)

    def round_trip():
        reassembler = Reassembler()
        count = 0
        for _ in range(50):
            whole = None
            for fragment in fragment_packet(packet, mtu=1000):
                result = reassembler.offer(fragment)
                if result is not None:
                    whole = result
            count += whole is not None
        return count

    assert benchmark(round_trip) == 50


def test_fib_churn_throughput(benchmark):
    """BGP-style update stream against the DIR-24-8 FIB."""
    from repro.control import ChurnSchedule
    from repro.net.addresses import IPv4Address
    from repro.routing import Route

    def churn():
        table = generate_rib(num_entries=2_000, seed=4)
        schedule = ChurnSchedule.bursts(
            [prefix for prefix, _ in table.routes()], burst_updates=500,
            interval_sec=1.0, bursts=1, seed=5)
        for update in schedule:
            if update.is_withdrawal:
                table.remove_route(update.prefix)  # raises on a miss
            else:
                table.add_route(update.prefix, Route(
                    port=update.port, next_hop=IPv4Address(10 << 24 | 1)))
        return len(schedule)

    assert benchmark.pedantic(churn, rounds=3, iterations=1) == 500


def test_pcap_round_trip_throughput(benchmark, tmp_path):
    from repro.workloads import AbileneTrace
    from repro.workloads.pcapio import load_trace, save_trace

    path = str(tmp_path / "bench.pcap")

    def round_trip():
        trace = AbileneTrace(seed=6)
        save_trace(path, trace.timed_packets(1_000, rate_bps=10e9))
        return sum(1 for _ in load_trace(path))

    assert benchmark(round_trip) == 1_000


def test_packet_serialization_throughput(benchmark):
    def round_trip_many():
        count = 0
        for _ in range(200):
            packet = Packet.udp("10.0.0.1", "10.0.0.2", length=512)
            again = Packet.unpack(packet.pack())
            count += again.length
        return count

    assert benchmark(round_trip_many) == 200 * 512
