"""Unit tests for the network fabric, latency models, partitions and the
reliable FIFO transport."""

import random

import pytest

from repro.net.faults import LinkFaultModel
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    JitteredLatency,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.network import Network, NetworkConfig
from repro.net.partitions import PartitionManager
from repro.net.simulator import Simulator
from repro.net.transport import FifoViolationError, Transport


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
def test_constant_latency():
    model = ConstantLatency(2.5)
    rng = random.Random(0)
    assert model.sample(rng, "a", "b") == 2.5


@pytest.mark.parametrize(
    "model",
    [
        UniformLatency(0.5, 1.5),
        ExponentialLatency(mean=1.0, floor=0.1),
        LogNormalLatency(median=1.0, sigma=0.4),
        JitteredLatency(base_low=0.5, base_high=2.0, jitter=0.3),
    ],
)
def test_latency_models_non_negative(model):
    rng = random.Random(3)
    samples = [model.sample(rng, "a", "b") for _ in range(200)]
    assert all(sample >= 0 for sample in samples)
    assert model.describe()


def test_uniform_latency_bounds():
    model = UniformLatency(1.0, 2.0)
    rng = random.Random(1)
    samples = [model.sample(rng, "a", "b") for _ in range(100)]
    assert all(1.0 <= sample <= 2.0 for sample in samples)


def test_uniform_latency_invalid_bounds():
    with pytest.raises(ValueError):
        UniformLatency(2.0, 1.0)


def test_jittered_latency_stable_base_per_pair():
    model = JitteredLatency(jitter=0.0)
    rng = random.Random(0)
    first = model.sample(rng, "a", "b")
    second = model.sample(rng, "a", "b")
    assert first == second
    assert model.sample(rng, "b", "a") != first or True  # may coincide, just no error


# ----------------------------------------------------------------------
# Partition manager
# ----------------------------------------------------------------------
def test_partition_manager_default_connected():
    manager = PartitionManager(["a", "b", "c"])
    assert manager.can_communicate("a", "b")
    assert not manager.partitioned


def test_partition_splits_components():
    manager = PartitionManager(["a", "b", "c", "d"])
    manager.partition([["a", "b"], ["c", "d"]])
    assert manager.can_communicate("a", "b")
    assert not manager.can_communicate("a", "c")
    assert manager.partitioned
    assert len(manager.components()) == 2


def test_partition_leftover_nodes_form_component():
    manager = PartitionManager(["a", "b", "c", "d"])
    manager.partition([["a"]])
    assert not manager.can_communicate("a", "b")
    assert manager.can_communicate("b", "c")


def test_partition_heal():
    manager = PartitionManager(["a", "b"])
    manager.partition([["a"], ["b"]])
    manager.heal()
    assert manager.can_communicate("a", "b")
    assert manager.history


def test_isolate_single_node():
    manager = PartitionManager(["a", "b", "c"])
    manager.isolate("b")
    assert not manager.can_communicate("a", "b")
    assert manager.can_communicate("a", "c")


def test_partition_rejects_duplicate_membership():
    manager = PartitionManager(["a", "b"])
    with pytest.raises(ValueError):
        manager.partition([["a"], ["a", "b"]])


def test_partition_listing_every_node_puts_late_nodes_in_a_final_component():
    manager = PartitionManager(["a", "b", "c"])
    manager.partition([["a"], ["b", "c"]])
    manager.register("late")
    # No listed node is implicit, so the late node is alone in the final
    # component rather than joining the last listed one.
    assert not manager.can_communicate("late", "b")
    assert not manager.can_communicate("late", "a")
    assert not manager.can_communicate("unknown", "c")
    assert manager.can_communicate("late", "unknown")
    assert manager.component_of("late") == 2
    assert manager.components() == [{"a"}, {"b", "c"}, {"late"}]


def test_partition_with_leftover_nodes_puts_late_nodes_with_the_leftovers():
    manager = PartitionManager(["a", "b", "c", "d"])
    manager.partition([["a"], ["b"]])
    manager.register("late")
    assert manager.can_communicate("late", "c")
    assert manager.can_communicate("late", "d")
    assert not manager.can_communicate("late", "a")
    assert not manager.can_communicate("late", "b")
    assert manager.component_of("late") == manager.component_of("c") == 2
    manager.heal()
    assert manager.can_communicate("late", "a")
    assert not manager.partitioned


def test_self_communication_always_possible():
    manager = PartitionManager(["a", "b"])
    manager.partition([["a"], ["b"]])
    assert manager.can_communicate("a", "a")


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
def _make_network(latency=None):
    sim = Simulator(seed=1)
    config = NetworkConfig(latency_model=latency or ConstantLatency(1.0))
    return sim, Network(sim, config)


def test_network_delivers_messages():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda src, payload: None)
    network.attach("b", lambda src, payload: received.append((src, payload)))
    assert network.send("a", "b", "hello", size_bytes=10)
    sim.run()
    assert received == [("a", "hello")]
    assert network.stats.messages_delivered == 1
    assert network.stats.bytes_delivered == 10


def test_network_drops_to_crashed_node():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda src, payload: None)
    network.attach("b", lambda src, payload: received.append(payload))
    network.crash("b")
    assert not network.send("a", "b", "x")
    sim.run()
    assert received == []
    assert network.stats.messages_dropped_crash >= 1


def test_network_drops_from_crashed_sender():
    sim, network = _make_network()
    network.attach("a", lambda src, payload: None)
    network.attach("b", lambda src, payload: None)
    network.crash("a")
    assert not network.send("a", "b", "x")


def test_network_partition_drops_at_send():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda src, payload: None)
    network.attach("b", lambda src, payload: received.append(payload))
    network.partitions.partition([["a"], ["b"]])
    assert not network.send("a", "b", "x")
    sim.run()
    assert received == []


def test_network_partition_drops_in_flight():
    sim, network = _make_network(ConstantLatency(5.0))
    received = []
    network.attach("a", lambda src, payload: None)
    network.attach("b", lambda src, payload: received.append(payload))
    assert network.send("a", "b", "x")
    # Partition before the delivery time of the in-flight message.
    sim.schedule(1.0, network.partitions.partition, [["a"], ["b"]])
    sim.run()
    assert received == []
    assert network.stats.messages_dropped_partition == 1


def test_network_filter_drops_selected_messages():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda src, payload: None)
    network.attach("b", lambda src, payload: received.append(payload))
    network.add_filter(lambda src, dst, payload: payload != "drop-me")
    network.send("a", "b", "keep")
    network.send("a", "b", "drop-me")
    sim.run()
    assert received == ["keep"]
    assert network.stats.messages_dropped_filter == 1


def test_network_multicast_counts_accepted():
    sim, network = _make_network()
    for node in ("a", "b", "c", "d"):
        network.attach(node, lambda src, payload: None)
    network.crash("d")
    accepted = network.multicast("a", ["b", "c", "d"], "x")
    assert accepted == 2


def test_network_attach_needs_a_callback():
    _, network = _make_network()
    with pytest.raises(ValueError):
        network.attach("a")


def test_network_batch_only_node_receives_triples():
    sim, network = _make_network()
    batches = []
    network.attach("a", lambda src, payload: None)
    network.attach("b", deliver_batch=batches.append)
    network.send("a", "b", "x", size_bytes=3)
    network.send("a", "b", "y", size_bytes=4)
    sim.run()
    assert [message for batch in batches for message in batch] == [
        ("a", "x", 3),
        ("a", "y", 4),
    ]
    assert network.stats.bytes_delivered == 7


def test_network_duplicate_attach_rejected():
    _, network = _make_network()
    network.attach("a", lambda src, payload: None)
    with pytest.raises(ValueError):
        network.attach("a", lambda src, payload: None)


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def test_transport_fifo_per_channel_with_random_latency():
    sim = Simulator(seed=9)
    network = Network(sim, NetworkConfig(latency_model=UniformLatency(0.1, 5.0)))
    transport = Transport(network)
    sender = transport.endpoint("s")
    receiver = transport.endpoint("r")
    received = []
    receiver.register_handler("data", lambda msg: received.append(msg.payload))
    for i in range(50):
        sender.send("r", i, channel="data")
    sim.run()
    assert received == list(range(50))


def test_transport_channels_are_independent_streams():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    sender = transport.endpoint("s")
    receiver = transport.endpoint("r")
    seen = {"a": [], "b": []}
    receiver.register_handler("a", lambda msg: seen["a"].append(msg.payload))
    receiver.register_handler("b", lambda msg: seen["b"].append(msg.payload))
    sender.send("r", 1, channel="a")
    sender.send("r", 2, channel="b")
    sim.run()
    assert seen == {"a": [1], "b": [2]}


def test_transport_crashed_endpoint_stops_sending_and_receiving():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    a = transport.endpoint("a")
    b = transport.endpoint("b")
    received = []
    b.register_default_handler(lambda msg: received.append(msg.payload))
    a.send("b", "before")
    sim.run()
    b.crash()
    a.send("b", "after")
    sim.run()
    assert received == ["before"]
    assert not b.send("a", "from-crashed")


def test_transport_stats_track_channels():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    a = transport.endpoint("a")
    b = transport.endpoint("b")
    b.register_default_handler(lambda msg: None)
    a.send("b", "x", channel="data", size_bytes=5)
    a.send("b", "y", channel="ctl", size_bytes=7)
    sim.run()
    assert a.stats.per_channel_sent == {"data": 1, "ctl": 1}
    assert b.stats.per_channel_received == {"data": 1, "ctl": 1}
    assert a.stats.bytes_sent == 12


def test_transport_endpoint_reused_for_same_node():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig())
    transport = Transport(network)
    first = transport.endpoint("a")
    second = transport.endpoint("a")
    assert first is second
    assert transport.get("a") is first
    assert transport.get("missing") is None


def test_transport_rejects_out_of_order_frames_without_a_fault_model():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    sender = transport.endpoint("s")
    transport.endpoint("r").register_default_handler(lambda msg: None)
    sender.send("r", "first")
    sim.run()
    # Reuse a sequence number: a FIFO substrate must never deliver that.
    sender._next_outgoing[("r", "data")] = 0
    sender.send("r", "again")
    with pytest.raises(FifoViolationError):
        sim.run()


# ----------------------------------------------------------------------
# Fan-out: one multicast call == one send per destination
# ----------------------------------------------------------------------
class _DropLog:
    """Journey stub: records every wire drop the network reports."""

    def __init__(self):
        self.drops = []

    def wire_dropped(self, payload, now, reason):
        self.drops.append((payload.src, payload.dst, payload.seqno, now, reason))


def _fanout_run(use_multicast):
    """Same-seed traffic through every drop path, sent either as one
    ``multicast`` per fan-out or as a loop of ``send``."""
    drops = _DropLog()
    sim = Simulator(seed=17, journeys=drops)
    faults = LinkFaultModel(drop=0.1, reorder=0.2, duplicate=0.2, seed=3)
    network = Network(
        sim, NetworkConfig(latency_model=UniformLatency(0.5, 1.5), link_faults=faults)
    )
    transport = Transport(network)
    nodes = [f"n{index}" for index in range(7)]
    endpoints = {node: transport.endpoint(node) for node in nodes}
    arrivals = []
    for node in nodes:
        endpoints[node].register_handler(
            "data",
            lambda msg, node=node: arrivals.append(
                (node, msg.src, msg.seqno, msg.payload, msg.sent_at, sim.now)
            ),
        )
    accepted = []

    def transmit(sender, dsts, payload):
        endpoint = endpoints[sender]
        if use_multicast:
            accepted.append(endpoint.multicast(dsts, payload, size_bytes=10))
        else:
            accepted.append(sum(endpoint.send(dst, payload, size_bytes=10) for dst in dsts))

    def fan_out(round_index):
        for sender in nodes[:4]:
            dsts = [node for node in nodes if node != sender]
            transmit(sender, dsts, (sender, round_index))
        # A fan-out to nobody (a singleton view) must count nothing.
        transmit("n4", [], ("n4", round_index))

    for round_index in range(30):
        sim.schedule(0.25 * round_index, fan_out, round_index)
    # A crashed destination from the start; a partition (dropping at send
    # and in flight) from t=2 to t=4; a partial-crash filter from t=3.
    network.crash("n6")
    sim.schedule(2.0, network.partitions.partition, [["n0", "n1", "n2"]])
    sim.schedule(4.0, network.partitions.heal)
    sim.schedule(
        3.0,
        network.add_filter,
        lambda src, dst, payload: src != "n1" or dst in ("n0", "n2"),
    )
    sim.run()
    return {
        "accepted": accepted,
        "arrivals": arrivals,
        "drops": drops.drops,
        "network": network.stats.snapshot(),
        "transport": [endpoints[node].stats for node in nodes],
        "seqnos": [sorted(endpoints[node]._next_outgoing.items()) for node in nodes],
        "rng": sim.rng.getstate(),
        "now": sim.now,
    }


def test_transport_multicast_matches_a_loop_of_sends():
    fanned = _fanout_run(use_multicast=True)
    looped = _fanout_run(use_multicast=False)
    assert fanned == looped
    # Every drop path was exercised.
    reasons = {drop[-1] for drop in fanned["drops"]}
    assert reasons >= {
        "receiver_crashed", "partition", "partition_in_flight", "filter", "link_fault"
    }
    assert fanned["network"]["messages_reordered"] > 0
    assert fanned["network"]["messages_duplicated"] > 0
    assert sum(stats.duplicates_suppressed for stats in fanned["transport"]) > 0
    assert fanned["arrivals"]
