"""Tests of the Ethernet hub, the transport pipeline and message timestamps."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.message import BROADCAST, Message
from repro.cluster.neko import ProtocolLayer


class _Sink(ProtocolLayer):
    """Records every delivered message."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_deliver(self, message):
        self.received.append(message)


def _cluster(config):
    cluster = Cluster(config)
    cluster.create_processes(lambda sim, pid: [_Sink(sim, f"sink{pid}")])
    cluster.start_all()
    return cluster


def _received(cluster):
    """Every message delivered to any sink, grouped by destination process."""
    return [
        message
        for process in cluster.processes
        for message in process.layer(_Sink).received
    ]


def _send(cluster, sender, destination, msg_type="data", size=100):
    message = Message(sender=sender, destination=destination, msg_type=msg_type, size_bytes=size)
    cluster.transport.send(message)
    return message


def test_unicast_is_delivered_to_its_destination_only(cluster_config):
    cluster = _cluster(cluster_config)
    _send(cluster, 0, 2)
    cluster.run(until=10.0)
    assert len(cluster.process(2).layer(_Sink).received) == 1
    assert cluster.process(1).layer(_Sink).received == []
    assert cluster.transport.messages_delivered == 1


def test_end_to_end_delay_is_positive_and_bounded(cluster_config):
    cluster = _cluster(cluster_config)
    _send(cluster, 0, 1)
    cluster.run(until=10.0)
    (message,) = _received(cluster)
    assert 0.05 < message.end_to_end_delay() < 1.0


def test_broadcast_reaches_every_other_process(cluster_config_5):
    cluster = _cluster(cluster_config_5)
    _send(cluster, 2, BROADCAST)
    cluster.run(until=10.0)
    for pid in range(5):
        received = cluster.process(pid).layer(_Sink).received
        assert len(received) == (0 if pid == 2 else 1)
    # The copies carry the original message id as parent.
    parents = {message.parent_id for message in _received(cluster)}
    assert len(parents) == 1


def test_broadcast_copies_are_staggered_by_sender_side_serialisation(cluster_config_5):
    cluster = _cluster(cluster_config_5)
    _send(cluster, 0, BROADCAST)
    cluster.run(until=10.0)
    deliveries = sorted(message.delivered_at for message in _received(cluster))
    assert len(deliveries) == 4
    assert deliveries[-1] - deliveries[0] > cluster.config.network.cpu_send_ms


def test_concurrent_senders_contend_for_the_shared_medium(cluster_config):
    config = cluster_config
    cluster = _cluster(config)
    _send(cluster, 0, 2)
    _send(cluster, 1, 2)
    cluster.run(until=10.0)
    assert cluster.hub.frames_transmitted == 2
    # Both messages also contend for the destination CPU; the second delivery
    # must be later than the first by at least the receive cost.
    times = sorted(message.delivered_at for message in _received(cluster))
    assert times[1] - times[0] >= config.network.cpu_receive_ms - 1e-9


def test_crashed_sender_sends_nothing(cluster_config):
    cluster = _cluster(cluster_config)
    cluster.crash_process(0)
    _send(cluster, 0, 1)
    cluster.run(until=10.0)
    assert cluster.transport.messages_delivered == 0
    assert cluster.transport.messages_dropped >= 1


def test_crashed_destination_drops_the_message(cluster_config):
    cluster = _cluster(cluster_config)
    cluster.crash_process(1)
    _send(cluster, 0, 1)
    cluster.run(until=10.0)
    assert cluster.process(1).layer(_Sink).received == []
    assert cluster.transport.messages_dropped >= 1


def test_larger_messages_occupy_the_wire_for_longer(cluster_config):
    cluster = _cluster(cluster_config)
    assert cluster.hub.frame_time(1000) > cluster.hub.frame_time(100)


def test_unknown_destination_is_rejected(cluster_config):
    cluster = _cluster(cluster_config)
    with pytest.raises(ValueError):
        _send(cluster, 0, 9)


def test_message_helpers():
    message = Message(sender=0, destination=BROADCAST, msg_type="x")
    assert message.is_broadcast
    copy = message.unicast_copy(2)
    assert copy.destination == 2 and copy.parent_id == message.msg_id
    assert message.end_to_end_delay() is None
    message.submitted_at, message.delivered_at = 1.0, 1.4
    assert message.end_to_end_delay() == pytest.approx(0.4)


def test_reproducibility_same_seed_same_delays():
    def run_once():
        cluster = _cluster(ClusterConfig(n_processes=3, seed=77))
        _send(cluster, 0, 1)
        _send(cluster, 2, 1)
        cluster.run(until=10.0)
        return [message.end_to_end_delay() for message in _received(cluster)]

    assert run_once() == run_once()
