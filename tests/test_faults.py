"""Tests of the fault-injection subsystem (repro.faults)."""

from __future__ import annotations

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.message import BROADCAST, Message
from repro.cluster.neko import ProtocolLayer
from repro.faults import (
    CpuLoadBurst,
    CrashRecovery,
    DelaySpike,
    FaultLoad,
    MessageDuplication,
    MessageLoss,
    NetworkPartition,
)
from repro.sanmodels.parameters import SANParameters


class _ProbeLayer(ProtocolLayer):
    """Minimal application layer: sends probes, absorbs deliveries."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def probe(self, destination, msg_type="probe"):
        self.send_down(
            Message(sender=self.process_id, destination=destination, msg_type=msg_type)
        )

    def on_deliver(self, message):
        self.received.append(message)


def _probe_cluster(n=3, seed=5, fault_load=None):
    cluster = Cluster(ClusterConfig(n_processes=n, seed=seed), fault_load=fault_load)
    cluster.create_processes(lambda sim, pid: [_ProbeLayer(sim, f"probe.p{pid}")])
    cluster.start_all()
    return cluster


def _delivered(cluster):
    """Every probe delivered to process 1 (the probes' destination), in order."""
    return cluster.process(1).layer(_ProbeLayer).received


def _send_probes(cluster, count, destination=1, gap_ms=1.0, start_ms=0.5):
    sender = cluster.process(0).layer(_ProbeLayer)
    time = start_ms
    for _ in range(count):
        cluster.sim.schedule_at(time, sender.probe, destination)
        time += gap_ms
    return time


# ----------------------------------------------------------------------
# Message loss
# ----------------------------------------------------------------------
def test_message_loss_drops_copies_with_wire_cause():
    load = FaultLoad.of(MessageLoss(rate=0.3))
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 200)
    cluster.run(until=end + 10.0)
    transport = cluster.transport
    assert transport.drops_by_cause.get("wire:loss", 0) > 0
    assert transport.messages_dropped == transport.drops_by_cause["wire:loss"]
    assert transport.messages_delivered == (
        transport.messages_sent - transport.messages_dropped
    )
    assert cluster.fault_injector.stats.messages_lost == transport.messages_dropped


def test_fault_injection_is_deterministic_under_fixed_seed():
    def run():
        load = FaultLoad.of(
            MessageLoss(rate=0.2),
            MessageDuplication(rate=0.1),
            DelaySpike(rate=0.1, extra_low_ms=0.5, extra_high_ms=2.0),
        )
        cluster = _probe_cluster(seed=11, fault_load=load)
        end = _send_probes(cluster, 150)
        cluster.run(until=end + 20.0)
        # msg_ids come from a process-global counter; normalise to the first
        # id so two runs are comparable.
        delivered = _delivered(cluster)
        base = min(m.msg_id for m in delivered)
        trace = [(m.msg_id - base, m.delivered_at) for m in delivered]
        return (
            dict(cluster.transport.drops_by_cause),
            cluster.transport.messages_duplicated,
            cluster.fault_injector.stats.as_dict(),
            trace,
        )

    assert run() == run()


def test_loss_can_be_restricted_to_message_types():
    load = FaultLoad.of(MessageLoss(rate=1.0, msg_types=("doomed",)))
    cluster = _probe_cluster(fault_load=load)
    sender = cluster.process(0).layer(_ProbeLayer)
    cluster.sim.schedule_at(0.5, sender.probe, 1, "doomed")
    cluster.sim.schedule_at(1.5, sender.probe, 1, "fine")
    cluster.run(until=20.0)
    assert cluster.transport.drops_by_cause.get("wire:loss") == 1
    delivered_types = [m.msg_type for m in _delivered(cluster)]
    assert delivered_types == ["fine"]


# ----------------------------------------------------------------------
# Duplication
# ----------------------------------------------------------------------
def test_duplication_delivers_extra_copies():
    load = FaultLoad.of(MessageDuplication(rate=1.0, copies=1))
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 10)
    cluster.run(until=end + 10.0)
    transport = cluster.transport
    assert transport.messages_duplicated == 10
    assert transport.messages_delivered == 20
    duplicates = [m for m in _delivered(cluster) if m.injected_duplicate]
    assert len(duplicates) == 10
    # The receiving layer sees every copy (at-least-once delivery).
    receiver = cluster.process(1).layer(_ProbeLayer)
    assert len(receiver.received) == 20


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
def test_partition_blocks_cross_group_traffic_and_heals():
    load = FaultLoad.of(
        NetworkPartition(groups=((0,), (1, 2)), start_ms=10.0, end_ms=20.0)
    )
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 30, gap_ms=1.0, start_ms=0.5)  # spans 0.5..30.5
    cluster.run(until=end + 10.0)
    transport = cluster.transport
    partition_drops = transport.drops_by_cause.get("wire:partition", 0)
    assert partition_drops > 0
    assert cluster.fault_injector.stats.partition_drops == partition_drops
    # Probes before and after the window got through.
    delivered_at = [m.submitted_at for m in _delivered(cluster)]
    assert any(t < 10.0 for t in delivered_at)
    assert any(t > 20.0 for t in delivered_at)
    assert not any(10.0 < t < 19.0 for t in delivered_at)


def test_partition_allows_same_group_traffic():
    load = FaultLoad.of(NetworkPartition(groups=((0, 1), (2,)), start_ms=0.0))
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 5, destination=1)
    cluster.run(until=end + 10.0)
    assert cluster.transport.messages_delivered == 5
    assert cluster.transport.drops_by_cause.get("wire:partition") is None


# ----------------------------------------------------------------------
# Crash-recovery
# ----------------------------------------------------------------------
def test_crash_recovery_redelivers_after_recovery():
    load = FaultLoad.of(
        CrashRecovery(process_id=1, crash_at_ms=5.0, recover_at_ms=15.0)
    )
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 25, destination=1, gap_ms=1.0, start_ms=0.5)
    cluster.run(until=end + 10.0)
    transport = cluster.transport
    assert transport.drops_by_cause.get("receive:receiver-crashed", 0) > 0
    stats = cluster.fault_injector.stats
    assert stats.crashes == 1 and stats.recoveries == 1
    assert not cluster.hosts[1].crashed
    # Probes submitted after the recovery are delivered again.
    late = [m for m in _delivered(cluster) if m.submitted_at > 15.5]
    assert late, "no probe delivered after recovery"


def test_crashed_broadcast_counts_one_drop_per_copy():
    # Regression: a crashed sender's broadcast used to count a single drop
    # while the rest of the pipeline counts per unicast copy.
    cluster = _probe_cluster(n=5)
    cluster.crash_process(0)
    sender = cluster.process(0).layer(_ProbeLayer)
    message = Message(sender=0, destination=BROADCAST, msg_type="probe")
    cluster.transport.send(message)
    assert cluster.transport.messages_dropped == 4
    assert cluster.transport.drops_by_cause == {"send:sender-crashed": 4}
    assert sender.received == []


# ----------------------------------------------------------------------
# Delay spikes and CPU bursts
# ----------------------------------------------------------------------
def test_stack_delay_spikes_reorder_messages():
    load = FaultLoad.of(DelaySpike(rate=0.3, extra_low_ms=2.0, extra_high_ms=8.0))
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 100, gap_ms=0.5)
    cluster.run(until=end + 30.0)
    assert cluster.fault_injector.stats.delay_spikes > 0
    order = [m.msg_id for m in _delivered(cluster)]
    assert order != sorted(order), "delay spikes should reorder deliveries"


def test_medium_delay_spikes_slow_the_wire():
    slow = FaultLoad.of(
        DelaySpike(rate=1.0, extra_low_ms=1.0, extra_high_ms=1.0, where="medium")
    )
    fast = _probe_cluster(seed=3)
    end = _send_probes(fast, 20)
    fast.run(until=end + 20.0)
    slowed = _probe_cluster(seed=3, fault_load=slow)
    end = _send_probes(slowed, 20)
    slowed.run(until=end + 40.0)
    mean_fast = sum(m.end_to_end_delay() for m in _delivered(fast)) / 20
    mean_slow = sum(m.end_to_end_delay() for m in _delivered(slowed)) / 20
    assert mean_slow > mean_fast + 0.9


def test_cpu_load_burst_slows_messages_during_the_window():
    load = FaultLoad.of(CpuLoadBurst(start_ms=10.0, end_ms=20.0, slowdown=10.0))
    cluster = _probe_cluster(fault_load=load)
    end = _send_probes(cluster, 30, gap_ms=1.0, start_ms=0.5)
    cluster.run(until=end + 20.0)
    delivered = _delivered(cluster)
    in_burst = [m.end_to_end_delay() for m in delivered if 10.0 <= m.submitted_at < 19.0]
    outside = [m.end_to_end_delay() for m in delivered if m.submitted_at < 9.0]
    assert in_burst and outside
    assert sum(in_burst) / len(in_burst) > sum(outside) / len(outside)


# ----------------------------------------------------------------------
# Spec validation and SAN mapping
# ----------------------------------------------------------------------
def test_fault_spec_validation():
    with pytest.raises(ValueError):
        MessageLoss(rate=1.5)
    with pytest.raises(ValueError):
        MessageDuplication(rate=0.1, copies=0)
    with pytest.raises(ValueError):
        DelaySpike(rate=0.1, extra_low_ms=2.0, extra_high_ms=1.0)
    with pytest.raises(ValueError):
        NetworkPartition(groups=((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        CrashRecovery(process_id=0, crash_at_ms=5.0, recover_at_ms=5.0)
    with pytest.raises(ValueError):
        CpuLoadBurst(start_ms=1.0, end_ms=1.0)


def test_fault_load_total_loss_rate_composes_independently():
    load = FaultLoad.of(MessageLoss(rate=0.1), MessageLoss(rate=0.2))
    assert load.total_loss_rate() == pytest.approx(1 - 0.9 * 0.8)
    typed = FaultLoad.of(MessageLoss(rate=0.5, msg_types=("x",)))
    assert typed.total_loss_rate() == 0.0


def test_fault_load_static_partition_groups():
    static = FaultLoad.of(NetworkPartition(groups=((0,), (1, 2))))
    assert static.static_partition_groups() == ((0,), (1, 2))
    windowed = FaultLoad.of(
        NetworkPartition(groups=((0,), (1, 2)), start_ms=1.0, end_ms=2.0)
    )
    assert windowed.static_partition_groups() == ()


def test_san_parameters_connected_and_with_faults():
    params = SANParameters().with_faults(loss_rate=0.1, partition=((0,), (1, 2)))
    assert params.loss_rate == 0.1
    assert not params.connected(0, 1)
    assert params.connected(1, 2)
    assert params.connected(3, 4)  # unlisted hosts share the implicit group
    assert SANParameters().connected(0, 1)
    with pytest.raises(ValueError):
        SANParameters(loss_rate=1.0)


def test_san_model_with_loss_still_solves():
    from repro.sanmodels.consensus_model import ConsensusSANExperiment

    lossless = ConsensusSANExperiment(n_processes=3, seed=13).run(replications=20)
    lossy = ConsensusSANExperiment(
        n_processes=3,
        seed=13,
        parameters=SANParameters().with_faults(loss_rate=0.2),
    ).run(replications=20)
    assert lossless.undecided == 0
    assert math.isfinite(lossy.mean_ms) or lossy.undecided == 20
    # Losing messages can only delay or prevent decisions.
    if math.isfinite(lossy.mean_ms):
        assert lossy.mean_ms >= lossless.mean_ms


def test_san_model_with_partitioned_coordinator_cannot_decide():
    from repro.sanmodels.consensus_model import ConsensusSANExperiment

    partitioned = ConsensusSANExperiment(
        n_processes=3,
        seed=13,
        parameters=SANParameters().with_faults(partition=((0,), (1, 2))),
        max_time_ms=50.0,
    ).run(replications=5)
    assert partitioned.undecided == 5


def test_crash_recovery_out_of_range_fails_at_construction():
    load = FaultLoad.of(CrashRecovery(process_id=5, crash_at_ms=1.0))
    with pytest.raises(ValueError, match="only 3 processes"):
        _probe_cluster(n=3, fault_load=load)


def test_quick_crash_recovery_does_not_double_heartbeat_loop():
    # Regression: a heartbeat emission sleeping in the OS scheduler at crash
    # time used to resume after a fast recovery *alongside* the fresh loop
    # armed by recover(), doubling the emission rate.
    from repro.failure_detectors.heartbeat import HeartbeatFailureDetector

    def heartbeats(fault_load):
        cluster = _probe_cluster(seed=9, fault_load=fault_load)
        for process in cluster.processes:
            fd = HeartbeatFailureDetector(
                cluster.sim, timeout_ms=10.0, name=f"hb.p{process.process_id}"
            )
            process.layers.append(fd)
            process._wire_layers()
            fd.start()
        cluster.run(until=400.0)
        return cluster.process(2).layer(HeartbeatFailureDetector).heartbeats_sent

    baseline = heartbeats(None)
    quick = heartbeats(
        FaultLoad.of(CrashRecovery(process_id=2, crash_at_ms=100.0, recover_at_ms=100.5))
    )
    assert quick <= baseline * 1.15
