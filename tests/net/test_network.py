"""Unit tests for the asynchronous network."""

import pytest

from repro.errors import MigrationError, NetworkError
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.net.routing import (
    REPLICA,
    REPLICA_KINDS,
    claim_key,
    daemon_key,
    grant_key,
    ladder_key,
    route,
)
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


def make_network(env, hosts=("a", "b", "c"), latency=None, faults=None,
                 cost=1.0, scale_by_cost=True, fifo_links=False):
    topo = Topology.full_mesh(list(hosts), cost=cost)
    network = Network(
        env,
        topo,
        latency=latency or ConstantLatency(2.0),
        faults=faults,
        streams=RandomStreams(0),
        scale_by_cost=scale_by_cost,
        fifo_links=fifo_links,
    )
    endpoints = {h: network.register(h) for h in hosts}
    return network, endpoints


def _ack(batch_id, epoch):
    return {"batch_id": batch_id, "epoch": epoch, "from": "a"}


class TestRegistration:
    def test_register_unknown_host_rejected(self, env):
        network, _ = make_network(env)
        with pytest.raises(NetworkError):
            network.register("zz")

    def test_double_register_rejected(self, env):
        network, _ = make_network(env)
        with pytest.raises(NetworkError):
            network.register("a")


class TestDelivery:
    def test_unicast_arrives_after_latency(self, env):
        _network, eps = make_network(env)

        def receiver(env):
            msg = yield eps["b"].receive("PING")
            assert msg.payload == "hello"
            assert env.now == 2.0

        eps["a"].send("b", "PING", "hello")
        env.process(receiver(env))
        env.run()

    def test_latency_scaled_by_cost(self, env):
        _network, eps = make_network(env, cost=3.0)
        arrival = []

        def receiver(env):
            yield eps["b"].receive("PING")
            arrival.append(env.now)

        eps["a"].send("b", "PING")
        env.process(receiver(env))
        env.run()
        assert arrival == [6.0]  # 2ms x cost 3

    def test_no_cost_scaling_when_disabled(self, env):
        _network, eps = make_network(env, cost=3.0, scale_by_cost=False)
        arrival = []

        def receiver(env):
            yield eps["b"].receive("PING")
            arrival.append(env.now)

        eps["a"].send("b", "PING")
        env.process(receiver(env))
        env.run()
        assert arrival == [2.0]

    def test_self_send_is_instant(self, env):
        _network, eps = make_network(env)
        arrival = []

        def receiver(env):
            yield eps["a"].receive("LOOP")
            arrival.append(env.now)

        eps["a"].send("a", "LOOP")
        env.process(receiver(env))
        env.run()
        assert arrival == [0.0]

    def test_unknown_destination_rejected(self, env):
        network, eps = make_network(env)
        eps["a"].send("b", "PING")
        with pytest.raises(NetworkError):
            eps["a"].send("nowhere", "PING")
        # a rejected message is not counted as sent
        assert network.stats.total_messages() == 1

    def test_receive_filters_by_kind(self, env):
        _network, eps = make_network(env)
        got = []

        def receiver(env):
            msg = yield eps["b"].receive("WANTED")
            got.append(msg.kind)

        eps["a"].send("b", "NOISE")
        eps["a"].send("b", "WANTED")
        env.process(receiver(env))
        env.run()
        assert got == ["WANTED"]
        assert eps["b"].pending == 1  # NOISE still queued

    def test_receive_filters_by_match(self, env):
        """Replies are matched by their round's key, not by a scan."""
        network, eps = make_network(env)
        got = []

        def receiver(env):
            msg = yield eps["b"].receive(claim_key(7, 1))
            got.append(msg.payload["batch_id"])

        eps["b"].open(claim_key(7, 1))
        eps["a"].send("b", "ACK", _ack(6, 1))
        eps["a"].send("b", "ACK", _ack(7, 1))
        env.process(receiver(env))
        env.run()
        assert got == [7]
        assert network.stats.expired == 1  # batch 6's round is not open

    def test_broadcast_excludes_self_by_default(self, env):
        _network, eps = make_network(env)
        sent = eps["a"].broadcast("HELLO")
        assert sorted(m.dst for m in sent) == ["b", "c"]

    def test_broadcast_include_self(self, env):
        _network, eps = make_network(env)
        sent = eps["a"].broadcast("HELLO", include_self=True)
        assert sorted(m.dst for m in sent) == ["a", "b", "c"]

    def test_multicast_targets(self, env):
        _network, eps = make_network(env)
        sent = eps["a"].multicast(["b", "c"], "X")
        assert sorted(m.dst for m in sent) == ["b", "c"]


class TestFaultsAndStats:
    def test_message_to_crashed_host_dropped(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 100))
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 0
        assert network.stats.total_dropped() == 1

    def test_crashed_sender_cannot_send(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("a", 0, 100))
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 0
        assert network.stats.total_dropped() == 1

    def test_link_outage_drops(self, env):
        faults = FaultPlan(
            links=TransientLinkFaults().add_outage("a", "b", 0, 10)
        )
        network, eps = make_network(env, faults=faults)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 0

    def test_stats_count_messages_and_bytes(self, env):
        network, eps = make_network(env)
        msg = eps["a"].send("b", "PING", "xx")
        env.run()
        assert network.stats.total_messages("control") == 1
        assert network.stats.total_bytes("control") == msg.size_bytes

    def test_host_up_queries_fault_plan(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 5, 10))
        network, _ = make_network(env, faults=faults)
        assert network.host_up("b")
        env.timeout(6)
        env.run()
        assert not network.host_up("b")


class TestFifoLinks:
    @staticmethod
    def _send_and_collect(env, eps, count):
        received = []

        def receiver(env):
            for _ in range(count):
                msg = yield eps["b"].receive("SEQ")
                received.append(msg.payload)

        for index in range(count):
            eps["a"].send("b", "SEQ", index)
        env.process(receiver(env))
        env.run()
        return received

    def test_default_links_can_reorder(self, env):
        from repro.net.latency import UniformLatency

        _network, eps = make_network(
            env, latency=UniformLatency(1.0, 50.0)
        )
        received = self._send_and_collect(env, eps, 30)
        assert sorted(received) == list(range(30))
        assert received != list(range(30))  # jitter reorders some pair

    def test_fifo_links_preserve_send_order(self, env):
        from repro.net.latency import UniformLatency

        _network, eps = make_network(
            env, latency=UniformLatency(1.0, 50.0), fifo_links=True
        )
        received = self._send_and_collect(env, eps, 30)
        assert received == list(range(30))

    def test_fifo_links_are_per_direction(self, env):
        _network, eps = make_network(env, fifo_links=True)
        arrivals = []

        def receiver(env, name):
            msg = yield eps[name].receive("X")
            arrivals.append((name, env.now, msg.payload))

        eps["a"].send("b", "X", "ab")
        eps["b"].send("a", "X", "ba")
        env.process(receiver(env, "b"))
        env.process(receiver(env, "a"))
        env.run()
        # opposite directions don't serialise against each other
        assert {t for _n, t, _p in arrivals} == {2.0}


class TestAttemptTransfer:
    def test_successful_transfer_takes_latency(self, env):
        network, _ = make_network(env)
        done = []

        def mover(env):
            yield from network.attempt_transfer("a", "b", 1000, timeout=50)
            done.append(env.now)

        env.process(mover(env))
        env.run()
        assert done == [2.0]

    def test_transfer_to_down_host_times_out(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 1000))
        network, _ = make_network(env, faults=faults)
        outcome = []

        def mover(env):
            try:
                yield from network.attempt_transfer("a", "b", 100, timeout=50)
            except MigrationError:
                outcome.append(env.now)

        env.process(mover(env))
        env.run()
        assert outcome == [50.0]  # full detection timeout elapses

    def test_transfer_slower_than_timeout_fails(self, env):
        network, _ = make_network(env, latency=ConstantLatency(100.0))
        outcome = []

        def mover(env):
            with pytest.raises(MigrationError):
                yield from network.attempt_transfer("a", "b", 0, timeout=10)
            outcome.append(env.now)

        env.process(mover(env))
        env.run()
        assert outcome == [10.0]

    def test_transfer_accounted_as_agent_traffic(self, env):
        network, _ = make_network(env)

        def mover(env):
            yield from network.attempt_transfer("a", "b", 2048, timeout=50)

        env.process(mover(env))
        env.run()
        assert network.stats.total_messages("agent") == 1
        assert network.stats.total_bytes("agent") == 2048


class TestRouting:
    def test_replica_service_covers_the_replica_machine(self):
        from repro.core.machines.replica import HANDLED_KINDS

        assert set(REPLICA_KINDS) == set(HANDLED_KINDS)

    def test_each_message_maps_to_one_key(self):
        grant = {"rid": 4, "epoch": 2, "from": "s3"}
        cases = [
            ("UPDATE", None, REPLICA, False),
            ("MCV_LOCK", None, daemon_key("MCV"), False),
            ("WV_READV", None, daemon_key("WV"), False),
            ("ACK", _ack(9, 3), claim_key(9, 3), True),
            ("NACK", _ack(9, 3), claim_key(9, 3), True),
            ("MCV_GRANT", grant, grant_key("MCV", 4, 2), True),
            ("MCV_NACK", grant, grant_key("MCV", 4, 2), True),
            ("AC_GRANT", grant, ladder_key(4, "s3"), True),
            ("PING", None, "PING", False),
        ]
        for kind, payload, key, is_reply in cases:
            msg = Message(src="a", dst="b", kind=kind, payload=payload)
            assert route(msg) == (key, is_reply), kind


class TestMailboxes:
    """Per-key mailboxes: a reply key is open from ``open`` to
    ``close``; replies for a key that is not open are dropped at
    delivery and counted as expired, never as network drops."""

    def test_reply_to_unopened_key_is_dropped_at_delivery(self, env):
        network, eps = make_network(env)
        eps["a"].send("b", "ACK", _ack(1, 1))
        env.run()
        assert eps["b"].pending == 0
        assert network.stats.expired == 1
        assert network.stats.total_dropped() == 0

    def test_open_key_queues_in_fifo_order(self, env):
        _network, eps = make_network(env)
        got = []

        def receiver(env):
            yield env.timeout(10.0)  # both replies wait in the mailbox
            for _ in range(2):
                msg = yield eps["b"].receive(claim_key(1, 1))
                got.append(msg.payload["from"])

        eps["b"].open(claim_key(1, 1))
        eps["a"].send("b", "ACK", _ack(1, 1))
        eps["c"].send("b", "ACK", dict(_ack(1, 1), **{"from": "c"}))
        env.process(receiver(env))
        env.run()
        assert got == ["a", "c"]

    def test_close_expires_queued_and_later_replies(self, env):
        network, eps = make_network(env)
        key = claim_key(1, 1)

        def round_(env):
            eps["b"].open(key)
            eps["a"].send("b", "ACK", _ack(1, 1))
            yield env.timeout(5.0)  # the reply is queued, never read
            eps["b"].close(key)
            eps["a"].send("b", "ACK", _ack(1, 1))  # arrives after close

        env.process(round_(env))
        env.run()
        assert eps["b"].pending == 0
        assert key not in eps["b"].mailboxes
        assert network.stats.expired == 2

    def test_unrouted_kinds_are_always_open(self, env):
        _network, eps = make_network(env)
        eps["a"].send("b", "PING")
        env.run()
        assert eps["b"].pending == 1
        assert eps["b"].mailboxes["PING"].items[0].kind == "PING"


#: Replies that a single predicate-scanned inbox per host leaves unclaimed
#: at the end of the two runs below: every ACK past the claim majority,
#: and every MCV_GRANT/NACK/RVAL past the quorum.
_DEAD_REPLIES = {"marp": 119, "mcv": 123}


class TestDeadReplyBacklog:
    """Replies past a majority or quorum are dropped at delivery (or
    when their round closes) instead of accumulating in the inboxes."""

    @pytest.mark.parametrize("protocol", sorted(_DEAD_REPLIES))
    def test_no_reply_outlives_its_round(self, protocol):
        from repro.experiments.runner import RunConfig, run_once

        config = RunConfig(
            n_replicas=5, seed=3, mean_interarrival=40.0,
            requests_per_client=12,
        )
        if protocol == "mcv":
            config = config.with_(
                protocol="mcv", write_fraction=0.5, keys=("x", "y", "z")
            )
        result = run_once(config)
        network = result.deployment.network
        assert result.audit.consistent
        queued_replies = [
            msg
            for endpoint in network.endpoints.values()
            for box in endpoint.mailboxes.values()
            for msg in box.items
            if route(msg)[1]
        ]
        assert queued_replies == []
        assert network.stats.expired == _DEAD_REPLIES[protocol]
