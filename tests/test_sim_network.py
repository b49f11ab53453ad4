"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError, SimulationError
from repro.sim import Environment, ms, us
from repro.sim.network import Network


def make_net(bandwidth_bps=1e12):
    env = Environment()
    net = Network(env, default_bandwidth_bps=bandwidth_bps)
    net.add_endpoint("a", "east")
    net.add_endpoint("b", "west")
    net.set_link("a", "b", latency_ns=ms(25))
    return env, net


def test_one_way_latency():
    env, net = make_net()
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append((msg.payload, env.now)))
    net.send("a", "b", "hello", size_bytes=100)
    env.run()
    assert len(arrivals) == 1
    payload, when = arrivals[0]
    assert payload == "hello"
    assert ms(25) <= when < ms(25.1)


def test_rpc_round_trip_takes_rtt():
    env, net = make_net()
    net.set_handler("b", lambda msg: msg.payload.reply(msg.payload.body * 2))

    def client():
        value = yield net.request("a", "b", 21)
        return value, env.now

    value, when = env.run(until=env.process(client()))
    assert value == 42
    assert ms(50) <= when < ms(50.1)


def test_rpc_to_down_endpoint_fails_fast():
    env, net = make_net()
    net.set_endpoint_up("b", False)

    def client():
        try:
            yield net.request("a", "b", "x")
        except NetworkError as exc:
            return str(exc)

    assert "down" in env.run(until=env.process(client()))


def test_rpc_timeout_fires():
    env, net = make_net()
    net.set_handler("b", lambda msg: None)  # never replies

    def client():
        try:
            yield net.request("a", "b", "x", timeout_ns=ms(10))
        except NetworkError as exc:
            return str(exc), env.now

    message, when = env.run(until=env.process(client()))
    assert "timed out" in message
    assert when == ms(10)


def test_message_to_down_endpoint_is_dropped():
    env, net = make_net()
    delivered = []
    net.set_handler("b", lambda msg: delivered.append(msg))
    net.set_endpoint_up("b", False)
    net.send("a", "b", "lost")
    env.run()
    assert delivered == []
    assert net.messages_dropped == 1


def test_transmission_delay_scales_with_size():
    # 1 MB over 8 Mbit/s takes 1 second.
    env, net = make_net(bandwidth_bps=8e6)
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append(env.now))
    net.send("a", "b", "big", size_bytes=1_000_000)
    env.run()
    assert arrivals[0] == pytest.approx(ms(25) + 1_000_000_000, rel=1e-6)


def test_serialization_queueing_back_to_back():
    env, net = make_net(bandwidth_bps=8e6)  # 1 byte/us
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append((msg.payload, env.now)))
    net.send("a", "b", "first", size_bytes=1000)
    net.send("a", "b", "second", size_bytes=1000)
    env.run()
    # Second message waits for the first to clock onto the wire.
    first = dict(arrivals)["first"]
    second = dict(arrivals)["second"]
    assert second - first == pytest.approx(us(1000), rel=1e-6)


def test_injected_delay_adds_latency():
    env, net = make_net()
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append(env.now))
    net.inject_delay("a", "b", ms(100))
    net.send("a", "b", "slow", size_bytes=10)
    env.run()
    assert arrivals[0] >= ms(125)
    assert net.rtt_ns("a", "b") == 2 * ms(125)


def test_inject_delay_all_covers_every_pair():
    env, net = make_net()
    net.add_endpoint("c", "north")
    net.inject_delay_all(ms(7))
    assert net.link("a", "c").extra_delay_ns == ms(7)
    assert net.link("c", "b").extra_delay_ns == ms(7)


def test_local_delivery_is_instant():
    env, net = make_net()
    arrivals = []
    net.set_handler("a", lambda msg: arrivals.append(env.now))
    net.send("a", "a", "self")
    env.run()
    assert arrivals == [0]


def test_duplicate_endpoint_rejected():
    env, net = make_net()
    with pytest.raises(SimulationError):
        net.add_endpoint("a", "east")


def test_unknown_endpoint_rejected():
    env, net = make_net()
    with pytest.raises(NetworkError):
        net.send("a", "nope", "x")
    with pytest.raises(NetworkError):
        net.endpoint("nope")


def test_late_rpc_reply_after_timeout_is_ignored():
    env, net = make_net()

    def slow_server(msg):
        def responder():
            yield env.timeout(ms(100))
            msg.payload.reply("late")
        env.process(responder())

    net.set_handler("b", slow_server)
    outcomes = []

    def client():
        try:
            value = yield net.request("a", "b", "x", timeout_ns=ms(30))
            outcomes.append(("ok", value))
        except NetworkError:
            outcomes.append(("timeout", env.now))

    env.process(client())
    env.run()
    assert outcomes == [("timeout", ms(30))]


class _Blob:
    """A reply value a weakref can watch."""


def test_answered_rpc_releases_its_reply_and_timer_entry():
    """A reply cancels the request's timeout: long before the 2 s deadline
    the kernel holds no entry for the request, and the reply value dies
    with the caller's last reference to it."""
    import gc
    import weakref

    from repro.sim import seconds

    env, net = make_net()
    net.set_link("a", "b", latency_ns=us(500))
    net.set_handler("b", lambda msg: msg.payload.reply(_Blob()))
    seen = []

    def client():
        value = yield net.request("a", "b", "x", timeout_ns=seconds(2))
        seen.append((weakref.ref(value), env.now))

    env.process(client())
    # A later tick, so the kernel swaps out the lane the reply ran in.
    env.timeout(ms(3))
    env.run(until=ms(5))
    (ref, when), = seen
    assert ms(1) <= when < ms(1.1)
    assert env.peek() is None  # no timer entry left for the request
    gc.collect()
    assert ref() is None


def test_reply_at_exactly_the_deadline_times_out():
    """The timer was deferred before the reply was sent, so at an equal
    deadline its (when, priority, seq) slot comes first: the RPC fails and
    the reply is ignored."""
    env, net = make_net(bandwidth_bps=0)  # 25 ms each way, no transmission
    net.set_handler("b", lambda msg: msg.payload.reply("on time?"))
    outcomes = []

    def client():
        try:
            value = yield net.request("a", "b", "x", timeout_ns=ms(50))
            outcomes.append(("ok", value, env.now))
        except NetworkError as exc:
            outcomes.append(("timeout", str(exc), env.now))

    env.process(client())
    env.run()
    assert outcomes == [("timeout", "RPC to b timed out", ms(50))]
    assert env.now == ms(50)
