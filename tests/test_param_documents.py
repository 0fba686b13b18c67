"""Drawn parameter documents: each is refused with a ScenarioError at its
field, or it keeps the rules across fields (a ping cycle between the PING
a lost beacon earns and the purge, a beacon within neighbor_ttl) and the
world it builds runs with no raw exception and a clock that keeps moving.

A document sets some `Params` fields to plausible values, zero, huge or tiny
ones among them, and may set one field to anything: a negative, non-finite,
denormal or out-of-range number, or a JSON value of the wrong type. The run
is bounded by an event count, not by time, so a clock that stops moving
fails the test instead of hanging it.
"""

from dataclasses import fields

from hypothesis import event, example, given, settings, strategies as st

from pear2pear.params import Params
from pear2pear.scenario import ScenarioError, build_world, parse_scenario

EVENTS = 3000

# Two subnets: root 1 with members 2 and 3, root 10 with member 11, and 3
# also sees root 10. Member 2 searches for 11's file and downloads it.
DOC = {
    "devices": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 10},
                {"id": 11, "files": [{"name": "f.bin", "seed": 1, "size": 100}]}],
    "visibility": [[1, 2], [1, 3], [3, 10], [10, 11]],
    "script": [{"time": 25.0, "action": "search", "device": 2, "query": "f.bin"},
               {"time": 30.0, "action": "download", "device": 2, "file": "f.bin"}],
    "until": 60.0,
}

KINDS = {f.name: type(getattr(Params(), f.name)) for f in fields(Params)}

PLAUSIBLE = {
    int: st.integers(0, 40) | st.integers(0, 2**70),
    float: (st.floats(0.0, 120.0) | st.integers(0, 120)
            | st.sampled_from([5e-324, 1e-300, 1e-7, 1e-6, 1e-3, 1e6, 1e300])),
}
ANYTHING = {
    int: st.integers() | st.floats(allow_nan=True, allow_infinity=True),
    float: (st.floats(allow_nan=True, allow_infinity=True) | st.integers()
            | st.sampled_from([-0.0, -5e-324, 10**400, -10**400])),
}
WRONG_TYPE = st.sampled_from([True, False, None, "1", "nan", [], {}])


@st.composite
def param_docs(draw):
    doc = draw(st.fixed_dictionaries(
        {}, optional={name: PLAUSIBLE[kind] for name, kind in KINDS.items()}))
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(KINDS)))
        doc[name] = draw(ANYTHING[KINDS[name]] | WRONG_TYPE)
    return doc


@settings(max_examples=300, deadline=None)
@given(param_docs())
@example({"neighbor_ttl": 20.0})   # one beacon period: refused
@example({"scan_period": 19.99})   # the longest scan period accepted at the defaults
@example({"scan_period": 25.0})    # a lost beacon purges before any PING: refused
@example({"neighbor_ttl": 20.5, "scan_period": 7.0})
@example({"silent_timeout": 1.7e308, "scan_period": 1e-6})   # an inf beacon period
def test_a_parameter_document_is_refused_or_runs(params):
    try:
        sc = parse_scenario({**DOC, "params": params})
    except ScenarioError as err:
        assert err.path == "$.params" or err.path.startswith("$.params.")
        event("refused")
        return
    # an accepted document keeps both rules across fields
    p = sc.params
    assert p.silent_timeout - p.scan_period - p.link_latency >= p.ping_interval
    assert p.scan_period < p.silent_timeout
    assert p.scan_period <= p.beacon_scans * p.scan_period < p.neighbor_ttl
    world = build_world(sc)
    times = []
    while len(times) < EVENTS and world.queue and world.queue[0][0] <= sc.until:
        world.step()
        times.append(world.clock)
    if len(times) == EVENTS:
        event("stopped at the event bound")
        assert times[-1] > times[EVENTS // 2], f"the clock stopped at {times[-1]}"
    else:
        event("ran to the end")
