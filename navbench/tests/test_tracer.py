import itertools

from dualnav import map_planner, runtime, sim
from navbench.tracer import Tracer, layer_metrics, trace_dualnav


def test_self_time_of_nested_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()            # clock: outer 0, inner 1-2, inner 3-4, outer 5
    outer()            # the same again from 6 to 11
    s = tracer.summary()
    assert s["outer"]["calls"] == 2
    assert s["outer"]["total_s"] == 10.0
    assert s["outer"]["self_s"] == 6.0
    assert s["inner"]["calls"] == 4
    assert s["inner"]["self_s"] == 4.0
    roots = sum(t1 - t0 for _, parent, t0, t1 in tracer.spans if parent < 0)
    assert sum(e["self_s"] for e in s.values()) == roots == 10.0


def test_span_ends_when_the_call_raises():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError

    wrapped = tracer.wrap("fail", fail)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans == [[0, -1, 0.0, 1.0]]
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.spans[-1][1] == -1


def test_caller_bindings_are_wrapped_and_restored():
    originals = (sim.sense, runtime.sense, map_planner.jps_search,
                 runtime._EpisodeCore.pcp_step)
    with trace_dualnav():
        assert runtime.sense is sim.sense
        assert runtime.sense is not originals[0]
        assert map_planner.jps_search is not originals[2]
        assert runtime._EpisodeCore.pcp_step is not originals[3]
    assert (sim.sense, runtime.sense, map_planner.jps_search,
            runtime._EpisodeCore.pcp_step) == originals


def test_layer_metrics_of_an_idle_run_are_zero():
    metrics = layer_metrics(Tracer())
    assert metrics and all(v == 0.0 for v in metrics.values())
