import dataclasses

from navbench import checks, workloads
from navbench.tracer import trace_dualnav


def _short(flights, seconds):
    return [dataclasses.replace(f, scenario=dataclasses.replace(
        f.scenario, timeout=seconds)) for f in flights]


def test_tracing_keeps_flight_digests():
    flights = _short(workloads.flight_inputs("flight-known")[:1], 4.0)
    plain = workloads.run_digests("flight-known",
                                  workloads.run_flights(flights))
    with trace_dualnav() as tracer:
        traced = workloads.run_flights(flights)
    assert workloads.run_digests("flight-known", traced) == plain
    # one span per tick the runtime's own timer counted
    for loop in ("filter", "mapping", "mp", "pcp"):
        assert (tracer.summary()[loop + "_tick"]["calls"]
                == len(traced[0].tick_s[loop]))


def test_tracing_keeps_plan_digests():
    queries = workloads.mp_inputs(1, n_positions=1, n_fields=1)[:2]
    plain = workloads.run_queries(queries)
    with trace_dualnav() as tracer:
        traced = workloads.run_queries(queries)
    assert (workloads.run_digests("mp-replay", traced)
            == workloads.run_digests("mp-replay", plain))
    assert tracer.summary()["plan_final_path"]["calls"] == 4
    _, dags = workloads.mp_config()
    assert [e for r in traced for e in checks.check_plan(r, dags)] == []


def test_flight_check_flags_a_speeding_trajectory():
    flights = _short(workloads.flight_inputs("flight-known")[:1], 2.0)
    run = workloads.run_flights(flights)[0]
    assert checks.check_flight(run) == []
    t, x, y, z, vx, vy, vz, mode = run.result.trajectory[-1]
    run.result.trajectory[-1] = (t, x, y, z, 10.0, vy, vz, mode)
    assert any("v_max" in e for e in checks.check_flight(run))
