from dualnav import runtime

from navbench import speed


def _clock(segments, bursts):
    clock = speed.SpeedClock()
    clock.segments = segments
    clock.bursts = bursts
    return clock


def test_work_at_half_speed_counts_half():
    bursts = [2 * speed.REF_BURST_S] * 4
    clock = _clock([(1.0, 0), (1.0, 1), (1.0, 2)], bursts)
    assert clock.work_s() == 3.0
    assert abs(clock.ref_s() - 1.5) < 1e-12


def test_local_speed_follows_a_slow_spell():
    # a fast stretch, then a longer slow spell: each stretch is rescaled by
    # the bursts around it, not by the run's overall speed, so every second
    # of reference work counts as one second whatever the spell
    n = 4 * speed.WINDOW
    bursts = [speed.REF_BURST_S] * n + [1.5 * speed.REF_BURST_S] * (3 * n)
    segments = [(bursts[i] / speed.REF_BURST_S, i)
                for i in range(len(bursts) - 1)]
    clock = _clock(segments, bursts)
    assert abs(clock.work_s() - (n + 1.5 * (3 * n - 1))) < 1e-9
    assert abs(clock.ref_s() - len(segments)) < 0.5


def test_ticks_run_between_schedule_events_and_are_undone():
    orig = runtime.virtual_schedule
    clock = speed.SpeedClock()
    with clock.between_ticks():
        clock.start()
        events = list(runtime.virtual_schedule(runtime.LoopRates(), 0.1))
        clock.stop()
    assert runtime.virtual_schedule is orig
    assert events == list(orig(runtime.LoopRates(), 0.1))
    assert len(clock.bursts) == len(clock.segments) + 1 >= 2
