from navbench import workloads


def test_one_seed_gives_identical_inputs():
    for wl in ("flight-known", "flight-explore"):
        a = workloads.inputs_digest(wl, workloads.make_inputs(wl, 5))
        assert a == workloads.inputs_digest(wl, workloads.make_inputs(wl, 5))
    a, b, c = (workloads.inputs_digest(
        "mp-replay", workloads.mp_inputs(seed, n_positions=2))
        for seed in (5, 5, 6))
    assert a == b != c


def test_mp_queries_reach_both_stitched_branches():
    params, _ = workloads.mp_config()
    half_c = params.m * params.resolution / 2.0
    queries = workloads.mp_inputs(0, n_positions=2)
    offsets = [abs(q.goal - q.p_n)[:2].max() for q in queries]
    assert offsets[0] < half_c and offsets[3] < half_c
    assert all(offsets[k] > params.l_ms / 2.0 for k in (1, 2, 4, 5))
    assert all(len(q.pcl_lm) > 1000 for q in queries)
