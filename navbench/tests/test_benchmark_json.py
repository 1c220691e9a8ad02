import json

from navbench import harness, tracer


def test_declared_metrics_match_what_a_run_prints():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        harness.END_TO_END)
    names = list(tracer.layer_metrics(tracer.Tracer())) + list(
        harness.PER_LAYER_EXTRA)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (n, harness.layer_unit(n)) for n in names]
    assert [w["name"] for w in doc["workloads"]] == [
        "flight-known", "flight-explore", "mp-replay"]
