"""Benchmark harness for dualnav: workloads, output checks and tracer."""
