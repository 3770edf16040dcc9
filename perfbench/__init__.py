"""Benchmark of the splatnet package: workloads, span tracing and the runner."""
