"""Benchmark harness for parafree: workloads, checks, tracing and metrics."""
