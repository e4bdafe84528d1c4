"""Benchmark harness for fpcount: workloads, output checks and layer tracing.

The harness drives the public ``fpcount`` API from outside.  It never
changes the library: layer tracing wraps the module attributes the
callers look up, and restores them afterwards.
"""
