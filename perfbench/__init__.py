"""qcle benchmark: seeded workloads, output checks and per-layer tracing (see README.md)."""
