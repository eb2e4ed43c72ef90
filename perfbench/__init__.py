"""Repository benchmark: seeded multi-query workloads over the paper's
MPC algorithms, end-to-end metrics from untraced runs and per-layer
metrics from a separate traced run.  Entry point: ``perfbench/run.py``;
see ``perfbench/README.md``."""
