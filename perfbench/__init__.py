"""The repository's benchmark: four seeded workloads, end-to-end metrics
from untraced runs and a per-layer split from traced ones.

Run ``python3 -m perfbench`` from the repository root; see README.md.
"""
