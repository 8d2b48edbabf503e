"""End-to-end and per-layer benchmark of the borninfeld command line.

Run ``python3 bench/run.py --help`` from the repository root; the layer map
and the reasons behind each workload are in ``bench/README.md``.
"""
