"""Benchmark harness: one module per paper table/figure.

The runs are scaled (see ARCHITECTURE.md, "Scaled simulation").
"""
