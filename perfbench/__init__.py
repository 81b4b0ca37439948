"""Benchmark for the repro simulator; see perfbench/run.py."""
