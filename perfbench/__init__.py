"""Reproducible benchmark of the timing-verification framework."""
