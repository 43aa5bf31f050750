"""Semantic oracles: slow, obviously-correct restatements of production paths.

Production modules keep one implementation each; the naive loops the
equivalence tests and benchmarks compare them against live here.
"""
