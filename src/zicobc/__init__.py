"""Training-free architecture scoring with depth-width bias correction,
plus latency-aware evolutionary search and a rank-correlation harness."""

__version__ = "0.1.0"
