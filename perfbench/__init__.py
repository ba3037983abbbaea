"""Paper-scale benchmark of the figure pipelines (see README.md)."""
