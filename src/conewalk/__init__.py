"""conewalk: radial random walks on matrix spaces and index-mu random
walks on the cone of positive semidefinite matrices, with a batch
verification harness for their large-dimension limit behavior."""

__version__ = "0.1.0"
