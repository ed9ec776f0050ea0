"""Cross-modal person re-identification toolkit.

Numpy-based building blocks for matching people across camera views and
across modalities (images, natural-language descriptions, attribute bits):
a LAPACK-backed symmetric eigensolver stack, regularized CCA for cross-modal
embedding, XQDA cross-view metric learning, a small text CNN trained by
explicit backpropagation, CMC evaluation over train/test splits, and a
seed-deterministic synthetic data generator with brute-force oracles.
"""

__version__ = "0.1.0"
