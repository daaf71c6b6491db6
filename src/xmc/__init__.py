"""Cross-modal contrastive learning pipeline on synthetic paired data.

A radar-heatmap encoder is pre-trained label-free against a frozen image
encoder with a contrastive loss and a FIFO queue of negative keys; the same
loss doubles as a mutual-information lower-bound estimator, validated on
correlated Gaussians; a linear-probe/fine-tune/baseline evaluation harness
measures what the representation learned.
"""

__version__ = "0.1.0"
