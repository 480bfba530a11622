"""Frozen copy of ``softmax_loss_and_gradient`` as it was when it built a
penalty mask and a one-hot matrix on every call: the reference the
byte-identity tests compare against.

This copy never changes with the package.  ``softmax_fit`` must give the
same weights and loss history, bit for bit, with either function.
"""

import numpy as np


def softmax_loss_and_gradient_by_masks(weights, xb, y, l2):
    """``softmax_loss_and_gradient(weights, xb, y, l2)``, with the row
    softmax of its time."""
    s = xb.shape[0]
    z = xb @ weights
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(s), y] + 1e-300)))
    penalty_mask = np.ones_like(weights)
    penalty_mask[0, :] = 0.0
    loss += 0.5 * l2 * float(np.sum((weights * penalty_mask) ** 2))
    onehot = np.zeros_like(probs)
    onehot[np.arange(s), y] = 1.0
    grad = xb.T @ (probs - onehot) / s + l2 * (weights * penalty_mask)
    return loss, grad
