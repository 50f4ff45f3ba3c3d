"""Reference for ``autograd.causal_attention``: the per-head composition of
single-purpose ops that ``LmModel.forward`` ran before the fused kernel."""
import math

import numpy as np

from msivd import autograd as ag
from msivd.autograd import Tensor


def per_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    t, d = q.shape
    dh = d // n_heads
    mask = Tensor(np.triu(np.full((t, t), -np.inf, dtype=q.dtype), k=1))
    heads = []
    for h in range(n_heads):
        qh = ag.slice_last_dim(q, h * dh, (h + 1) * dh)
        kh = ag.slice_last_dim(k, h * dh, (h + 1) * dh)
        vh = ag.slice_last_dim(v, h * dh, (h + 1) * dh)
        scores = ag.add(ag.scale(ag.matmul(qh, ag.transpose(kh)), 1.0 / math.sqrt(dh)), mask)
        heads.append(ag.matmul(ag.softmax(scores), vh))
    return ag.concat_last_dim(heads)
