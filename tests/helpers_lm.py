"""Greedy decoding over ``LmModel``, for tests that check what a model
learned, the cast of a model's parameters for checks in 64 bits, and the
paper's LM dimensions."""
import numpy as np

from msivd import autograd as ag
from msivd.lm import ByteTokenizer, LmModel, TransformerConfig

# The paper's LM: d_model 4096, 8 layers, a 2048-token window. Bookkeeping
# only: no test builds it, and no command can.
PAPER_LM = TransformerConfig(d_model=4096, n_layers=8, n_heads=32, context_window=2048)


def generate_greedy(model: LmModel, prompt_ids, max_new: int) -> list[int]:
    """Argmax decoding from the prompt; stops at EOS or ``max_new`` tokens.

    Decoding only reads the model, so it freezes the adapters first and its
    forwards record no tape. If the sequence outgrows the context window, the
    visible context slides left (generation continues on the newest window).
    """
    for t in model.adapter_parameters().values():
        t.requires_grad = False
    ids = [int(i) for i in prompt_ids]
    if len(ids) > model.config.context_window:
        raise ag.ShapeError("prompt exceeds context window")
    out: list[int] = []
    for _ in range(max_new):
        window = ids[-model.config.context_window:]
        logits = model.forward(window).logits
        nxt = int(np.argmax(logits.data[-1]))
        out.append(nxt)
        ids.append(nxt)
        if nxt == ByteTokenizer.EOS:
            break
    return out


def cast(model, dtype):
    """``model`` with every parameter cast to ``dtype`` in place; the kernels
    compute in the dtype of their inputs, so a 64-bit model runs its forward
    and backward in 64 bits."""
    for t in model.parameters().values():
        t.data = t.data.astype(dtype)
    return model
