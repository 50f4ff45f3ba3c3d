"""Greedy decoding over ``LmModel``, for tests that check what a model learned."""
import numpy as np

from msivd import autograd as ag
from msivd.lm import ByteTokenizer, LmModel


def generate_greedy(model: LmModel, prompt_ids, max_new: int) -> list[int]:
    """Argmax decoding from the prompt; stops at EOS or ``max_new`` tokens.

    If the sequence outgrows the context window, the visible context slides
    left (generation continues on the newest window).
    """
    ids = [int(i) for i in prompt_ids]
    if len(ids) > model.config.context_window:
        raise ag.ShapeError("prompt exceeds context window")
    out: list[int] = []
    for _ in range(max_new):
        window = ids[-model.config.context_window:]
        logits = model.forward(window, last_only=True).logits
        nxt = int(np.argmax(logits.data[-1]))
        out.append(nxt)
        ids.append(nxt)
        if nxt == ByteTokenizer.EOS:
            break
    return out
