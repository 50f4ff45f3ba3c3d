"""Reference for the task-averaged SIFT loss (the paper's Eq. 2) and a way to
feed hand-written (token ids, loss mask) examples to ``sift_batch_loss``."""
import numpy as np

from msivd import autograd as ag
from msivd.dialogue import RenderedDialogue
from msivd.train import TrainingStream


def eq2_reference(model, tasks) -> float:
    """Mean over task groups of each group's mean-token NLL, in numpy.

    ``tasks`` is a list of groups of (token_ids, mask) pairs; position p
    is a target when ``mask[p]`` is set, predicted from row p - 1.
    """
    per_task = []
    for group in tasks:
        nll, count = 0.0, 0
        for ids, mask in group:
            logits = np.asarray(model.forward(ids).logits.data, dtype=np.float64)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            for pos in range(1, len(ids)):
                if mask[pos]:
                    nll -= logp[pos - 1, ids[pos]]
                    count += 1
        per_task.append(nll / count)
    return sum(per_task) / len(per_task)


def full_row_loss(model, streams) -> float:
    """The Eq. 2 batch loss of ``streams`` over every row of each stream's
    full forward, backpropagated into the model like ``sift_batch_loss``:
    a target position p of task k gives row p - 1 the weight
    1 / (count[k] * n_tasks)."""
    counts = {}
    for s in streams:
        t = len(s.rendered.token_ids)
        for task, (start, end) in s.tasks:
            counts[task] = counts.get(task, 0) + max(0, min(end, t) - max(start, 1))
    counts = {task: n for task, n in counts.items() if n}
    total = 0.0
    for s in streams:
        ids = s.rendered.token_ids
        weights = np.zeros(len(ids))
        for task, (start, end) in s.tasks:
            for pos in range(max(start, 1), min(end, len(ids))):
                weights[pos - 1] += 1.0 / (counts[task] * len(counts))
        if weights.any():
            loss = ag.cross_entropy(model.forward(ids).logits, np.append(ids[1:], 0), weights)
            ag.backward(loss)
            total += loss.item()
    return total


def task_streams(tasks) -> list[TrainingStream]:
    """One single-span stream per (token_ids, loss_mask) pair, its task being
    the index of its group. Each mask must be one contiguous run."""
    streams = []
    for task, group in enumerate(tasks):
        for ids, mask in group:
            ids = np.asarray(ids, dtype=np.int64)
            mask = np.asarray(mask, dtype=bool)
            where = np.flatnonzero(mask)
            span = (int(where[0]), int(where[-1]) + 1) if where.size else (0, 0)
            if not mask[span[0] : span[1]].all():
                raise ValueError(f"mask {mask.tolist()} is not one contiguous span")
            rendered = RenderedDialogue(token_ids=ids, teacher_spans=[span])
            streams.append(TrainingStream(rendered=rendered, tasks=[(task, span)]))
    return streams
