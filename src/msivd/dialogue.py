"""Student-teacher dialogue construction and token-stream rendering.

Positive samples become a three-round conversation (existence/type,
description, vulnerable lines + fix); negatives a single round whose answer
is the canonical non-vulnerable sentence. Rendering produces the token
stream with a loss mask that is true exactly over teacher-answer spans.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import CodeSample
from .lm import ByteTokenizer

__all__ = [
    "DialogueError",
    "DialogueRound",
    "DialogueRecord",
    "RenderedDialogue",
    "SYSTEM_PROMPT",
    "NEGATIVE_ANSWER",
    "build_dialogue",
    "build_negative_dialogue",
    "build_dialogues",
    "render",
    "render_prompt",
    "serialize_jsonl",
    "parse_jsonl",
]

SYSTEM_PROMPT = (
    "You are an expert in detecting and locating programming security "
    "vulnerabilities, and can help answer vulnerability questions"
)
ROUND1_STUDENT = "Does the following code have any security vulnerabilities: {code_snippet}"
ROUND1_TEACHER = "Yes. The following code has a vulnerability type {cwe_type}."
ROUND2_STUDENT = "What is the description of the vulnerablity?"
ROUND2_TEACHER = "The vulnerability is: {commit_msg}"
ROUND3_STUDENT = "Locate the lines that are vulnerable and should be repaired."
ROUND3_TEACHER = "The code is vulnerable at lines {vuln_lines}, with the following fix: {fixing_code}"
NEGATIVE_ANSWER = "The code does not have a security vulnerability."


class DialogueError(ValueError):
    pass


@dataclass
class DialogueRound:
    student_text: str
    teacher_text: str

    def __post_init__(self):
        if not self.teacher_text:
            raise DialogueError("teacher_text must be nonempty")


@dataclass
class DialogueRecord:
    sample_id: str
    system_text: str
    rounds: list[DialogueRound]
    label: bool

    def __post_init__(self):
        want = 3 if self.label else 1
        if len(self.rounds) != want:
            raise DialogueError(
                f"{self.sample_id}: {'positive' if self.label else 'negative'} dialogue "
                f"needs {want} rounds, got {len(self.rounds)}"
            )


@dataclass
class RenderedDialogue:
    token_ids: np.ndarray  # int64 [T]
    loss_mask: np.ndarray  # bool [T]
    teacher_spans: list[tuple[int, int]] = field(default_factory=list)  # [start, end) per round

    def __post_init__(self):
        if self.token_ids.shape != self.loss_mask.shape:
            raise DialogueError("token_ids and loss_mask lengths differ")


def _format_lines(start: int, end: int) -> str:
    return f"{start}-{end}" if end > start else f"{start}"


def build_dialogue(sample: CodeSample) -> DialogueRecord:
    """Three-round dialogue for a vulnerable sample."""
    if not sample.label:
        raise DialogueError(f"{sample.sample_id}: build_dialogue needs a positive sample")
    for fld in ("description", "cwe_id", "fix_code"):
        if not getattr(sample, fld):
            raise DialogueError(f"{sample.sample_id}: missing field {fld!r}")
    rounds = [
        DialogueRound(
            student_text=ROUND1_STUDENT.format(code_snippet=sample.code),
            teacher_text=ROUND1_TEACHER.format(cwe_type=sample.cwe_id),
        ),
        DialogueRound(
            student_text=ROUND2_STUDENT,
            teacher_text=ROUND2_TEACHER.format(commit_msg=sample.description),
        ),
        DialogueRound(
            student_text=ROUND3_STUDENT,
            teacher_text=ROUND3_TEACHER.format(
                vuln_lines=_format_lines(sample.vuln_line_start, sample.vuln_line_end),
                fixing_code=sample.fix_code,
            ),
        ),
    ]
    return DialogueRecord(sample_id=sample.sample_id, system_text=SYSTEM_PROMPT, rounds=rounds, label=True)


def build_negative_dialogue(sample: CodeSample) -> DialogueRecord:
    """Single-round dialogue whose answer states the code is not vulnerable."""
    if sample.label:
        raise DialogueError(f"{sample.sample_id}: build_negative_dialogue needs a negative sample")
    rounds = [
        DialogueRound(
            student_text=ROUND1_STUDENT.format(code_snippet=sample.code),
            teacher_text=NEGATIVE_ANSWER,
        )
    ]
    return DialogueRecord(sample_id=sample.sample_id, system_text=SYSTEM_PROMPT, rounds=rounds, label=False)


def build_dialogues(samples: list[CodeSample]) -> list[DialogueRecord]:
    """One dialogue per sample: three rounds for positives, one for negatives."""
    return [build_dialogue(s) if s.label else build_negative_dialogue(s) for s in samples]


def render(
    dialogue: DialogueRecord,
    tokenizer: ByteTokenizer,
    up_to_round: int | None = None,
    context_window: int = 2048,
) -> RenderedDialogue:
    """Token stream [system][student_1][teacher_1]... with a teacher-only mask.

    ``up_to_round`` truncates the conversation after that round (1-based;
    default all rounds). Overlong streams are truncated from the left; the
    final teacher span is never split.
    """
    n_rounds = len(dialogue.rounds)
    if up_to_round is None:
        up_to_round = n_rounds
    if not 1 <= up_to_round <= n_rounds:
        raise DialogueError(f"up_to_round {up_to_round} outside 1-{n_rounds}")

    ids: list[int] = [tokenizer.SYSTEM]
    mask: list[bool] = [False]
    sys_ids = tokenizer.encode(dialogue.system_text)
    ids.extend(sys_ids)
    mask.extend([False] * len(sys_ids))

    spans: list[tuple[int, int]] = []
    for rnd in dialogue.rounds[:up_to_round]:
        stu = tokenizer.encode(rnd.student_text)
        ids.append(tokenizer.STUDENT)
        ids.extend(stu)
        mask.extend([False] * (len(stu) + 1))
        tea = tokenizer.encode(rnd.teacher_text)
        ids.append(tokenizer.TEACHER)
        mask.append(False)
        start = len(ids)
        ids.extend(tea)
        mask.extend([True] * len(tea))
        spans.append((start, len(ids)))

    if len(ids) > context_window:
        span_len = spans[-1][1] - spans[-1][0]
        if span_len > context_window:
            raise DialogueError(
                f"{dialogue.sample_id}: final teacher span of {span_len} tokens "
                f"exceeds context window {context_window}"
            )
        drop = len(ids) - context_window
        ids = ids[drop:]
        mask = mask[drop:]
        spans = [(max(s - drop, 0), max(e - drop, 0)) for s, e in spans]

    return RenderedDialogue(
        token_ids=np.asarray(ids, dtype=np.int64),
        loss_mask=np.asarray(mask, dtype=bool),
        teacher_spans=spans,
    )


def render_prompt(code: str, tokenizer: ByteTokenizer, context_window: int = 2048) -> np.ndarray:
    """Classification prompt: system + round-1 student question + the teacher
    marker as the read-out position. Left-truncated to the window."""
    ids = [tokenizer.SYSTEM]
    ids.extend(tokenizer.encode(SYSTEM_PROMPT))
    ids.append(tokenizer.STUDENT)
    ids.extend(tokenizer.encode(ROUND1_STUDENT.format(code_snippet=code)))
    ids.append(tokenizer.TEACHER)
    if len(ids) > context_window:
        ids = ids[len(ids) - context_window:]
    return np.asarray(ids, dtype=np.int64)


# --- persistence -------------------------------------------------------------


def serialize_jsonl(dialogues: list[DialogueRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in dialogues:
            obj = {
                "sample_id": d.sample_id,
                "system": d.system_text,
                "rounds": [
                    {"student": r.student_text, "teacher": r.teacher_text} for r in d.rounds
                ],
                "label": d.label,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def parse_jsonl(path) -> list[DialogueRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                out.append(
                    DialogueRecord(
                        sample_id=obj["sample_id"],
                        system_text=obj["system"],
                        rounds=[
                            DialogueRound(student_text=r["student"], teacher_text=r["teacher"])
                            for r in obj["rounds"]
                        ],
                        label=obj["label"],
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DialogueError(f"{path}: bad dialogue at line {lineno}: {exc}") from exc
    return out
