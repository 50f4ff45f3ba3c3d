from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_corpus import make_sample
from msivd.dialogue import (
    NEGATIVE_ANSWER,
    SYSTEM_PROMPT,
    DialogueError,
    DialogueRecord,
    DialogueRound,
    build_dialogue,
    build_dialogues,
    build_negative_dialogue,
    parse_jsonl,
    render,
    render_prompt,
    serialize_jsonl,
)
from msivd.lm import ByteTokenizer

TOK = ByteTokenizer()


def positive():
    return make_sample(1, True, date(2022, 5, 1))


def negative():
    return make_sample(2, False, date(2022, 5, 1))


# --- dialogue construction ----------------------------------------------------


def test_positive_dialogue_has_three_rounds_and_templates():
    d = build_dialogue(positive())
    assert d.label is True
    assert len(d.rounds) == 3
    assert d.system_text == SYSTEM_PROMPT
    assert d.rounds[0].student_text.startswith("Does the following code have any security vulnerabilities: ")
    assert positive().code in d.rounds[0].student_text
    assert d.rounds[0].teacher_text == "Yes. The following code has a vulnerability type CWE-787."
    assert d.rounds[1].teacher_text.startswith("The vulnerability is: ")
    assert "test vulnerability" in d.rounds[1].teacher_text


def test_round3_contains_line_range_and_fix():
    d = build_dialogue(positive())
    assert "vulnerable at lines 2-3" in d.rounds[2].teacher_text
    assert "with the following fix: x = 0;" in d.rounds[2].teacher_text


def test_canonical_template_strings_pinned():
    # template wording (including its spelling) is a fixed interface;
    # trained models depend on the exact byte sequences
    d = build_dialogue(positive())
    assert d.rounds[1].student_text == "What is the description of the vulnerablity?"
    assert d.rounds[2].student_text == "Locate the lines that are vulnerable and should be repaired."
    assert d.system_text.startswith("You are an expert in detecting and locating")


def test_missing_description_names_field():
    s = positive()
    s.description = ""
    with pytest.raises(DialogueError, match="description"):
        build_dialogue(s)


def test_missing_fix_names_field():
    s = positive()
    s.fix_code = None
    with pytest.raises(DialogueError, match="fix_code"):
        build_dialogue(s)


def test_negative_dialogue_single_round_canonical_answer():
    d = build_negative_dialogue(negative())
    assert d.label is False
    assert len(d.rounds) == 1
    assert d.rounds[0].teacher_text == "The code does not have a security vulnerability."
    assert d.rounds[0].teacher_text == NEGATIVE_ANSWER


def test_negative_builder_rejects_positive():
    with pytest.raises(DialogueError, match="negative"):
        build_negative_dialogue(positive())


def test_positive_builder_rejects_negative():
    with pytest.raises(DialogueError, match="positive"):
        build_dialogue(negative())


def test_round_count_law():
    assert len(build_dialogue(positive()).rounds) == 3
    assert len(build_negative_dialogue(negative()).rounds) == 1


def test_record_invariant_enforced():
    with pytest.raises(DialogueError, match="3 rounds"):
        DialogueRecord(sample_id="x", system_text=SYSTEM_PROMPT,
                       rounds=[DialogueRound("q", "a")], label=True)


# --- rendering ------------------------------------------------------------------


def test_mask_counts_teacher_tokens_exactly():
    d = DialogueRecord(
        sample_id="m", system_text="sys",
        rounds=[DialogueRound(student_text="q?", teacher_text="five!")], label=False,
    )
    r = render(d, TOK, up_to_round=1, context_window=128)
    assert int(r.loss_mask.sum()) == len(TOK.encode("five!")) == 5
    masked = r.token_ids[r.loss_mask]
    assert TOK.decode(masked) == "five!"


def test_three_disjoint_mask_spans():
    r = render(build_dialogue(positive()), TOK, up_to_round=3, context_window=2048)
    runs = np.diff(np.concatenate([[0], r.loss_mask.astype(int), [0]]))
    assert (runs == 1).sum() == 3  # three maximal true-runs


def test_left_truncation_arithmetic():
    # markers contribute 3 tokens: 1 + 1500 + 1 + 567 + 1 + 30 = 2100
    d = DialogueRecord(
        sample_id="t", system_text="s" * 1500,
        rounds=[DialogueRound(student_text="q" * 567, teacher_text="a" * 30)], label=False,
    )
    full = render(d, TOK, context_window=4096)
    assert full.token_ids.shape[0] == 2100
    cut = render(d, TOK, context_window=2048)
    assert cut.token_ids.shape[0] == 2048
    assert np.array_equal(cut.token_ids, full.token_ids[52:])
    assert int(cut.loss_mask.sum()) == 30  # final teacher span intact


def test_final_teacher_span_too_long_errors():
    d = DialogueRecord(
        sample_id="t", system_text="s",
        rounds=[DialogueRound(student_text="q", teacher_text="a" * 300)], label=False,
    )
    with pytest.raises(DialogueError, match="final teacher span"):
        render(d, TOK, context_window=256)


def test_render_deterministic():
    d = build_dialogue(positive())
    a = render(d, TOK, context_window=2048)
    b = render(d, TOK, context_window=2048)
    assert np.array_equal(a.token_ids, b.token_ids)
    assert np.array_equal(a.loss_mask, b.loss_mask)


def test_up_to_round_bounds():
    d = build_dialogue(positive())
    with pytest.raises(DialogueError, match="up_to_round"):
        render(d, TOK, up_to_round=4)
    with pytest.raises(DialogueError, match="up_to_round"):
        render(d, TOK, up_to_round=0)


def test_render_prompt_ends_with_teacher_marker():
    ids = render_prompt("x = 1;", TOK, context_window=512)
    assert ids[-1] == TOK.TEACHER
    assert ids[0] == TOK.SYSTEM


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3))
def test_mask_true_runs_equal_up_to_round(k):
    r = render(build_dialogue(positive()), TOK, up_to_round=k, context_window=4096)
    runs = np.diff(np.concatenate([[0], r.loss_mask.astype(int), [0]]))
    assert (runs == 1).sum() == k


# --- serialization ------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    dialogues = build_dialogues([make_sample(i, i % 3 == 0, date(2022, 6, 1)) for i in range(100)])
    assert [len(d.rounds) for d in dialogues[:3]] == [3, 1, 1]
    p = tmp_path / "dialogues.jsonl"
    serialize_jsonl(dialogues, p)
    again = parse_jsonl(p)
    assert again == dialogues


def test_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert parse_jsonl(p) == []


def test_truncated_line_reports_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    serialize_jsonl([build_negative_dialogue(negative())], p)
    with open(p, "a", encoding="utf-8") as fh:
        fh.write('{"sample_id": "oops", "system": "s"\n')
    with pytest.raises(DialogueError, match="line 2"):
        parse_jsonl(p)


def test_jsonl_keys_are_exact(tmp_path):
    import json

    p = tmp_path / "d.jsonl"
    serialize_jsonl([build_negative_dialogue(negative())], p)
    obj = json.loads(p.read_text())
    assert set(obj) == {"sample_id", "system", "rounds", "label"}
    assert set(obj["rounds"][0]) == {"student", "teacher"}
