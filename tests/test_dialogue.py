from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_corpus import make_sample
from helpers_fuzz import FUZZ, cases, mutate
from msivd.dialogue import (
    MIN_PROMPT_WINDOW,
    NEGATIVE_ANSWER,
    ROUND1_STUDENT,
    SYSTEM_PROMPT,
    DialogueError,
    DialogueRecord,
    DialogueRound,
    build_dialogue,
    build_dialogues,
    build_negative_dialogue,
    parse_jsonl,
    prompt_scaffold,
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


def teacher_mask(r) -> np.ndarray:
    """The positions that carry the loss: the union of the teacher spans."""
    mask = np.zeros(r.token_ids.shape[0], dtype=bool)
    for start, end in r.teacher_spans:
        mask[start:end] = True
    return mask


def test_mask_counts_teacher_tokens_exactly():
    d = DialogueRecord(
        sample_id="m", system_text="sys",
        rounds=[DialogueRound(student_text="q?", teacher_text="five!")], label=False,
    )
    r = render(d, TOK, up_to_round=1, context_window=128)
    assert int(teacher_mask(r).sum()) == len(TOK.encode("five!")) == 5
    masked = r.token_ids[teacher_mask(r)]
    assert TOK.decode(masked) == "five!"


def test_three_disjoint_mask_spans():
    r = render(build_dialogue(positive()), TOK, up_to_round=3, context_window=2048)
    runs = np.diff(np.concatenate([[0], teacher_mask(r).astype(int), [0]]))
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
    assert int(teacher_mask(cut).sum()) == 30  # final teacher span intact


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
    assert a.teacher_spans == b.teacher_spans


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


SCAFFOLD = prompt_scaffold(TOK)


def _untruncated_prompt(code: str) -> list[int]:
    """The prompt as one template with no window: system, round-1 question
    with the code, teacher marker."""
    return [TOK.SYSTEM, *TOK.encode(SYSTEM_PROMPT), TOK.STUDENT,
            *TOK.encode(ROUND1_STUDENT.format(code_snippet=code)), TOK.TEACHER]


def test_scaffold_is_the_prompt_up_to_the_code():
    assert len(SCAFFOLD) == 186
    assert MIN_PROMPT_WINDOW == len(SCAFFOLD) + 2 == 188  # one code id and <|teacher|>
    assert TOK.decode(SCAFFOLD) == (
        "<|system|>" + SYSTEM_PROMPT + "<|student|>Does the following code have any security vulnerabilities: "
    )


@settings(max_examples=200, deadline=None)
@given(code=st.text(max_size=400), window=st.integers(min_value=len(SCAFFOLD) + 2, max_value=700))
def test_render_prompt_laws(code, window):
    """Scaffold first, marker last, within the window, the code's tail kept,
    and the one-template ids whenever they fit."""
    ids = render_prompt(code, TOK, context_window=window).tolist()
    whole = _untruncated_prompt(code)
    code_ids = TOK.encode(code)
    assert ids[: len(SCAFFOLD)] == SCAFFOLD
    assert ids[-1] == TOK.TEACHER
    assert len(ids) == min(len(whole), window)
    kept = ids[len(SCAFFOLD):-1]
    assert kept == code_ids[len(code_ids) - len(kept):]
    if len(whole) <= window:
        assert ids == whole


@given(code=st.text(max_size=50), window=st.integers(min_value=1, max_value=len(SCAFFOLD) + 1))
def test_render_prompt_window_too_small_for_the_scaffold_errors(code, window):
    with pytest.raises(DialogueError, match="scaffold"):
        render_prompt(code, TOK, context_window=window)


def test_render_prompt_drops_code_not_scaffold():
    code = "".join(f"line{i};\n" for i in range(100))
    ids = render_prompt(code, TOK, context_window=512)
    assert len(ids) == 512
    assert ids[: len(SCAFFOLD)].tolist() == SCAFFOLD
    assert TOK.decode(ids[len(SCAFFOLD):-1]) == code[len(code) - (512 - len(SCAFFOLD) - 1):]


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3))
def test_mask_true_runs_equal_up_to_round(k):
    r = render(build_dialogue(positive()), TOK, up_to_round=k, context_window=4096)
    runs = np.diff(np.concatenate([[0], teacher_mask(r).astype(int), [0]]))
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


def test_ill_typed_value_echo_is_cut(tmp_path):
    """A bad value is echoed as its first 80 characters of JSON, so a huge
    one does not flood the error (6,080 characters uncut)."""
    import json

    label = [[0] * 50] * 40
    p = tmp_path / "big.jsonl"
    p.write_text(json.dumps({"sample_id": "x", "system": "s", "rounds": [], "label": label}) + "\n")
    with pytest.raises(DialogueError) as info:
        parse_jsonl(p)
    assert str(info.value).endswith(f"dialogue key 'label' must be bool, got {json.dumps(label)[:80]}")
    assert len(str(info.value)) < 80 + len(str(p)) + 60


def test_jsonl_keys_are_exact(tmp_path):
    import json

    p = tmp_path / "d.jsonl"
    serialize_jsonl([build_negative_dialogue(negative())], p)
    obj = json.loads(p.read_text())
    assert set(obj) == {"sample_id", "system", "rounds", "label"}
    assert set(obj["rounds"][0]) == {"student", "teacher"}


@pytest.mark.parametrize(
    "line, match",
    [
        pytest.param(b"[1]", "JSON object", id="not_an_object"),
        pytest.param(b'{"sample_id": "x"}', "label", id="missing_keys"),
        pytest.param(b"\xff", "utf-8", id="not_utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "recursion depth", id="nested_too_deeply"),
        pytest.param(b'{"sample_id": "x", "system": "s", "rounds": [{"student": "q", "teacher": "a"}], '
                     b'"label": "no"}', "dialogue key 'label' must be bool", id="label_string"),
        pytest.param(b'{"sample_id": "x", "system": "s", "rounds": [{"student": "q", "teacher": "a"}], '
                     b'"label": 0}', "dialogue key 'label' must be bool", id="label_int"),
        pytest.param(b'{"sample_id": "x", "system": "s", "rounds": [{"student": "q", "teacher": 5}], '
                     b'"label": false}', "teacher", id="teacher_not_string"),
        pytest.param(b'{"sample_id": "x", "system": "s", "rounds": ["q"], "label": false}', "",
                     id="round_not_an_object"),
        pytest.param(b'{"sample_id": "x", "system": "s", "rounds": 3, "label": false}', "",
                     id="rounds_not_a_list"),
    ],
)
def test_hostile_line_raises_dialogue_error_naming_it(tmp_path, line, match):
    p = tmp_path / "hostile.jsonl"
    serialize_jsonl([build_negative_dialogue(negative())], p)
    with open(p, "ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(DialogueError, match=f"line 2: .*{match}"):
        parse_jsonl(p)


DIALOGUE = {
    "sample_id": "S0001",
    "system": SYSTEM_PROMPT,
    "rounds": [{"student": f"question {i}", "teacher": f"answer {i}"} for i in range(1, 4)],
    "label": True,
}


@FUZZ
@given(st.sampled_from(cases(DIALOGUE)))
def test_fuzzed_dialogue_line_raises_dialogue_error_or_reads_back(tmp_path, case):
    """A dialogues line with one value broken raises DialogueError, or reads
    as a dialogue that writes and reads back unchanged."""
    p = tmp_path / "fuzzed.jsonl"
    p.write_text(mutate(DIALOGUE, *case) + "\n", encoding="utf-8")
    try:
        dialogues = parse_jsonl(p)
    except DialogueError:
        return
    serialize_jsonl(dialogues, p)
    assert parse_jsonl(p) == dialogues
