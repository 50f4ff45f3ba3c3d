import json
import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_corpus import (
    VULN_POST,
    VULN_PRE,
    fixture_dump,
    fixture_entry,
    make_sample,
    uniform_samples,
)
from helpers_fuzz import FUZZ, cases, mutate
from msivd.corpus import (
    AttackComplexity,
    CodeSample,
    CorpusError,
    CweCategory,
    DropReason,
    IngestResult,
    Severity,
    SplitSpec,
    apply_exclusion_filters,
    classify_cwe,
    ingest_records,
    make_split,
    mix_to_ratio,
    parse_nvd_dump,
    read_samples_jsonl,
    write_samples_jsonl,
)

FIG3B_DESCRIPTION = (
    "MeterSphere is an open source continuous testing platform. Version 2.9.1 "
    "and prior are vulnerable to denial of service. The checkPassword method "
    "checks whether the user-provided password matches the password saved in "
    "the database."
)


# --- parse_nvd_dump ---------------------------------------------------------


def test_parse_keeps_only_entries_with_references():
    dump = fixture_dump(
        [
            fixture_entry(cve_id="CVE-2023-0001"),
            fixture_entry(cve_id="CVE-2023-0002", references=[]),
            fixture_entry(cve_id="CVE-2023-0003"),
        ]
    )
    records = parse_nvd_dump(dump)
    assert [r.cve_id for r in records] == ["CVE-2023-0001", "CVE-2023-0003"]


def test_parse_metersphere_style_entry():
    dump = fixture_dump(
        [
            fixture_entry(
                cve_id="CVE-2023-32699",
                cwe_id="CWE-770",
                description=FIG3B_DESCRIPTION,
                severity="medium",
                attack_complexity="low",
                exploitability_score=2.8,
            )
        ]
    )
    (rec,) = parse_nvd_dump(dump)
    assert rec.cve_id == "CVE-2023-32699"
    assert rec.severity is Severity.MEDIUM
    assert rec.attack_complexity is AttackComplexity.LOW
    assert rec.exploitability_score == pytest.approx(2.8)


def test_parse_empty_array():
    assert parse_nvd_dump(b"[]") == []


def test_parse_malformed_json_names_byte_offset():
    with pytest.raises(CorpusError, match="byte offset"):
        parse_nvd_dump(b'{"records": [}')


@pytest.mark.parametrize(
    "raw, match",
    [
        pytest.param(b'[{"cve_id": "CVE-\xff"}]', "not UTF-8 at byte offset 17", id="not_utf8"),
        pytest.param(b'{"records": 7}', "must be a JSON list, got 7", id="records_not_list"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "nested too deeply", id="nested_too_deeply"),
        pytest.param(b'{"records": [' + b"9" * 5000 + b"]}", "unreadable JSON: Exceeds the limit", id="huge_integer"),
    ],
)
def test_parse_hostile_dump_raises_corpus_error(raw, match):
    with pytest.raises(CorpusError, match=match):
        parse_nvd_dump(raw)


@pytest.mark.parametrize(
    "doc, reason",
    [
        pytest.param([1], "record must be a JSON object, got 1", id="fixture_entry_not_object"),
        pytest.param({"records": ["CVE-1"]}, "record must be a JSON object", id="record_not_object"),
        pytest.param([fixture_entry(cve_id=5)], "record key 'cve_id' must be str, got 5", id="cve_id_not_string"),
        pytest.param([fixture_entry(cve_id="")], "cve_id must be nonempty", id="cve_id_empty"),
        pytest.param([fixture_entry(references=5)], "no reference URLs", id="references_not_list"),
        pytest.param([fixture_entry(severity=None)], "record key 'severity' must be Severity, got null",
                     id="severity_null"),
        pytest.param([fixture_entry(attack_complexity="bogus")], "'bogus' is not a valid AttackComplexity",
                     id="attack_complexity_bogus"),
        pytest.param([fixture_entry(exploitability_score="x")],
                     "record key 'exploitability_score' must be float, got \"x\"", id="exploitability_score_not_number"),
        pytest.param([fixture_entry(cwe_id=5)], "record key 'cwe_id' must be str, got 5", id="cwe_id_not_string"),
        pytest.param([fixture_entry(description=5)], "record key 'description' must be str, got 5",
                     id="description_not_string"),
        pytest.param([fixture_entry(description="a\ud800")], "record key 'description' must be str, got \"a\\ud800\"",
                     id="description_lone_surrogate"),
        pytest.param([fixture_entry(references=[{"url": 5, "tags": ["Patch"]}])],
                     "reference url must be a string, got 5", id="reference_url_not_string"),
        pytest.param([fixture_entry(patches=[{"path": "a.c", "pre_code": VULN_PRE, "post_code": 5}])],
                     "patch key 'post_code' must be str, got 5", id="post_code_not_string"),
        pytest.param([fixture_entry(patches=[{"path": ["a.c"], "pre_code": VULN_PRE}])],
                     "patch key 'path' must be str, got [\"a.c\"]", id="path_not_string"),
        pytest.param([fixture_entry(patches=[{"path": "a.c"}])], "patch is missing key(s) 'pre_code'",
                     id="pre_code_missing"),
        *(
            pytest.param(
                [fixture_entry(patches=[{"path": "a.c", "pre_code": VULN_PRE, "changed_ranges": [r]}])],
                f"a.c: changed range {r} is not a line pair within 1-7",
                id=f"changed_range_{name}",
            )
            for name, r in [("past_end", [50, 60]), ("zero", [0, 2]), ("reversed", [4, 3])]
        ),
        *(
            pytest.param(
                [fixture_entry(patches=[{"path": "a.c", "pre_code": VULN_PRE, "changed_ranges": [r]}])],
                f"patch key 'changed_ranges' must be list[tuple[int, int]], got {json.dumps([r])}",
                id=f"changed_range_{name}",
            )
            for name, r in [("not_pair", [1]), ("not_int", [1, 2.5]), ("bool", [True, 2])]
        ),
    ],
)
def test_parse_skips_malformed_entry_with_logged_reason(caplog, doc, reason):
    """A malformed entry is skipped and logged; the good entry after it
    still parses."""
    good = fixture_entry(cve_id="CVE-2023-0010")
    if isinstance(doc, list):
        doc = doc + [good]
    elif "records" in doc:
        doc = {"records": doc["records"] + [good]}
    with caplog.at_level("INFO", logger="msivd.corpus"):
        records = parse_nvd_dump(json.dumps(doc).encode())
    assert [r.cve_id for r in records] == ["CVE-2023-0010"]
    assert any(reason in m for m in caplog.messages)


DUMP = json.loads(fixture_dump([fixture_entry()]))


@FUZZ
@given(st.sampled_from(cases(DUMP)))
def test_fuzzed_dump_entry_is_skipped_or_ingests_and_reads_back(tmp_path, caplog, case):
    """A dump with one value broken raises CorpusError, or skips its entry
    with a logged reason, or ingests, with and without ``cpp_only``, into
    samples that write and read back unchanged."""
    caplog.clear()
    with caplog.at_level("INFO", logger="msivd.corpus"):
        try:
            records = parse_nvd_dump(mutate(DUMP, *case).encode("utf-8"))
        except CorpusError:
            return
    if not records:
        assert any(m.startswith("skipping ") for m in caplog.messages)
    for cpp_only in (False, True):
        result = ingest_records(records, cpp_only=cpp_only)
        samples = result.positives + result.negatives
        write_samples_jsonl(samples, tmp_path / "samples.jsonl")
        assert read_samples_jsonl(tmp_path / "samples.jsonl") == samples


def test_parse_missing_mandatory_field_skips_record(caplog):
    entry = fixture_entry(cve_id="CVE-2023-0009")
    del entry["severity"]
    with caplog.at_level("WARNING", logger="msivd.corpus"):
        records = parse_nvd_dump(fixture_dump([entry, fixture_entry(cve_id="CVE-2023-0010")]))
    assert [r.cve_id for r in records] == ["CVE-2023-0010"]
    assert any("CVE-2023-0009" in m for m in caplog.messages)


def test_parse_missing_cwe_becomes_unknown():
    entry = fixture_entry()
    entry["cwe_id"] = None
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    assert rec.cwe_id == "CWE-unknown"


def test_nvd_v2_dump_is_rejected():
    """An NVD v2 API dump carries no patch code, so no sample could come
    of it: it is refused as a whole rather than read as zero samples."""
    doc = {
        "vulnerabilities": [
            {
                "cve": {
                    "id": "CVE-2023-32699",
                    "published": "2023-05-17T20:15:00",
                    "descriptions": [{"lang": "en", "value": FIG3B_DESCRIPTION}],
                    "weaknesses": [{"description": [{"lang": "en", "value": "CWE-770"}]}],
                    "metrics": {
                        "cvssMetricV31": [
                            {
                                "cvssData": {"baseSeverity": "MEDIUM", "attackComplexity": "LOW"},
                                "exploitabilityScore": 2.8,
                            }
                        ]
                    },
                    "references": [
                        {"url": "https://github.com/metersphere/metersphere/commit/d50a", "tags": ["Patch"]}
                    ],
                }
            }
        ]
    }
    with pytest.raises(CorpusError, match="unrecognized dump shape"):
        parse_nvd_dump(json.dumps(doc).encode())


# --- ingest_records -------------------------------------------------------------


def test_filter_keeps_patch_tagged_commit_links():
    entries = []
    for i in range(10):
        if i < 3:
            refs = [{"url": f"https://github.com/a/b/commit/{i}", "tags": ["Patch"]}]
        elif i < 6:
            refs = [{"url": f"https://github.com/a/b/commit/{i}", "tags": []}]  # commit, no tag
        else:
            refs = [{"url": f"https://example.org/advisory/{i}", "tags": ["Third Party Advisory"]}]
        entries.append(fixture_entry(cve_id=f"CVE-2023-{i:04d}", references=refs))
    records = parse_nvd_dump(fixture_dump(entries))
    assert len(records) == 10
    result = ingest_records(records)
    assert result.records_with_patch_links == 3
    kept = sorted({s.sample_id.split(":")[0] for s in result.positives + result.negatives})
    assert kept == ["CVE-2023-0000", "CVE-2023-0001", "CVE-2023-0002"]


def test_github_commit_link_without_patch_tag_dropped():
    entry = fixture_entry(
        references=[{"url": "https://github.com/a/b/commit/deadbeef", "tags": ["Exploit"]}]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    result = ingest_records([rec])
    assert result.records_with_patch_links == 0
    assert result.positives == [] and result.negatives == []


def test_filter_empty_input():
    assert ingest_records([]) == ingest_records([], cpp_only=True) == IngestResult()


def test_one_positive_sample_per_patch():
    entry = fixture_entry(
        patches=[
            {"path": f"f{i}.c", "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": [[2, 3]]}
            for i in range(3)
        ]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    result = ingest_records([rec])
    samples = result.positives
    assert [s.sample_id for s in samples] == [f"CVE-2023-0001:f{i}.c:pos" for i in range(3)]
    assert all(s.label for s in samples)
    assert all(s.origin_date == rec.fix_commit_date for s in samples)


def test_window_contains_changed_lines():
    # every line ends in a brace, so a window cut inside the function is complete code
    lines = [f"  {{ line_{i} = {i}; }}" for i in range(1, 501)]
    lines[349:375] = [f"  {{ vuln_{i} = taint(); }}" for i in range(350, 376)]
    pre = "int big() {\n" + "\n".join(lines) + "\n}"
    entry = fixture_entry(
        patches=[{"path": "big.c", "pre_code": pre, "post_code": pre, "changed_ranges": [[351, 376]]}]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    (sample,) = ingest_records([rec], window_tokens=2048).positives
    assert "vuln_350" in sample.code and "vuln_375" in sample.code
    window_lines = sample.code.splitlines()
    assert window_lines[sample.vuln_line_start - 1].startswith("  { vuln_350")
    assert window_lines[sample.vuln_line_end - 1].startswith("  { vuln_375")
    assert len(sample.code.encode()) <= 2048


def test_changed_blank_last_line_stays_in_the_window(tmp_path):
    """Pre-fix code of 7 lines by ``splitlines`` whose last is blank, with the
    changed range [7, 7] on it: the window's text keeps that blank line, so
    the positive's vulnerable lines lie inside its code, it reads back from
    samples JSONL, and the dump's other patch ingests too."""
    pre = "int f(int n) {\n  buf = read_input(n);\n  len = n + 1;\n  copy_input(buf, len);\n  return len;\n}\n\n"
    assert len(pre.splitlines()) == 7
    entry = fixture_entry(
        patches=[
            {"path": "blank.c", "pre_code": pre, "post_code": VULN_POST, "changed_ranges": [[7, 7]]},
            {"path": "other.c", "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": [[4, 4]]},
        ]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    result = ingest_records([rec])
    blank, other = result.positives
    assert (blank.sample_id, other.sample_id) == ("CVE-2023-0001:blank.c:pos", "CVE-2023-0001:other.c:pos")
    assert blank.code == pre and (blank.vuln_line_start, blank.vuln_line_end) == (7, 7)
    assert result.dropped == {} and len(result.negatives) == 2
    path = tmp_path / "samples.jsonl"
    write_samples_jsonl(result.positives, path)
    assert read_samples_jsonl(path) == result.positives


def test_record_with_no_patches_gives_no_samples():
    (rec,) = parse_nvd_dump(fixture_dump([fixture_entry(patches=[])]))
    assert ingest_records([rec]) == IngestResult(records_with_patch_links=1)


def test_negative_sample_uses_post_fix_code():
    (rec,) = parse_nvd_dump(fixture_dump([fixture_entry()]))
    (neg,) = ingest_records([rec]).negatives
    assert neg.label is False
    assert neg.vuln_line_start is None and neg.vuln_line_end is None
    assert neg.fix_code is None
    assert "copy_safe" in neg.code


def test_cpp_only_skips_other_languages_and_counts_them():
    entry = fixture_entry(
        patches=[
            {"path": path, "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": [[4, 4]]}
            for path in ("a.c", "b.py", "C.HPP")
        ]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    result = ingest_records([rec], cpp_only=True)
    assert result.skipped_non_cpp == 1
    assert sorted(s.sample_id for s in result.positives) == ["CVE-2023-0001:C.HPP:pos", "CVE-2023-0001:a.c:pos"]


def test_drops_count_positives_only():
    """A patch without changed lines drops its positive (counted) and keeps
    its negative; a patch with blank post code has no negative, and its
    positive, which would have a blank fix, is dropped as NoFix. The one
    kept positive has a fix."""
    entry = fixture_entry(
        patches=[
            {"path": "a.c", "pre_code": VULN_PRE, "post_code": VULN_POST},
            {"path": "b.c", "pre_code": VULN_PRE, "post_code": " \n", "changed_ranges": [[4, 4]]},
            {"path": "c.c", "pre_code": VULN_PRE, "post_code": "", "changed_ranges": [[4, 4]]},
            {"path": "d.c", "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": [[4, 4]]},
        ]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    result = ingest_records([rec])
    assert result.dropped == {DropReason.NO_CHANGE.value: 1, DropReason.NO_FIX.value: 2}
    assert [s.sample_id for s in result.positives] == ["CVE-2023-0001:d.c:pos"]
    assert [s.sample_id for s in result.negatives] == ["CVE-2023-0001:a.c:neg", "CVE-2023-0001:d.c:neg"]


def test_mix_presets_reach_target_prevalence():
    pos = [make_sample(i, True, date(2022, 1, 1)) for i in range(100)]
    neg = [make_sample(1000 + i, False, date(2022, 1, 1)) for i in range(1000)]
    mixed = mix_to_ratio(pos, neg, preset="precisebugs", seed=0)
    share = sum(s.label for s in mixed) / len(mixed)
    assert share == pytest.approx(0.20, abs=0.01)
    mixed_bv = mix_to_ratio(pos, neg, preset="bigvul", seed=0)
    share_bv = sum(s.label for s in mixed_bv) / len(mixed_bv)
    assert share_bv == pytest.approx(0.06, abs=0.01)


# --- exclusion filters ---------------------------------------------------------------


def _filter_sample(code, label=True):
    n = len(code.splitlines())
    return CodeSample(
        sample_id="f", code=code, label=label, cwe_id="CWE-787",
        cwe_category=CweCategory.BUFFER_ERROR, description="d",
        origin_date=date(2022, 1, 1),
        vuln_line_start=1 if label else None, vuln_line_end=min(1, n) if label else None,
        fix_code="x" if label else None,
    )


def test_incomplete_function_dropped():
    s = _filter_sample("int f(\n  a,\n  b,\n  c,\n  d);")
    assert apply_exclusion_filters(s, 0.1) is DropReason.INCOMPLETE


def test_not_ending_in_brace_dropped():
    s = _filter_sample("int f() {\n  x = 1;\n  y = 2;\n  z = 3;\n  return x;")
    assert apply_exclusion_filters(s, 0.1) is DropReason.INCOMPLETE


def test_mass_rewrite_dropped():
    s = _filter_sample("int f() {\n  a = 1;\n  b = 2;\n  c = 3;\n  return a;\n}")
    assert apply_exclusion_filters(s, 0.8) is DropReason.MASS_REWRITE


def test_too_short_dropped():
    s = _filter_sample("int f() {\n  x = 1;\n}")
    assert apply_exclusion_filters(s, 0.1) is DropReason.TOO_SHORT


def test_no_change_dropped():
    s = _filter_sample("int f() {\n  a = 1;\n  b = 2;\n  c = 3;\n  return a;\n}")
    assert apply_exclusion_filters(s, 0.0) is DropReason.NO_CHANGE


def test_complete_function_kept_and_filter_idempotent():
    code = "int f() {\n" + "\n".join(f"  v{i} = {i};" for i in range(18)) + "\n  return v0;\n}"
    s = _filter_sample(code)
    assert apply_exclusion_filters(s, 0.1) is None
    assert apply_exclusion_filters(s, 0.1) is None  # repeated application


# --- CWE categorization -----------------------------------------------------------------


def test_table_examples():
    assert classify_cwe("CWE-125") is CweCategory.BUFFER_ERROR
    assert classify_cwe("CWE-787") is CweCategory.BUFFER_ERROR
    assert classify_cwe("CWE-89") is CweCategory.INPUT_VALIDATION_ERROR
    assert classify_cwe("CWE-134") is CweCategory.INPUT_VALIDATION_ERROR
    assert classify_cwe("CWE-415") is CweCategory.RESOURCE_ERROR
    assert classify_cwe("CWE-404") is CweCategory.RESOURCE_ERROR
    assert classify_cwe("CWE-264") is CweCategory.PRIVILEGE_ESCALATION
    assert classify_cwe("CWE-255") is CweCategory.PRIVILEGE_ESCALATION
    assert classify_cwe("CWE-190") is CweCategory.VALUE_ERROR
    assert classify_cwe("CWE-369") is CweCategory.VALUE_ERROR
    assert classify_cwe("CWE-9999") is CweCategory.OTHER
    assert classify_cwe("CWE-unknown") is CweCategory.OTHER


@given(st.text(max_size=12))
def test_classify_never_raises(text):
    assert classify_cwe(text) in CweCategory


def test_category_totals_partition_dataset():
    samples = [
        make_sample(i, i % 2 == 0, date(2022, 3, 1), cwe_id=f"CWE-{cwe}")
        for i, cwe in enumerate([125, 89, 415, 264, 190, 434, 770, 787, 20, 9999])
    ]
    total = sum(len([s for s in samples if s.cwe_category == cat]) for cat in CweCategory)
    assert total == len(samples)


def test_category_shares_on_profile_fixture():
    # category mix mirroring the PreciseBugs profile: 27.3% buffer, 21.2% resource
    counts = {
        "CWE-787": 273, "CWE-134": 136, "CWE-415": 212,
        "CWE-264": 88, "CWE-190": 105, "CWE-434": 186,
    }
    samples = []
    i = 0
    for cwe, n in counts.items():
        for _ in range(n):
            samples.append(make_sample(i, False, date(2022, 5, 1), cwe_id=cwe))
            i += 1
    n_total = len(samples)
    buffer_share = len([s for s in samples if s.cwe_category == CweCategory.BUFFER_ERROR]) / n_total
    resource_share = len([s for s in samples if s.cwe_category == CweCategory.RESOURCE_ERROR]) / n_total
    assert buffer_share == pytest.approx(0.273, abs=0.005)
    assert resource_share == pytest.approx(0.212, abs=0.005)


# --- make_split -------------------------------------------------------------------------


def test_post_cutoff_goes_to_eval_or_test_only():
    samples = uniform_samples(100, post_cutoff=20)
    marker = make_sample(999, False, date(2023, 3, 1))
    samples = samples[:-1] + [marker]
    train, ev, te = make_split(samples, SplitSpec(seed=7))
    cutoff = date(2023, 1, 1)
    assert all(s.origin_date < cutoff for s in train)
    assert all(s.origin_date >= cutoff for s in ev + te)
    assert marker.sample_id in {s.sample_id for s in ev + te}


def test_split_sizes_80_10_10():
    samples = uniform_samples(100, post_cutoff=20)
    train, ev, te = make_split(samples, SplitSpec(seed=1))
    assert (len(train), len(ev), len(te)) == (80, 10, 10)


def test_split_disjoint_by_sample_id():
    samples = uniform_samples(100, post_cutoff=20)
    train, ev, te = make_split(samples, SplitSpec(seed=2))
    ids = [set(s.sample_id for s in part) for part in (train, ev, te)]
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
    assert len(ids[0] | ids[1] | ids[2]) == 100


def test_split_deterministic_byte_for_byte(tmp_path):
    samples = uniform_samples(100, post_cutoff=20)
    paths = []
    for run in range(2):
        train, ev, te = make_split(samples, SplitSpec(seed=3))
        p = tmp_path / f"run{run}.jsonl"
        write_samples_jsonl(train + ev + te, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.parametrize("ratios", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5)])
def test_split_spec_rejects_non_finite_ratios(ratios):
    with pytest.raises(CorpusError, match="non-finite split ratio"):
        SplitSpec(ratios=ratios)


def test_split_infeasible_lists_counts():
    samples = uniform_samples(50, post_cutoff=0)
    with pytest.raises(CorpusError, match="0 post-cutoff"):
        make_split(samples, SplitSpec())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_split_temporal_soundness_property(seed):
    samples = uniform_samples(60, post_cutoff=12)
    train, ev, te = make_split(samples, SplitSpec(seed=seed))
    assert all(s.origin_date >= date(2023, 1, 1) for s in ev + te)
    assert all(s.origin_date < date(2023, 1, 1) for s in train)


# --- serialization ------------------------------------------------------------------------


def test_samples_jsonl_round_trip(tmp_path):
    samples = uniform_samples(10, post_cutoff=2)
    p = tmp_path / "samples.jsonl"
    write_samples_jsonl(samples, p)
    again = read_samples_jsonl(p)
    assert again == samples


def _sample_line(**over) -> bytes:
    obj = {
        "sample_id": "x", "code": "int f(void) { return 0; }", "label": False, "cwe_id": "CWE-787",
        "cwe_category": "BufferError", "description": "d", "origin_date": "2022-02-02",
    }
    return json.dumps({**obj, **over}).encode("utf-8")


@pytest.mark.parametrize(
    "line, match",
    [
        pytest.param(b"[1]", "JSON object", id="not_an_object"),
        pytest.param(b'{"sample_id": "x"}', "label", id="missing_keys"),
        pytest.param(b'{"sample_id": "x", "label": false}', "code", id="missing_code"),
        pytest.param(b"\xff", "utf-8", id="not_utf8"),
        pytest.param(b"{", "Expecting", id="not_json"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "recursion depth", id="nested_too_deeply"),
        pytest.param(_sample_line(label="no"), "sample key 'label' must be bool", id="label_string"),
        pytest.param(_sample_line(label=1), "sample key 'label' must be bool", id="label_int"),
        pytest.param(_sample_line(cwe_category="Nonsense"), "Nonsense", id="bad_cwe_category"),
        pytest.param(_sample_line(code=5), "sample key 'code' must be str", id="code_not_string"),
        pytest.param(_sample_line(origin_date="soon"), "unparseable date", id="bad_date"),
        pytest.param(_sample_line(label=True, vuln_line_start="1", vuln_line_end=1), "", id="bad_vuln_lines"),
        pytest.param(_sample_line(label=True, vuln_line_start=1.5, vuln_line_end=2.0),
                     r"sample key 'vuln_line_start' must be int \| None, got 1.5", id="vuln_lines_float"),
        pytest.param(_sample_line(label=True, vuln_line_start=1, vuln_line_end=True),
                     r"sample key 'vuln_line_end' must be int \| None, got true", id="vuln_line_bool"),
        pytest.param(_sample_line(fix_code=5), r"sample key 'fix_code' must be str \| None, got 5",
                     id="fix_code_not_string"),
        pytest.param(_sample_line(vuln_line_start=-5, vuln_line_end=99), "negative sample with vulnerable lines -5-99",
                     id="negative_with_lines"),
    ],
)
def test_hostile_line_raises_corpus_error_naming_it(tmp_path, line, match):
    """Each case breaks one thing of a line that reads as it stands
    (``test_unbroken_sample_line_reads``)."""
    p = tmp_path / "hostile.jsonl"
    write_samples_jsonl([make_sample(1, False, date(2022, 2, 2))], p)
    with open(p, "ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(CorpusError, match=f"line 2: .*{match}"):
        read_samples_jsonl(p)


def test_ill_typed_value_echo_is_cut(tmp_path):
    """A bad value is echoed as its first 80 characters of JSON, so a huge
    one does not flood the error (6,080 characters uncut)."""
    p = tmp_path / "big.jsonl"
    p.write_bytes(_sample_line(code=[[0] * 50] * 40) + b"\n")
    with pytest.raises(CorpusError) as info:
        read_samples_jsonl(p)
    assert str(info.value).endswith(f"sample key 'code' must be str, got {json.dumps([[0] * 50] * 40)[:80]}")
    assert len(str(info.value)) < 80 + len(str(p)) + 60


SAMPLE = json.loads(_sample_line(label=True, vuln_line_start=1, vuln_line_end=1, fix_code="return 1;"))


@FUZZ
@given(st.sampled_from(cases(SAMPLE)))
def test_fuzzed_sample_line_raises_corpus_error_or_reads_back(tmp_path, case):
    """A samples line with one value broken raises CorpusError, or reads as
    a sample that writes and reads back unchanged."""
    p = tmp_path / "fuzzed.jsonl"
    p.write_text(mutate(SAMPLE, *case) + "\n", encoding="utf-8")
    try:
        samples = read_samples_jsonl(p)
    except CorpusError:
        return
    write_samples_jsonl(samples, p)
    assert read_samples_jsonl(p) == samples


def test_unbroken_sample_line_reads(tmp_path):
    p = tmp_path / "one.jsonl"
    p.write_bytes(_sample_line() + b"\n" + _sample_line(label=True, vuln_line_start=1, vuln_line_end=1) + b"\n")
    assert [s.label for s in read_samples_jsonl(p)] == [False, True]


def test_negative_rows_omit_vuln_fields(tmp_path):
    p = tmp_path / "samples.jsonl"
    write_samples_jsonl([make_sample(1, False, date(2022, 2, 2))], p)
    obj = json.loads(p.read_text().strip())
    assert "vuln_line_start" not in obj and "fix_code" not in obj
    assert set(obj) == {
        "sample_id", "code", "label", "cwe_id", "cwe_category", "description", "origin_date",
    }
