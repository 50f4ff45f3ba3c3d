import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_corpus import (
    VULN_PRE,
    fixture_dump,
    fixture_entry,
    make_sample,
    uniform_samples,
)
from msivd.corpus import (
    AttackComplexity,
    CodeSample,
    CorpusError,
    CweCategory,
    DropReason,
    Severity,
    SplitSpec,
    apply_exclusion_filters,
    classify_cwe,
    filter_patch_records,
    make_negative_sample,
    make_split,
    mix_to_ratio,
    parse_nvd_dump,
    read_samples_jsonl,
    split_into_file_samples,
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


def test_parse_nvd_v2_shape():
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
    (rec,) = parse_nvd_dump(json.dumps(doc).encode())
    assert rec.exploitability_score == pytest.approx(2.8)
    assert rec.severity is Severity.MEDIUM
    assert rec.cwe_id == "CWE-770"
    assert rec.patch_links


# --- filter_patch_records ------------------------------------------------------


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
    kept = filter_patch_records(records)
    assert [r.cve_id for r in kept] == ["CVE-2023-0000", "CVE-2023-0001", "CVE-2023-0002"]


def test_github_commit_link_without_patch_tag_dropped():
    entry = fixture_entry(
        references=[{"url": "https://github.com/a/b/commit/deadbeef", "tags": ["Exploit"]}]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    assert filter_patch_records([rec]) == []


def test_filter_empty_input():
    assert filter_patch_records([]) == []


# --- sample construction ----------------------------------------------------------


def test_one_positive_sample_per_patch():
    entry = fixture_entry(
        patches=[
            {"path": f"f{i}.c", "pre_code": VULN_PRE, "post_code": "", "changed_ranges": [[2, 3]]}
            for i in range(3)
        ]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    samples = split_into_file_samples(rec)
    assert len(samples) == 3
    assert all(s.label for s in samples)
    assert all(s.origin_date == rec.fix_commit_date for s in samples)


def test_window_contains_changed_lines():
    lines = [f"  line_{i} = {i};" for i in range(1, 501)]
    lines[349:375] = [f"  vuln_{i} = taint();" for i in range(350, 376)]
    pre = "int big() {\n" + "\n".join(lines) + "\n}"
    entry = fixture_entry(
        patches=[{"path": "big.c", "pre_code": pre, "post_code": pre, "changed_ranges": [[351, 376]]}]
    )
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    (sample,) = split_into_file_samples(rec, window_tokens=2048)
    assert "vuln_350" in sample.code and "vuln_375" in sample.code
    window_lines = sample.code.splitlines()
    assert window_lines[sample.vuln_line_start - 1].startswith("  vuln_350")
    assert window_lines[sample.vuln_line_end - 1].startswith("  vuln_375")
    assert len(sample.code.encode()) <= 2048


def test_record_with_no_patches_errors():
    entry = fixture_entry(patches=[])
    (rec,) = parse_nvd_dump(fixture_dump([entry]))
    with pytest.raises(CorpusError, match="no file patches"):
        split_into_file_samples(rec)


def test_negative_sample_uses_post_fix_code():
    (rec,) = parse_nvd_dump(fixture_dump([fixture_entry()]))
    neg = make_negative_sample(rec, 0)
    assert neg.label is False
    assert neg.vuln_line_start is None and neg.vuln_line_end is None
    assert neg.fix_code is None
    assert "copy_safe" in neg.code


def test_negative_sample_bad_index_errors():
    (rec,) = parse_nvd_dump(fixture_dump([fixture_entry()]))
    with pytest.raises(CorpusError, match="out of range"):
        make_negative_sample(rec, 5)


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


def test_negative_rows_omit_vuln_fields(tmp_path):
    p = tmp_path / "samples.jsonl"
    write_samples_jsonl([make_sample(1, False, date(2022, 2, 2))], p)
    obj = json.loads(p.read_text().strip())
    assert "vuln_line_start" not in obj and "fix_code" not in obj
    assert set(obj) == {
        "sample_id", "code", "label", "cwe_id", "cwe_category", "description", "origin_date",
    }
