"""Vulnerability corpus ingestion, filtering, and cutoff-aware splitting.

Two input shapes are accepted by the parser: the NVD v2 API dump and this
project's fixture schema (see schemas/nvd_fixture.schema.json), which carries
patch code inline so no repository cloning is needed. All operations are pure
over immutable records; results are deterministic for a fixed seed.
"""
from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from datetime import date
from enum import Enum

log = logging.getLogger("msivd.corpus")

__all__ = [
    "CorpusError",
    "Severity",
    "AttackComplexity",
    "CweCategory",
    "DropReason",
    "FilePatch",
    "VulnerabilityRecord",
    "CodeSample",
    "SplitSpec",
    "parse_nvd_dump",
    "filter_patch_records",
    "split_into_file_samples",
    "make_negative_sample",
    "apply_exclusion_filters",
    "classify_cwe",
    "make_split",
    "mix_to_ratio",
    "MIX_PRESETS",
    "write_samples_jsonl",
    "read_samples_jsonl",
    "write_splits_json",
]


class CorpusError(ValueError):
    pass


class Severity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"


class AttackComplexity(str, Enum):
    LOW = "low"
    HIGH = "high"


class CweCategory(str, Enum):
    BUFFER_ERROR = "BufferError"
    INPUT_VALIDATION_ERROR = "InputValidationError"
    RESOURCE_ERROR = "ResourceError"
    PRIVILEGE_ESCALATION = "PrivilegeEscalation"
    VALUE_ERROR = "ValueError"
    OTHER = "Other"


class DropReason(str, Enum):
    INCOMPLETE = "Incomplete"
    NO_CHANGE = "NoChange"
    MASS_REWRITE = "MassRewrite"
    TOO_SHORT = "TooShort"


def _parse_date(value) -> date:
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value)[:10])
    except ValueError as exc:
        raise CorpusError(f"unparseable date {value!r}") from exc


@dataclass
class FilePatch:
    path: str
    pre_code: str
    post_code: str
    changed_ranges: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class VulnerabilityRecord:
    cve_id: str
    cwe_id: str
    description: str
    exploitability_score: float
    severity: Severity
    attack_complexity: AttackComplexity
    fix_commit_date: date
    patch_links: list[str] = field(default_factory=list)
    file_patches: list[FilePatch] = field(default_factory=list)

    def __post_init__(self):
        if not self.cve_id:
            raise CorpusError("cve_id must be nonempty")
        self.fix_commit_date = _parse_date(self.fix_commit_date)
        if not 0.0 <= float(self.exploitability_score) <= 10.0:
            raise CorpusError(f"exploitability_score out of range: {self.exploitability_score}")
        self.severity = Severity(self.severity)
        self.attack_complexity = AttackComplexity(self.attack_complexity)
        for p in self.file_patches:
            if not p.pre_code:
                raise CorpusError(f"{self.cve_id}: patch {p.path} has empty pre-code")


@dataclass
class CodeSample:
    sample_id: str
    code: str
    label: bool
    cwe_id: str
    cwe_category: CweCategory
    description: str
    origin_date: date
    vuln_line_start: int | None = None
    vuln_line_end: int | None = None
    fix_code: str | None = None

    def __post_init__(self):
        self.origin_date = _parse_date(self.origin_date)
        self.cwe_category = CweCategory(self.cwe_category)
        n_lines = len(self.code.splitlines())
        if n_lines < 1:
            raise CorpusError(f"{self.sample_id}: code is empty")
        if self.label:
            if self.vuln_line_start is None or self.vuln_line_end is None:
                raise CorpusError(f"{self.sample_id}: positive sample without vulnerable lines")
            if not 1 <= self.vuln_line_start <= self.vuln_line_end <= n_lines:
                raise CorpusError(
                    f"{self.sample_id}: vulnerable lines {self.vuln_line_start}-{self.vuln_line_end} "
                    f"outside 1-{n_lines}"
                )


@dataclass
class SplitSpec:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    cutoff_date: date = date(2023, 1, 1)
    seed: int = 0

    def __post_init__(self):
        self.cutoff_date = _parse_date(self.cutoff_date)
        if any(r < 0 for r in self.ratios):
            raise CorpusError(f"negative split ratio in {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise CorpusError(f"split ratios {self.ratios} do not sum to 1")


# --- parsing ------------------------------------------------------------------


def parse_nvd_dump(raw: bytes | str) -> list[VulnerabilityRecord]:
    """Parse a vulnerability dump (fixture schema or NVD v2 API schema).

    Emits one record per CVE entry carrying at least one reference URL;
    entries missing a mandatory field are skipped with a logged reason.
    ``patch_links`` collects the reference URLs tagged "Patch".
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc

    if isinstance(doc, dict) and "vulnerabilities" in doc:
        entries = [_from_nvd_v2(e) for e in doc["vulnerabilities"]]
    elif isinstance(doc, dict) and "records" in doc:
        entries = [_from_fixture(e) for e in doc["records"]]
    elif isinstance(doc, list):
        entries = [_from_fixture(e) for e in doc]
    else:
        raise CorpusError("unrecognized dump shape: expected 'vulnerabilities' or 'records'")

    records = [r for r in entries if r is not None]
    records.sort(key=lambda r: r.cve_id)
    return records


def _tagged_patch_links(references) -> tuple[list[str], int]:
    links = []
    total = 0
    for ref in references or []:
        url = ref.get("url") if isinstance(ref, dict) else None
        if not url:
            continue
        total += 1
        tags = ref.get("tags") or []
        if "Patch" in tags:
            links.append(url)
    return links, total


def _from_fixture(entry: dict) -> VulnerabilityRecord | None:
    cve_id = entry.get("cve_id", "")
    patch_links, n_refs = _tagged_patch_links(entry.get("references"))
    if n_refs == 0:
        log.info("skipping %s: no reference URLs", cve_id or "<missing id>")
        return None
    try:
        patches = [
            FilePatch(
                path=p["path"],
                pre_code=p["pre_code"],
                post_code=p.get("post_code", ""),
                changed_ranges=[tuple(r) for r in p.get("changed_ranges", [])],
            )
            for p in entry.get("patches", [])
        ]
        return VulnerabilityRecord(
            cve_id=cve_id,
            cwe_id=entry.get("cwe_id") or "CWE-unknown",
            description=entry.get("description", ""),
            exploitability_score=entry["exploitability_score"],
            severity=entry["severity"],
            attack_complexity=entry["attack_complexity"],
            fix_commit_date=entry["fix_commit_date"],
            patch_links=patch_links,
            file_patches=patches,
        )
    except (KeyError, CorpusError, TypeError) as exc:
        log.warning("skipping %s: %s", cve_id or "<missing id>", exc)
        return None


def _from_nvd_v2(entry: dict) -> VulnerabilityRecord | None:
    cve = entry.get("cve", {})
    cve_id = cve.get("id", "")
    patch_links, n_refs = _tagged_patch_links(cve.get("references"))
    if n_refs == 0:
        log.info("skipping %s: no reference URLs", cve_id or "<missing id>")
        return None
    try:
        desc = next(
            (d["value"] for d in cve.get("descriptions", []) if d.get("lang") == "en"),
            "",
        )
        cwe_id = "CWE-unknown"
        for weakness in cve.get("weaknesses", []):
            for d in weakness.get("description", []):
                if str(d.get("value", "")).startswith("CWE-"):
                    cwe_id = d["value"]
                    break
        metrics = cve.get("metrics", {})
        cvss_list = metrics.get("cvssMetricV31") or metrics.get("cvssMetricV30") or []
        if not cvss_list:
            raise KeyError("cvss metrics")
        cvss = cvss_list[0]
        data = cvss["cvssData"]
        return VulnerabilityRecord(
            cve_id=cve_id,
            cwe_id=cwe_id,
            description=desc,
            exploitability_score=cvss.get("exploitabilityScore", 0.0),
            severity=data["baseSeverity"].lower(),
            attack_complexity=data["attackComplexity"].lower(),
            fix_commit_date=cve.get("published", cve.get("lastModified")),
            patch_links=patch_links,
            file_patches=[],
        )
    except (KeyError, CorpusError, TypeError, StopIteration) as exc:
        log.warning("skipping %s: %s", cve_id or "<missing id>", exc)
        return None


def filter_patch_records(records: list[VulnerabilityRecord]) -> list[VulnerabilityRecord]:
    """Keep records with at least one Patch-tagged commit link; order preserved."""
    return [
        r for r in records
        if any("/commit/" in url for url in r.patch_links)
    ]


# --- sample construction --------------------------------------------------------


def _window_rng(seed: int, record: VulnerabilityRecord, path: str) -> random.Random:
    return random.Random(f"{seed}:{record.cve_id}:{path}")


def _select_window(
    lines: list[str], focus: tuple[int, int], max_tokens: int, rng: random.Random
) -> tuple[int, int]:
    """Pick a contiguous 1-based line window of at most ``max_tokens`` encoded
    bytes, containing ``focus`` when it fits, with a small seeded jitter."""
    n = len(lines)
    cost = [len(line.encode("utf-8")) + 1 for line in lines]
    lo = max(1, min(focus[0], n))
    hi = max(lo, min(focus[1], n))
    used = sum(cost[lo - 1 : hi])
    # trim an oversized focus region from the bottom
    while used > max_tokens and hi > lo:
        used -= cost[hi - 1]
        hi -= 1
    jitter = rng.randint(-2, 2)
    grow_up = jitter <= 0
    while True:
        grew = False
        if grow_up and lo > 1 and used + cost[lo - 2] <= max_tokens:
            lo -= 1
            used += cost[lo - 1]
            grew = True
        elif not grow_up and hi < n and used + cost[hi] <= max_tokens:
            hi += 1
            used += cost[hi - 1]
            grew = True
        else:
            # try the other direction before giving up
            if lo > 1 and used + cost[lo - 2] <= max_tokens:
                lo -= 1
                used += cost[lo - 1]
                grew = True
            elif hi < n and used + cost[hi] <= max_tokens:
                hi += 1
                used += cost[hi - 1]
                grew = True
        if not grew:
            return lo, hi
        grow_up = not grow_up


def split_into_file_samples(
    record: VulnerabilityRecord, window_tokens: int = 2048, seed: int = 0
) -> list[CodeSample]:
    """One positive sample per file patch: pre-change code in a bounded window
    around the changed lines, labelled with the record's metadata."""
    if not record.file_patches:
        raise CorpusError(f"{record.cve_id}: record has no file patches")
    samples = []
    for patch in record.file_patches:
        lines = patch.pre_code.splitlines()
        if not lines:
            log.warning("skipping %s:%s: no resolvable code", record.cve_id, patch.path)
            continue
        ranges = patch.changed_ranges or [(1, len(lines))]
        focus = (min(r[0] for r in ranges), max(r[1] for r in ranges))
        rng = _window_rng(seed, record, patch.path)
        lo, hi = _select_window(lines, focus, window_tokens, rng)
        window = "\n".join(lines[lo - 1 : hi])
        vs = max(focus[0], lo) - lo + 1
        ve = min(focus[1], hi) - lo + 1
        samples.append(
            CodeSample(
                sample_id=f"{record.cve_id}:{patch.path}:pos",
                code=window,
                label=True,
                cwe_id=record.cwe_id,
                cwe_category=classify_cwe(record.cwe_id),
                description=record.description,
                origin_date=record.fix_commit_date,
                vuln_line_start=vs,
                vuln_line_end=ve,
                fix_code=_fix_snippet(patch),
            )
        )
    return samples


def _fix_snippet(patch: FilePatch, context: int = 2) -> str:
    """Post-change lines covering the changed ranges (the proposed fix)."""
    lines = patch.post_code.splitlines()
    if not lines:
        return ""
    ranges = patch.changed_ranges or [(1, len(lines))]
    lo = max(1, min(r[0] for r in ranges) - context)
    hi = min(len(lines), max(r[1] for r in ranges) + context)
    return "\n".join(lines[lo - 1 : hi])


def make_negative_sample(
    record: VulnerabilityRecord, patch_index: int, window_tokens: int = 2048, seed: int = 0
) -> CodeSample:
    """Developer-fixed code as a non-vulnerable sample (no lines, no fix)."""
    if not 0 <= patch_index < len(record.file_patches):
        raise CorpusError(
            f"{record.cve_id}: patch index {patch_index} out of range "
            f"(have {len(record.file_patches)})"
        )
    patch = record.file_patches[patch_index]
    lines = patch.post_code.splitlines()
    if not lines:
        raise CorpusError(f"{record.cve_id}:{patch.path}: patch has no post-fix code")
    ranges = patch.changed_ranges or [(1, len(lines))]
    focus = (min(r[0] for r in ranges), max(r[1] for r in ranges))
    rng = _window_rng(seed, record, patch.path + ":neg")
    lo, hi = _select_window(lines, focus, window_tokens, rng)
    return CodeSample(
        sample_id=f"{record.cve_id}:{patch.path}:neg",
        code="\n".join(lines[lo - 1 : hi]),
        label=False,
        cwe_id=record.cwe_id,
        cwe_category=classify_cwe(record.cwe_id),
        description="",
        origin_date=record.fix_commit_date,
    )


# --- exclusion filters -----------------------------------------------------------


def apply_exclusion_filters(sample: CodeSample, changed_fraction: float) -> DropReason | None:
    """Returns the reason to drop the sample, or None to keep it.

    Rules: incomplete code (ends with ");" or not with "}"), labelled
    vulnerable with no changed lines, more than 70% of lines modified, or
    fewer than 5 lines.
    """
    stripped = sample.code.rstrip()
    if stripped.endswith(");") or not stripped.endswith("}"):
        return DropReason.INCOMPLETE
    if sample.label and changed_fraction == 0.0:
        return DropReason.NO_CHANGE
    if changed_fraction > 0.7:
        return DropReason.MASS_REWRITE
    if len(sample.code.splitlines()) < 5:
        return DropReason.TOO_SHORT
    return None


# --- CWE categorization ------------------------------------------------------------

_CWE_TABLE: dict[int, CweCategory] = {}
for _num in (119, 120, 121, 123, 124, 125, 126, 127, 786, 787, 788, 805, 806, 823, 824):
    _CWE_TABLE[_num] = CweCategory.BUFFER_ERROR
for _num in (20, 77, 78, 79, 88, 89, 90, 91, 94, 134, 1284):
    _CWE_TABLE[_num] = CweCategory.INPUT_VALIDATION_ERROR
for _num in (400, 401, 402, 404, 415, 416, 459, 770, 771, 772, 775, 908, 909):
    _CWE_TABLE[_num] = CweCategory.RESOURCE_ERROR
for _num in (250, 255, 264, 269, 272, 274, 280, 284, 285, 287, 290, 306, 522):
    _CWE_TABLE[_num] = CweCategory.PRIVILEGE_ESCALATION
for _num in (128, 189, 190, 191, 194, 195, 196, 197, 369, 681, 682):
    _CWE_TABLE[_num] = CweCategory.VALUE_ERROR


def classify_cwe(cwe_id: str) -> CweCategory:
    """Map a CWE id ("CWE-125") to its coarse category; unmapped ids go to Other."""
    text = (cwe_id or "").strip().upper()
    if not text.startswith("CWE-"):
        return CweCategory.OTHER
    try:
        num = int(text[4:])
    except ValueError:
        return CweCategory.OTHER
    return _CWE_TABLE.get(num, CweCategory.OTHER)


# --- splitting ------------------------------------------------------------------------


def make_split(
    samples: list[CodeSample], spec: SplitSpec
) -> tuple[list[CodeSample], list[CodeSample], list[CodeSample]]:
    """Cutoff-aware 3-way split.

    Eval and test draw only from samples dated on/after the cutoff; train
    takes only pre-cutoff samples. Sizes match the ratio targets within one
    sample; anything else is infeasible and raises with the available counts.
    """
    n = len(samples)
    if n == 0:
        raise CorpusError("cannot split an empty sample list")
    r_train, r_eval, r_test = spec.ratios
    n_eval = round(n * r_eval)
    n_test = round(n * r_test)
    pre = sorted(
        (s for s in samples if s.origin_date < spec.cutoff_date), key=lambda s: s.sample_id
    )
    post = sorted(
        (s for s in samples if s.origin_date >= spec.cutoff_date), key=lambda s: s.sample_id
    )
    want_post = n_eval + n_test
    delta = len(post) - want_post
    if abs(delta) > 1 or n_eval + delta < 0:
        raise CorpusError(
            f"infeasible split: {len(post)} post-cutoff samples available, "
            f"need {want_post} for eval+test (targets {n_eval}/{n_test}); "
            f"{len(pre)} pre-cutoff available for train"
        )
    n_eval += delta  # absorb the rounding slack in eval (stays within +-1)

    rng = random.Random(spec.seed)
    rng.shuffle(post)
    rng.shuffle(pre)
    eval_set = post[:n_eval]
    test_set = post[n_eval : n_eval + n_test]
    return pre, eval_set, test_set


MIX_PRESETS = {"bigvul": (94, 6), "precisebugs": (80, 20)}


def mix_to_ratio(
    positives: list[CodeSample],
    negatives: list[CodeSample],
    preset: str = "precisebugs",
    seed: int = 0,
) -> list[CodeSample]:
    """Subsample to the preset negative:positive prevalence, keeping as much
    data as the ratio allows. Output order is seeded-shuffled."""
    if preset not in MIX_PRESETS:
        raise CorpusError(f"unknown mix preset {preset!r}; have {sorted(MIX_PRESETS)}")
    neg_share, pos_share = MIX_PRESETS[preset]
    rng = random.Random(seed)
    pos = sorted(positives, key=lambda s: s.sample_id)
    neg = sorted(negatives, key=lambda s: s.sample_id)
    rng.shuffle(pos)
    rng.shuffle(neg)
    # candidate totals limited by each pool
    max_pos = min(len(pos), int(len(neg) * pos_share / neg_share))
    max_neg = min(len(neg), int(len(pos) * neg_share / pos_share))
    if max_pos * neg_share >= max_neg * pos_share:
        keep_pos, keep_neg = max_pos, min(len(neg), round(max_pos * neg_share / pos_share))
    else:
        keep_neg, keep_pos = max_neg, min(len(pos), round(max_neg * pos_share / neg_share))
    mixed = pos[:keep_pos] + neg[:keep_neg]
    rng.shuffle(mixed)
    return mixed


# --- serialization ----------------------------------------------------------------------


def _sample_to_obj(s: CodeSample) -> dict:
    obj = {
        "sample_id": s.sample_id,
        "code": s.code,
        "label": s.label,
        "cwe_id": s.cwe_id,
        "cwe_category": s.cwe_category.value,
        "description": s.description,
        "origin_date": s.origin_date.isoformat(),
    }
    if s.label:
        obj["vuln_line_start"] = s.vuln_line_start
        obj["vuln_line_end"] = s.vuln_line_end
        obj["fix_code"] = s.fix_code
    return obj


def write_samples_jsonl(samples: list[CodeSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            fh.write(json.dumps(_sample_to_obj(s), ensure_ascii=False) + "\n")


def read_samples_jsonl(path) -> list[CodeSample]:
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: malformed JSONL at line {lineno}: {exc.msg}") from exc
            samples.append(
                CodeSample(
                    sample_id=obj["sample_id"],
                    code=obj["code"],
                    label=obj["label"],
                    cwe_id=obj["cwe_id"],
                    cwe_category=obj["cwe_category"],
                    description=obj["description"],
                    origin_date=obj["origin_date"],
                    vuln_line_start=obj.get("vuln_line_start"),
                    vuln_line_end=obj.get("vuln_line_end"),
                    fix_code=obj.get("fix_code"),
                )
            )
    return samples


def write_splits_json(train, eval_set, test_set, path) -> None:
    mapping = {}
    for name, part in (("train", train), ("eval", eval_set), ("test", test_set)):
        for s in part:
            mapping[s.sample_id] = name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True)
        fh.write("\n")
