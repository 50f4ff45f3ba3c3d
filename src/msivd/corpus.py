"""Vulnerability corpus ingestion, filtering, and cutoff-aware splitting.

The parser reads one input shape, this project's fixture schema (see
schemas/nvd_fixture.schema.json), which carries patch code inline so no
repository cloning is needed. ``ingest_records`` is
the one pass from parsed records to samples: it makes every per-patch
decision (Patch-tagged commit link, C/C++ suffix, changed fraction, whether
a negative exists, exclusion filters and their counts), and positives and
negatives share one window routine. All operations are pure over immutable
records; results are deterministic for a fixed seed.
"""
from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from datetime import date
from enum import Enum

from ._jsontypes import json_fields

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
    "IngestResult",
    "parse_nvd_dump",
    "ingest_records",
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
    NO_FIX = "NoFix"


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

    def __post_init__(self):
        if not self.pre_code:
            raise CorpusError(f"patch {self.path} has empty pre-code")
        n_lines = len(self.pre_code.splitlines())
        for r in self.changed_ranges:
            if not 1 <= r[0] <= r[1] <= n_lines:
                raise CorpusError(f"{self.path}: changed range {list(r)} is not a line pair within 1-{n_lines}")


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
        try:
            self.severity = Severity(self.severity)
            self.attack_complexity = AttackComplexity(self.attack_complexity)
        except ValueError as exc:
            raise CorpusError(f"{self.cve_id}: {exc}") from exc
        if not 0.0 <= self.exploitability_score <= 10.0:
            raise CorpusError(f"exploitability_score out of range: {self.exploitability_score}")


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
        elif self.vuln_line_start is not None or self.vuln_line_end is not None:
            raise CorpusError(
                f"{self.sample_id}: negative sample with vulnerable lines {self.vuln_line_start}-{self.vuln_line_end}"
            )


@dataclass
class SplitSpec:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    cutoff_date: date = date(2023, 1, 1)
    seed: int = 0

    def __post_init__(self):
        self.cutoff_date = _parse_date(self.cutoff_date)
        if not all(math.isfinite(r) for r in self.ratios):
            raise CorpusError(f"non-finite split ratio in {self.ratios}")
        if any(r < 0 for r in self.ratios):
            raise CorpusError(f"negative split ratio in {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise CorpusError(f"split ratios {self.ratios} do not sum to 1")


# --- parsing ------------------------------------------------------------------

def parse_nvd_dump(raw: bytes | str) -> list[VulnerabilityRecord]:
    """Parse a fixture-schema dump: an object whose ``records`` list holds
    one entry per CVE, or that list alone.

    Emits one record per entry carrying at least one reference URL; an
    entry that does not fit ``VulnerabilityRecord``, or a patch of it that
    does not fit ``FilePatch``, is skipped with a logged reason, while bytes
    that are not UTF-8 JSON, or entries that are not a list, raise
    CorpusError. ``patch_links`` collects the URLs tagged "Patch".
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"dump is not UTF-8 at byte offset {exc.start}: {exc.reason}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CorpusError(f"JSON nested too deeply: {exc}") from exc
    except ValueError as exc:  # an integer too long to convert
        raise CorpusError(f"unreadable JSON: {exc}") from exc

    if isinstance(doc, dict) and "records" in doc:
        entries = doc["records"]
    elif isinstance(doc, list):
        entries = doc
    else:
        raise CorpusError("unrecognized dump shape: expected a 'records' list")
    if not isinstance(entries, list):
        raise CorpusError(f"the dump's entries must be a JSON list, got {json.dumps(entries)[:80]}")

    records = []
    for entry in entries:
        name = entry.get("cve_id") or "<missing id>" if isinstance(entry, dict) else "entry"
        try:
            record = _from_fixture(entry)
        except CorpusError as exc:
            log.warning("skipping %s: %s", name, exc)
            continue
        if record is None:
            log.info("skipping %s: no reference URLs", name)
        else:
            records.append(record)
    records.sort(key=lambda r: r.cve_id)
    return records


def _from_fixture(entry) -> VulnerabilityRecord | None:
    """The record of a dump entry, or None when it has no reference URL."""
    if isinstance(entry, dict) and entry.get("cwe_id") in (None, ""):
        entry = {**entry, "cwe_id": "CWE-unknown"}
    fields = json_fields(entry, VulnerabilityRecord, "record", CorpusError, {"file_patches": "patches"})
    fields["patch_links"], n_refs = _tagged_patch_links(entry.get("references"))
    if n_refs == 0:
        return None
    patches = []
    for obj in fields.get("file_patches", []):
        patch = json_fields({"post_code": "", **obj}, FilePatch, "patch", CorpusError)
        patch["changed_ranges"] = [tuple(r) for r in patch.get("changed_ranges", [])]
        patches.append(FilePatch(**patch))
    fields["file_patches"] = patches
    return VulnerabilityRecord(**fields)


def _tagged_patch_links(references) -> tuple[list[str], int]:
    links = []
    total = 0
    for ref in references if isinstance(references, list) else []:
        url = ref.get("url") if isinstance(ref, dict) else None
        if not url:
            continue
        if not isinstance(url, str):
            raise CorpusError(f"reference url must be a string, got {json.dumps(url)[:80]}")
        total += 1
        tags = ref.get("tags")
        if isinstance(tags, list) and "Patch" in tags:
            links.append(url)
    return links, total


# --- sample construction --------------------------------------------------------

_CPP_SUFFIXES = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh", ".c++", ".inl")


@dataclass
class IngestResult:
    """The samples of an ingest pass and the counts its summary reports;
    ``dropped`` counts the positives each exclusion filter removed."""

    positives: list[CodeSample] = field(default_factory=list)
    negatives: list[CodeSample] = field(default_factory=list)
    records_with_patch_links: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    skipped_non_cpp: int = 0


def ingest_records(
    records: list[VulnerabilityRecord], window_tokens: int = 2048, seed: int = 0, cpp_only: bool = False
) -> IngestResult:
    """The samples of every file patch of the records that link a
    Patch-tagged commit: the pre-fix code around the changed lines as a
    positive and, when the patch has post-fix code, the fixed code as a
    negative. Both pass ``apply_exclusion_filters`` with the patch's changed
    fraction, and a positive whose fix is blank is dropped as ``NO_FIX``;
    ``cpp_only`` skips files without a C/C++ suffix. A window of under 64
    bytes, a line or two of code, raises CorpusError."""
    if window_tokens < 64:
        raise CorpusError(f"window_tokens must be >= 64, got {window_tokens}")
    result = IngestResult()
    for record in records:
        if not any("/commit/" in url for url in record.patch_links):
            continue
        result.records_with_patch_links += 1
        for patch in record.file_patches:
            if cpp_only and not patch.path.lower().endswith(_CPP_SUFFIXES):
                result.skipped_non_cpp += 1
                continue
            changed = sum(end - start + 1 for start, end in patch.changed_ranges)
            fraction = changed / len(patch.pre_code.splitlines())
            positive = _patch_sample(record, patch, True, window_tokens, seed)
            reason = apply_exclusion_filters(positive, fraction)
            if reason is None and not positive.fix_code.strip():
                reason = DropReason.NO_FIX
            if reason is None:
                result.positives.append(positive)
            else:
                result.dropped[reason.value] = result.dropped.get(reason.value, 0) + 1
            if patch.post_code.strip():
                negative = _patch_sample(record, patch, False, window_tokens, seed)
                if apply_exclusion_filters(negative, fraction) is None:
                    result.negatives.append(negative)
    return result


def _focus(ranges: list[tuple[int, int]], n_lines: int) -> tuple[int, int]:
    """First and last changed line; the whole file when no range is given."""
    ranges = ranges or [(1, n_lines)]
    return min(r[0] for r in ranges), max(r[1] for r in ranges)


def _patch_sample(
    record: VulnerabilityRecord, patch: FilePatch, vulnerable: bool, window_tokens: int, seed: int
) -> CodeSample:
    """The pre-fix code of a patch as a positive (with its changed lines and
    fix), or its post-fix code as a negative, in a window around the focus."""
    lines = (patch.pre_code if vulnerable else patch.post_code).splitlines()
    focus = _focus(patch.changed_ranges, len(lines))
    rng = random.Random(f"{seed}:{record.cve_id}:{patch.path}" + ("" if vulnerable else ":neg"))
    lo, hi = _select_window(lines, focus, window_tokens, rng)
    code = "\n".join(lines[lo - 1 : hi])
    if not lines[hi - 1]:
        code += "\n"  # else the window's blank last line, which may be a changed one, is lost
    return CodeSample(
        sample_id=f"{record.cve_id}:{patch.path}:{'pos' if vulnerable else 'neg'}",
        code=code,
        label=vulnerable,
        cwe_id=record.cwe_id,
        cwe_category=classify_cwe(record.cwe_id),
        description=record.description if vulnerable else "",
        origin_date=record.fix_commit_date,
        vuln_line_start=max(focus[0], lo) - lo + 1 if vulnerable else None,
        vuln_line_end=min(focus[1], hi) - lo + 1 if vulnerable else None,
        fix_code=_fix_snippet(patch) if vulnerable else None,
    )


def _select_window(
    lines: list[str], focus: tuple[int, int], max_tokens: int, rng: random.Random
) -> tuple[int, int]:
    """Pick a contiguous 1-based line window of at most ``max_tokens`` encoded
    bytes, containing ``focus`` when it fits: an oversized focus is trimmed
    from the bottom, then the window grows one line at a time, alternating
    sides from a seeded first side and taking the other side when one is
    blocked."""
    n = len(lines)
    cost = [len(line.encode("utf-8")) + 1 for line in lines]
    lo = max(1, min(focus[0], n))
    hi = max(lo, min(focus[1], n))
    used = sum(cost[lo - 1 : hi])
    while used > max_tokens and hi > lo:
        used -= cost[hi - 1]
        hi -= 1
    up = rng.randint(-2, 2) <= 0
    while True:
        for side_up in (up, not up):
            if side_up and lo > 1 and used + cost[lo - 2] <= max_tokens:
                lo -= 1
                used += cost[lo - 1]
                break
            if not side_up and hi < n and used + cost[hi] <= max_tokens:
                hi += 1
                used += cost[hi - 1]
                break
        else:
            return lo, hi
        up = not up


_FIX_CONTEXT = 2  # post-change lines kept on each side of the changed ranges


def _fix_snippet(patch: FilePatch) -> str:
    """Post-change lines covering the changed ranges (the proposed fix)."""
    lines = patch.post_code.splitlines()
    if not lines:
        return ""
    first, last = _focus(patch.changed_ranges, len(lines))
    return "\n".join(lines[max(1, first - _FIX_CONTEXT) - 1 : min(len(lines), last + _FIX_CONTEXT)])


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
    """The samples of a JSONL file; a line that is not UTF-8, not JSON or not
    a well-formed sample raises CorpusError naming it."""
    samples = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
                samples.append(CodeSample(**json_fields(obj, CodeSample, "sample", CorpusError)))
            # ValueError covers JSON, UTF-8, CorpusError and CweCategory; RecursionError, deep JSON
            except (ValueError, RecursionError) as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    return samples


def write_splits_json(train, eval_set, test_set, path) -> None:
    mapping = {}
    for name, part in (("train", train), ("eval", eval_set), ("test", test_set)):
        for s in part:
            mapping[s.sample_id] = name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True)
        fh.write("\n")
