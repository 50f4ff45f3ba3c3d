"""Synthetic separable corpus for desk-scale end-to-end runs.

The label is decidable two ways at once: vulnerable samples contain the
``copy_input`` call pattern and a call-kind definition of ``buf`` that
reaches the ``use`` statement; safe samples scrub ``buf`` with a plain
assignment first (killing the tainted definition) and call ``copy_safe``
instead. Either the token stream or the reaching-definitions features are
enough to separate the classes.
"""
from __future__ import annotations

import random
from datetime import date, timedelta

from .corpus import CodeSample, classify_cwe

__all__ = ["make_synthetic_corpus", "vulnerable_code", "safe_code"]

_DESCRIPTION = "Unchecked copy_input writes attacker data past the buffer bounds."
_CWE = "CWE-787"


def vulnerable_code(rng: random.Random, tag: int) -> tuple[str, int, int, str]:
    """Returns (code, vuln_line_start, vuln_line_end, fix_code)."""
    fillers = [f"  tmp = n * {rng.randint(2, 9)};" for _ in range(rng.randint(0, 2))]
    lines = [
        f"int handler_{tag}(int n) {{",
        f"  buf = read_input(n);",
        f"  len = n + {rng.randint(1, 9)};",
        *fillers,
        f"  copy_input(buf, len);",
        f"  use(buf);",
        f"  return len;",
        "}",
    ]
    vuln_line = len(fillers) + 4
    fix = "  buf = 0;\n  copy_safe(buf, len);"
    return "\n".join(lines), vuln_line, vuln_line, fix


def safe_code(rng: random.Random, tag: int) -> str:
    fillers = [f"  tmp = n * {rng.randint(2, 9)};" for _ in range(rng.randint(0, 2))]
    lines = [
        f"int handler_{tag}(int n) {{",
        f"  buf = read_input(n);",
        f"  len = n + {rng.randint(1, 9)};",
        *fillers,
        f"  buf = 0;",
        f"  copy_safe(buf, len);",
        f"  use(buf);",
        f"  return len;",
        "}",
    ]
    return "\n".join(lines)


_POSITIVE_FRACTION = 0.5  # of each date pool
_POST_CUTOFF_FRACTION = 0.2  # of the corpus, dated after the 2023-01-01 cutoff


def make_synthetic_corpus(n: int = 200, seed: int = 0) -> list[CodeSample]:
    """``n`` samples; the last fifth are dated after 2023-01-01 (eval/test
    pool), and each date pool is half positives in a seeded order."""
    rng = random.Random(seed)
    n_post = round(n * _POST_CUTOFF_FRACTION)
    n_pre = n - n_post

    def pool_labels(m: int) -> list[bool]:
        n_pos = round(m * _POSITIVE_FRACTION)
        labels = [True] * n_pos + [False] * (m - n_pos)
        rng.shuffle(labels)
        return labels

    labels = pool_labels(n_pre) + pool_labels(n_post)
    samples: list[CodeSample] = []
    for i in range(n):
        in_post = i >= n_pre
        if in_post:
            origin = date(2023, 2, 1) + timedelta(days=(i - n_pre) % 300)
        else:
            origin = date(2021, 6, 1) + timedelta(days=i % 500)
        positive = labels[i]
        if positive:
            code, vs, ve, fix = vulnerable_code(rng, i)
            samples.append(
                CodeSample(
                    sample_id=f"SYN-{i:04d}",
                    code=code,
                    label=True,
                    cwe_id=_CWE,
                    cwe_category=classify_cwe(_CWE),
                    description=_DESCRIPTION,
                    origin_date=origin,
                    vuln_line_start=vs,
                    vuln_line_end=ve,
                    fix_code=fix,
                )
            )
        else:
            samples.append(
                CodeSample(
                    sample_id=f"SYN-{i:04d}",
                    code=safe_code(rng, i),
                    label=False,
                    cwe_id=_CWE,
                    cwe_category=classify_cwe(_CWE),
                    description="",
                    origin_date=origin,
                )
            )
    return samples
