"""One-value mutations of a valid JSON document, for the reader fuzz tests.

A case picks one place in the document, a key's value or a list item, and
breaks it one way: a value of another JSON type, a lone surrogate, a huge
number, a nesting too deep to decode, or, for a key, its removal. The fuzz
tests draw cases with hypothesis under ``FUZZ``: derandomized and without an
example database, so that a run is reproducible and stores no examples.
Hypothesis draws no case twice, so a document of at most ``max_examples``
cases has every case tried.
"""
import copy
import json

from hypothesis import HealthCheck, settings

# caplog and tmp_path are shared by the examples of a test: each example
# clears the log and overwrites the same files
FUZZ = settings(derandomize=True, database=None, max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

REPLACEMENTS = {
    "int": 7,
    "bool": True,
    "null": None,
    "string": "x",
    "list": ["x"],
    "object": {"x": 1},
    "lone_surrogate": "\ud800",
    "huge_int": 10**300,
    "infinity": float("inf"),  # written as Infinity, which json.loads reads back
    "nested": json.loads("[" * 40 + "]" * 40),
}
# JSON text that json.dumps cannot write: nesting past the decoder's
# recursion limit, and an integer past the int conversion limit
RAW = {"too_deep": "[" * 100_000 + "]" * 100_000, "too_long_int": "9" * 5000}
_MARK = "\x00raw\x00"


def _places(doc, path=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), isinstance(doc, dict)
        yield from _places(value, path + (key,))


def cases(doc) -> list[tuple[tuple, str]]:
    """Every (place, how) pair of ``doc``; a place is a path of keys and
    indexes, and "missing" applies to keys only."""
    hows = sorted(REPLACEMENTS) + sorted(RAW)
    return [(path, how) for path, is_key in _places(doc) for how in hows + (["missing"] if is_key else [])]


def mutate(doc, path: tuple, how: str) -> str:
    """The JSON text of ``doc`` with the value at ``path`` broken as ``how`` says."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "missing":
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = _MARK if how in RAW else REPLACEMENTS[how]
    return json.dumps(doc).replace(json.dumps(_MARK), RAW.get(how, ""))
