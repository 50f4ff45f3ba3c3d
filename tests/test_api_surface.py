"""Every public name of the package has a caller outside the tests.

The scan walks the syntax trees of ``src/``, ``scripts/`` and ``bench/`` and
collects each name read, attribute read, import alias and keyword argument.
A name in a module's ``__all__``, or a public member defined in the body of
one of its classes, must be among them, not counting uses inside its own
definition. The scan matches by name alone, so a member counts as used when
any other object has a member of the same name. A module-level function of
``autograd`` is the exception: numpy and ndarrays have members of the same
names (``np.tanh``, ``.transpose``), so it counts as used only as a bare
name that ``autograd`` defines or that is imported from it, or as an
attribute of a name bound to the module (``ag.tanh``, ``autograd.tanh``).
Enum members are not checked: the program reaches them by value, from the
records it reads.
"""
import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msivd"

# bench/tracer.py times every op in autograd.__all__, and BENCHMARK.json pins
# that list (test_bench_contract); these go with a benchmark change
BENCHMARK_PINNED = {
    "autograd.softmax",
    "autograd.log_softmax",
    "autograd.expand_row",
    "autograd.select_row",
    "autograd.slice_last_dim",
    "autograd.sum_all",
    "autograd.mul",
    "autograd.scale",
    "autograd.sigmoid",
    "autograd.relu",
    "autograd.tanh",
    "autograd.transpose",
}

ALLOWED = BENCHMARK_PINNED | {
    # the gradient checker that every kernel's gradcheck test is built on
    "autograd.grad_check",
    # the paper's random-baseline rows of the results tables
    "evaluation.random_baseline",
}


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}


def _uses(tree) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found[node.asname] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            found[node.arg] += 1
    return found


def _autograd_uses(tree, inside: bool) -> Counter:
    """Reads of autograd's functions in ``tree``, which is autograd itself
    when ``inside``: a bare name it defines or that is imported from it, or
    an attribute of a name bound to the module."""
    imported, bound = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module or "").rsplit(".", 1)[-1] == "autograd":
                    imported[alias.asname or alias.name] = alias.name
                elif alias.name == "autograd":
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names if alias.name.endswith(".autograd") and alias.asname)
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if inside or node.id in imported:
                found[imported.get(node.id, node.id)] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in bound
                    or isinstance(owner, ast.Attribute) and owner.attr == "autograd"):
                found[node.attr] += 1
    return found


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _member_definitions(cls: ast.ClassDef):
    is_enum = any(getattr(base, "id", None) == "Enum" for base in cls.bases)
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, ast.Assign) and not is_enum:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _unused() -> list[str]:
    trees = _trees()
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    autograd_path = PACKAGE / "autograd.py"
    autograd_uses = sum((_autograd_uses(tree, path == autograd_path) for path, tree in trees.items()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = trees[path]
        exported = set(_exported(tree))
        top = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
            elif isinstance(node, ast.Assign):
                top.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        definitions = [(f"{module}.{name}", name, top.get(name)) for name in sorted(exported)]
        for cls in (top.get(name) for name in sorted(exported)):
            if isinstance(cls, ast.ClassDef):
                definitions += [(f"{module}.{cls.name}.{member}", member, node)
                                for member, node in _member_definitions(cls) if not member.startswith("_")]
        for qualified, name, node in definitions:
            if qualified == f"autograd.{name}" and isinstance(node, ast.FunctionDef):
                used = autograd_uses[name] - _autograd_uses(node, True)[name]
            else:
                used = uses[name] - (_uses(node)[name] if node is not None else 0)
            if used <= 0:
                unused.append(qualified)
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = [name for name in _unused() if name not in ALLOWED]
    assert not unused, f"public names that only tests use: {unused}"


def test_allowlist_holds_only_exported_names_without_callers():
    stale = sorted(ALLOWED - set(_unused()))
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"


def test_benchmark_pinned_names_are_in_its_per_op_list():
    """The reason the allowlist gives for BENCHMARK_PINNED holds only while
    BENCHMARK.json's per-op list names each of them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
              if m["name"].startswith("autograd.") and m["name"].count(".") == 2}
    unpinned = sorted(BENCHMARK_PINNED - pinned)
    assert not unpinned, f"allowlisted autograd names that BENCHMARK.json does not pin: {unpinned}"
