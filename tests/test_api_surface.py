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

A second scan holds the defaults to the same rule: every parameter with a
default of a function, method or constructor in ``src/msivd``, and every
field of its ``*Config`` dataclasses, must receive a value from some call in
``src/``, ``scripts/`` or ``bench/``: by keyword, by position, through
``*args`` or ``**mapping``, as a keyword of ``dataclasses.replace``, or
through ``cls(...)`` in a classmethod. Calls match by the callee's name
alone, as above. A default that only tests override is a knob that only
tests turn, and ``KNOBS_ALLOWED`` gives the reason for each one kept.
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


# --- knobs: defaults that something outside the tests sets --------------------------

KNOBS_ALLOWED = {
    # the test harness of every kernel's gradcheck: its step and tolerance
    "autograd.grad_check(h)",
    "autograd.grad_check(tol)",
    # the seam the CLI tests drive; the console entry point passes nothing
    "cli.main(argv)",
    # moving it into the 42 test call sites that set it would not be a reduction
    "autograd.Tensor(dtype)",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any("dataclass" in (getattr(t, "id", None), getattr(t, "attr", None)) for t in targets)


def _knobs(module: str, tree) -> list[tuple[str, str, str, int | None]]:
    """(qualified knob, callee name, parameter, positional index or None for
    keyword-only) for every parameter with a default of a function, method or
    constructor of ``tree``, and every field of its ``*Config`` dataclasses.
    A method's index does not count ``self`` or ``cls``; a constructor is
    called by its class's name."""
    knobs = []

    def function(fn: ast.FunctionDef, owner: ast.ClassDef | None, qualifier: str):
        is_static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        skip = 1 if owner is not None and not is_static else 0
        constructor = owner is not None and fn.name == "__init__"
        callee = owner.name if constructor else fn.name
        name = f"{module}.{owner.name}" if constructor else f"{module}.{qualifier}"
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            knobs.append((f"{name}({arg.arg})", callee, arg.arg, i - skip))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                knobs.append((f"{name}({arg.arg})", callee, arg.arg, None))

    def visit(node, owner: ast.ClassDef | None, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child) and child.name.endswith("Config"):
                    fields = [n.target.id for n in child.body
                              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                    knobs.extend((f"{module}.{child.name}({f})", child.name, f, i) for i, f in enumerate(fields))
                visit(child, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                function(child, owner, f"{prefix}{child.name}")
                visit(child, None, f"{prefix}{child.name}.")
            else:
                visit(child, owner, prefix)

    visit(tree, None, "")
    return knobs


def _calls(tree) -> list[tuple[str, int, int | None, set[str], bool]]:
    """(callee name, positional count, index of the first ``*args`` or None,
    keywords, whether a ``**mapping`` is passed) of every call in ``tree``,
    matched by name alone. ``cls(...)`` in a classmethod calls its class, and
    ``replace(x, ...)`` calls every dataclass. A call inside a function of
    the callee's name, a function's own recursion, is not counted."""
    found = []

    def visit(node, enclosing: tuple[str, ...], cls_name: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, enclosing + (child.name,), child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                classmethod_ = any(getattr(d, "id", None) == "classmethod" for d in child.decorator_list)
                visit(child, enclosing + (child.name,), cls_name if classmethod_ else None)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == "cls" and cls_name:
                    callee = cls_name
                if callee and callee not in enclosing[-1:]:
                    starred = [i for i, a in enumerate(child.args) if isinstance(a, ast.Starred)]
                    found.append((
                        callee,
                        len(child.args),
                        starred[0] if starred else None,
                        {k.arg for k in child.keywords if k.arg},
                        any(k.arg is None for k in child.keywords),
                    ))
            visit(child, enclosing, cls_name)

    visit(tree, (), None)
    return found


def _sets(call, callee: str, param: str, index: int | None) -> bool:
    """Whether ``call`` passes a value for ``param`` of ``callee``: by
    keyword, by position, through ``*args`` or ``**mapping``, or as a
    keyword of ``replace`` when ``callee`` is a class."""
    name, n_positional, starred, keywords, mapping = call
    if name == "replace" and callee[0].isupper():
        return param in keywords
    if name != callee:
        return False
    if param in keywords or mapping:
        return True
    return index is not None and (n_positional > index or starred is not None and starred <= index)


def _unset_knobs() -> list[str]:
    trees = _trees()
    calls = [call for tree in trees.values() for call in _calls(tree)]
    return [
        qualified
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, callee, param, index in _knobs(path.stem, trees[path])
        if not any(_sets(call, callee, param, index) for call in calls)
    ]


def test_every_default_is_set_outside_tests():
    """A parameter default that only tests override is a knob only tests
    turn: it goes, and its default becomes a constant."""
    unset = [knob for knob in _unset_knobs() if knob not in KNOBS_ALLOWED]
    assert not unset, f"defaults that nothing in src/, scripts/ or bench/ sets: {unset}"


def test_knob_allowlist_holds_only_unset_defaults():
    stale = sorted(KNOBS_ALLOWED - set(_unset_knobs()))
    assert not stale, f"allowlisted knobs that are gone or now set: {stale}"


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


# --- environment: every variable the package reads, each with its reason ------------

ENV_READS = {
    "MSIVD_LOG": "the CLI's log level (cli.main)",
    "OPENBLAS_NUM_THREADS": "BLAS threads: set to 1 unless the caller set it, as SIFT runs a stream per core",
    "OMP_NUM_THREADS": "as OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS": "as OPENBLAS_NUM_THREADS",
    "MALLOC_MMAP_THRESHOLD_": "a caller's own malloc tuning wins over the SIFT heap policy",
    "MALLOC_TRIM_THRESHOLD_": "as MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TOP_PAD_": "as MALLOC_MMAP_THRESHOLD_",
    "GLIBC_TUNABLES": "as MALLOC_MMAP_THRESHOLD_, for its glibc.malloc.* entries",
}


def _is_environ(node) -> bool:
    """``os.environ`` or ``os.environb``."""
    return (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb")
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _env_reads(tree, where: str) -> set[str]:
    """The names of the environment variables that ``tree`` reads: the key of
    ``os.environ[k]``, ``os.environ.get(k)``, ``os.environ.setdefault(k)``,
    ``k in os.environ`` and ``os.getenv(k)``. A key is a string, a module
    constant holding a tuple of strings, or a loop or comprehension variable
    over one; any other key, any other use of ``os.environ`` and an import of
    ``environ`` or ``getenv`` raise AssertionError naming ``where``, so that
    no read escapes the list."""
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Tuple, ast.Constant)):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            strings = (value,) if isinstance(value, str) else value
            if isinstance(strings, tuple) and all(isinstance(v, str) for v in strings):
                constants.update((t.id, set(strings)) for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):  # `for v in NAMES` and `... for v in NAMES`
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, ast.Name) and node.iter.id in constants:
                constants[node.target.id] = constants[node.iter.id]

    def keys(key, line) -> set[str]:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return {key.value}
        if isinstance(key, ast.Name) and key.id in constants:
            return constants[key.id]
        raise AssertionError(f"{where}:{line}: environment key {ast.unparse(key)} is not a string or a string constant")

    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            bad = [a.name for a in node.names if a.name in ("environ", "environb", "getenv", "getenvb")]
            assert not bad, f"{where}:{node.lineno}: imports {bad} from os"
        if isinstance(node, ast.Attribute) and node.attr in ("getenv", "getenvb") and getattr(node.value, "id", None) == "os":
            call = parents[node]
            assert isinstance(call, ast.Call) and call.func is node, f"{where}:{node.lineno}: os.getenv not called"
            found |= keys(call.args[0], node.lineno)
        elif _is_environ(node):
            use = parents[node]
            if isinstance(use, ast.Subscript) and use.value is node:
                found |= keys(use.slice, node.lineno)
            elif isinstance(use, ast.Attribute) and use.attr in ("get", "setdefault"):
                found |= keys(parents[use].args[0], node.lineno)
            elif isinstance(use, ast.Compare) and use.comparators == [node] and isinstance(use.ops[0], (ast.In, ast.NotIn)):
                found |= keys(use.left, node.lineno)
            else:
                raise AssertionError(f"{where}:{node.lineno}: os.environ used as {ast.unparse(use)[:80]}")
    return found


def test_every_environment_variable_read_is_listed():
    """A setting that an environment variable turns is an option no parameter
    or config field shows, so each one the package reads is listed with its
    reason, and none other is read."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _env_reads(tree, path.name):
            found.setdefault(name, path.name)
    unlisted = {name: where for name, where in found.items() if name not in ENV_READS}
    assert not unlisted, f"environment variables read but not in ENV_READS: {unlisted}"
    stale = sorted(set(ENV_READS) - set(found))
    assert not stale, f"ENV_READS names variables that the package no longer reads: {stale}"
