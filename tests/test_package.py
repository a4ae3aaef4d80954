from __future__ import annotations

import ast
import functools
import importlib
import io
import platform
import re
import tokenize
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import rankcal  # noqa: F401  (importing the package sets the heap thresholds)
from rankcal import cli, data, model, trainer


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings need glibc")
def test_freed_heap_is_reused_without_page_faults():
    resource = pytest.importorskip("resource")

    def churn():
        blocks = [np.ones(3 << 17) for _ in range(3)]  # 3 MB each: below the 4 MB mmap threshold
        del blocks

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        churn()
    # glibc's adaptive default hands the freed 9 MB back: ~1,600 faults a round.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level name and method not starting with "_".

    That leaves out dunder names: Python calls the dunder methods itself, and
    packaging tools and users, not code, read `__version__`.
    """
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        yield from ((name, node) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _loads(tree: ast.AST) -> list[tuple[ast.AST, str]]:
    """(node, name) of every read of a name as a variable or an attribute in `tree`."""
    loads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.append((node, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.append((node, node.attr))
    return loads


def uncalled_names(root: Path) -> list[str]:
    """Public names in `root`'s src/rankcal that nothing outside their own definition loads.

    A caller is a load (a read, a call, an annotation) of the name in
    src/rankcal outside the definition itself, in tests/test_acceptance.py or
    in perfbench/*.py; the other tests do not count, so library surface that
    only they reach is reported. The check matches by name alone: it misses a
    name that only other dead code loads, and a method whose name some other
    function or method shares.
    """
    src = sorted((root / "src" / "rankcal").glob("*.py"))
    readers = src + [root / "tests" / "test_acceptance.py"] + sorted(root.glob("perfbench/*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    loads = {path: _loads(tree) for path, tree in trees.items()}
    uncalled = []
    for path in src:
        elsewhere = {name for p, file_loads in loads.items() if p != path for _, name in file_loads}
        for qualified, node in _definitions(trees[path]):
            name = qualified.rsplit(".", 1)[-1]
            if name in elsewhere:
                continue
            inside = set(map(id, ast.walk(node)))
            if not any(n == name and id(load) not in inside for load, n in loads[path]):
                uncalled.append(f"{path.stem}.{qualified}")
    return uncalled


def test_every_public_name_has_a_caller():
    assert uncalled_names(ROOT) == []


def test_uncalled_names_reports_names_only_their_own_definition_reads(tmp_path):
    (tmp_path / "src" / "rankcal").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "rankcal" / "lib.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def recurse(n):\n    return recurse(n - 1) if n else LIMIT\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 1\n"
        "    def grow(self):\n        return self.size\n"
        "    def unused(self):\n        return self.grow()\n"
    )
    (tmp_path / "tests" / "test_acceptance.py").write_text("from rankcal.lib import Box\nBox()\n")
    assert uncalled_names(tmp_path) == ["lib.UNUSED", "lib.recurse", "lib.Box.unused"]


# What uncalled_parameters records for a call that passes every parameter.
EVERY = "*"


def _passed(trees) -> dict[str, set]:
    """Name -> the positions and keywords that some call of that name passes, in `trees`.

    `f(...)` and `x.f(...)` both call `f`. A call with *args or **kwargs, or a
    load of the name that is not a call, not in an annotation and not the `x`
    of an `x.attribute` (a function passed as a value), passes EVERY parameter.
    """
    passed: dict[str, set] = {}
    for tree in trees:
        nodes = list(ast.walk(tree))
        hints = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
        hints += [n.returns for n in nodes if isinstance(n, ast.FunctionDef)]
        skip = {id(n) for hint in hints if hint for n in ast.walk(hint)}
        skip |= {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        skip |= {id(n.value) for n in nodes if isinstance(n, ast.Attribute)}  # Box in Box.make
        for node in nodes:
            if isinstance(node, ast.Call):
                args = passed.setdefault(_name(node.func), set())
                args.update(range(len(node.args)), (k.arg or EVERY for k in node.keywords))
                if any(isinstance(a, ast.Starred) for a in node.args):
                    args.add(EVERY)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skip:
                passed.setdefault(_name(node), set()).add(EVERY)
    return passed


def _name(node: ast.AST) -> str | None:
    """The name that a Name or an Attribute node reads; None for other nodes (`f[0]` say)."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def uncalled_parameters(root: Path) -> list[str]:
    """Each parameter with a default, of a public function or method in `root`'s src/rankcal,
    that no call passes, as "module.function(parameter=)".

    The calls are those in uncalled_names' readers (see _passed). A call passes
    a parameter by keyword or by position, a method's self or cls not counted.
    A class's `__init__` is called by the class's name. Like uncalled_names,
    the check matches by name alone.
    """
    src = sorted((root / "src" / "rankcal").glob("*.py"))
    readers = src + [root / "tests" / "test_acceptance.py"] + sorted(root.glob("perfbench/*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    passed = _passed(trees.values())
    uncalled = []
    for path in src:
        for qualified, node, is_method in _functions(trees[path]):
            args = passed.get(qualified.rsplit(".", 1)[-1], set())
            positional = (node.args.posonlyargs + node.args.args)[is_method:]
            first_optional = len(positional) - len(node.args.defaults)
            optional = list(enumerate(positional))[first_optional:]
            kw_defaults = zip(node.args.kwonlyargs, node.args.kw_defaults)
            optional += [(None, arg) for arg, default in kw_defaults if default is not None]
            uncalled += [
                f"{path.stem}.{qualified}({arg.arg}=)"
                for i, arg in optional
                if not args & {EVERY, i, arg.arg}
            ]
    return uncalled


def _functions(tree: ast.Module):
    """(qualified name, node, whether it takes self or cls) of each public function and
    method; a class's __init__ goes by the class's name."""
    for name, node in _definitions(tree):
        if isinstance(node, ast.FunctionDef):
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            yield name, node, "." in name and not static
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield name, item, True


def test_every_optional_parameter_has_a_caller():
    assert uncalled_parameters(ROOT) == []


def test_uncalled_parameters_counts_every_way_to_pass_one(tmp_path):
    (tmp_path / "src" / "rankcal").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "rankcal" / "lib.py").write_text(
        "def by_key(a, b=1, c=2):\n    return a\n"
        "def by_position(a, b=1, c=2, *, d=3):\n    return a\n"
        "def spread(a=1):\n    return a\n"
        "def spread_keywords(a=1):\n    return a\n"
        "def as_value(a=1):\n    return a\n"
        "def hinted(a=1):\n    return a\n"
        "def _private(a=1):\n    return a\n"
        "class Box:\n"
        "    def __init__(self, size=1, tag=None):\n        self.size = size\n"
        "    def grow(self, by=1):\n        return self.size + by\n"
        "    @staticmethod\n"
        "    def make(size=1, tag=None):\n        return Box(size)\n"
    )
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from rankcal.lib import *\n"
        "by_key(0, c=5)\n"
        "by_position(0, 1, d=4)\n"
        "spread(*[2])\n"
        "spread_keywords(**{'a': 2})\n"
        "list(map(as_value, [1]))\n"
        "def use(box: hinted) -> hinted:\n    return box\n"
        "Box(2).grow(3)\n"
        "Box.make(2)\n"
    )
    assert uncalled_parameters(tmp_path) == [
        "lib.by_key(b=)",
        "lib.by_position(c=)",
        "lib.hinted(a=)",
        "lib.Box(tag=)",
        "lib.Box.make(tag=)",
    ]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_loads(root: Path) -> list[str]:
    """Loads in `root`'s src/rankcal of another module's underscore name, as "module: x._y".

    Both `from .x import _y` and `x._y`, for a module `x` bound by `from . import x`,
    count; dunder names do not. The caller check leaves out underscore names on
    the premise that they are module-private, which this check makes hold.
    """
    src = sorted((root / "src" / "rankcal").glob("*.py"))
    modules = {path.stem for path in src}
    found = []
    for path in src:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> rankcal module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""  # "" for the package itself
            if not node.level:
                if module.partition(".")[0] != "rankcal":
                    continue
                module = module.removeprefix("rankcal").lstrip(".")
            for alias in node.names:
                if not module and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif module and _private(alias.name):
                    found.append(f"{path.stem}: {module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and _private(node.attr)
            ):
                found.append(f"{path.stem}: {bound[node.value.id]}.{node.attr}")
    return found


def test_no_module_loads_another_modules_private_name():
    assert private_loads(ROOT) == []


def test_private_loads_reports_both_forms(tmp_path):
    pkg = tmp_path / "src" / "rankcal"
    pkg.mkdir(parents=True)
    (pkg / "lib.py").write_text("_LIMIT = 3\ndef _helper():\n    return _LIMIT\n")
    (pkg / "cli.py").write_text(
        "from . import lib\n"
        "from .lib import _LIMIT\n"
        "from rankcal import lib as other\n"
        "def main():\n"
        "    return lib._helper() + other.__name__.count('.') + _LIMIT + lib.__doc__\n"
    )
    assert private_loads(tmp_path) == ["cli: lib._LIMIT", "cli: lib._helper"]


# The modules that may touch files: data.py reads and writes every text file, model.py the
# binary checkpoint.
FILE_MODULES = ("data", "model")


def file_access(root: Path) -> list[str]:
    """Each call of `open` and import of `json` in `root`'s src/rankcal outside FILE_MODULES.

    Reported as "module: open" or "module: json". A call counts by name
    (`open(p)`) or as an attribute (`p.open()`, `gzip.open(p)`); an import counts
    as `import json` or `from json import ...`.
    """
    found = []
    for path in sorted((root / "src" / "rankcal").glob("*.py")):
        if path.stem in FILE_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                    found.append(f"{path.stem}: open")
            elif isinstance(node, ast.Import):
                found += [f"{path.stem}: json" for alias in node.names if alias.name == "json"]
            elif isinstance(node, ast.ImportFrom) and node.module == "json" and not node.level:
                found.append(f"{path.stem}: json")
    return found


def test_only_data_and_model_touch_files():
    assert file_access(ROOT) == []


def test_file_access_reports_open_and_json(tmp_path):
    pkg = tmp_path / "src" / "rankcal"
    pkg.mkdir(parents=True)
    (pkg / "data.py").write_text("import json\nopen('x')\n")
    (pkg / "model.py").write_text("import json\n")
    (pkg / "cli.py").write_text(
        "import os, json\nfrom json import dumps\ndef save(p):\n    return p.open()\n"
    )
    (pkg / "metrics.py").write_text("def load():\n    with open('y') as fh:\n        return fh\n")
    assert file_access(tmp_path) == ["cli: json", "cli: json", "cli: open", "metrics: open"]


def test_every_config_field_has_a_table_entry():
    # A field without an entry would skip its bound, and its section would reject its key.
    renamed = {name: key for key, name in trainer._FIELDS.items()}
    for cls, section, exempt in (
        (trainer.TrainConfig, "train", {"model"}),
        (model.ModelSpec, "model", set()),
        (data.SyntheticSpec, "data.synthetic", set()),
    ):
        keys = [renamed.get(f.name, f.name) for f in fields(cls) if f.name not in exempt]
        assert keys == list(cli.SECTIONS[section]), cls.__name__


def test_readme_config_table_states_each_key_as_its_table_does():
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = line.replace("\\|", "\0").strip("| ").split(" | ")
            rows[cells[0].strip("`")] = [cell.replace("\0", "|") for cell in cells[1:]]
    for section, table in {"": cli._CONFIG_SCHEMA, **cli.SECTIONS}.items():
        for key, (kind, bound, size) in table.items():
            path = f"{section}.{key}" if section else key
            kind_text, _, bound_text = rows[path]
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            assert kind_text == ("object" if kind is dict else f"`{name}`"), path
            bounds = [b.text for b in (bound, size) if b is not None]
            if bounds:
                assert bound_text == "; ".join(bounds), path


def test_readme_config_reference_names_only_live_keys(tmp_path):
    # A key deleted from a table must leave the docs too: the example would fail as an
    # unknown key, and the key table would keep a row that no table has.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reference = readme.split("### Config reference\n", 1)[1].split("\n### ", 1)[0]
    (tmp_path / "config.json").write_text(reference.split("```json\n")[1].split("```")[0])
    raw, sections = cli._load_config(tmp_path / "config.json")
    assert sections.keys() == raw.keys()
    rows = [line.split("`")[1] for line in reference.splitlines() if line.startswith("| `")]
    tables = {"": cli._CONFIG_SCHEMA, **cli.SECTIONS}
    assert sorted(rows) == sorted(f"{n}.{key}" if n else key for n in tables for key in tables[n])


# The one function of cli.py that checks a config's sections; every later step reads its values.
PARSE_FUNCTION = "_parse_sections"


def section_checks(root: Path) -> list[str]:
    """Each load of `check_section` or `SyntheticSpec.from_json_dict` in `root`'s
    src/rankcal/cli.py outside PARSE_FUNCTION.

    Reported as "owner: name", where the owner is the top-level function or
    class holding the load, or "<module>". A load counts as a call does, and
    also catches an alias (`check = check_section`); it counts by name
    (`check_section`, `errors.check_section`) and, for from_json_dict, on a
    `SyntheticSpec` attribute or name, so `TrainConfig.from_json_dict` does not.
    """
    tree = ast.parse((root / "src" / "rankcal" / "cli.py").read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        if owner == PARSE_FUNCTION:
            continue
        for load, name in _loads(node):
            if name == "check_section":
                found.append(f"{owner}: check_section")
            elif name == "from_json_dict":
                spec = getattr(load.value, "id", None) or getattr(load.value, "attr", None)
                if spec == "SyntheticSpec":
                    found.append(f"{owner}: SyntheticSpec.from_json_dict")
    return found


def test_only_the_parse_function_checks_config_sections():
    assert section_checks(ROOT) == []


def test_section_checks_reports_loads_outside_the_parse_function(tmp_path):
    pkg = tmp_path / "src" / "rankcal"
    pkg.mkdir(parents=True)
    (pkg / "cli.py").write_text(
        "from . import data, errors\n"
        "from .errors import check_section\n"
        "def _parse_sections(raw):\n"
        "    check_section('', raw, {})\n"
        "    return data.SyntheticSpec.from_json_dict(raw)\n"
        "def _prepare(cfg):\n"
        "    check = check_section\n"
        "    return check('split', cfg, {}), TrainConfig.from_json_dict(cfg, None)\n"
        "class Loader:\n"
        "    def load(self, raw):\n"
        "        return SyntheticSpec.from_json_dict(raw)\n"
        "SCHEMA = errors.check_section('x', {}, {})\n"
    )
    assert section_checks(tmp_path) == [
        "_prepare: check_section",
        "Loader: SyntheticSpec.from_json_dict",
        "<module>: check_section",
    ]


def _doc_texts(root: Path):
    """(file name, text) of each backticked span in `root`'s README.md outside fenced blocks,
    and of each docstring and comment in its src/rankcal."""
    prose = "".join((root / "README.md").read_text(encoding="utf-8").split("```")[::2])
    yield from (("README.md", span) for span in re.findall(r"`([^`]+)`", prose))
    for path in sorted((root / "src" / "rankcal").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        texts = [ast.get_docstring(node) for node in ast.walk(tree) if isinstance(node, owners)]
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        texts += [token.string for token in tokens if token.type == tokenize.COMMENT]
        yield from ((path.name, text) for text in texts if text)


def dead_doc_references(root: Path, modules: dict) -> list[str]:
    """Each `module.name[.attr...]` in `root`'s docs (see _doc_texts) that does not resolve
    by getattr, as "file: reference"; `modules` maps each rankcal module name to its module.

    A reference starts at a name of `modules` not preceded by a word character or a dot, so
    `config.model.x` is no reference. Left out: a config-key path of cli.SECTIONS
    (`model.hidden_dim`, `data.synthetic.seed`), a file name ending in .json, .csv, .bin or
    .py, and a reference followed by ":" and whitespace, a quoted error line
    (`model.hiden_dim: unknown key`).
    """
    sections = modules["cli"].SECTIONS  # a top-level key is one word: never a reference
    config = {f"{section}.{key}" for section in sections for key in sections[section]}
    config |= set(sections)
    names = "|".join(map(re.escape, modules))
    pattern = re.compile(rf"(?<![\w.])(?:{names})(?:\.\w+)+")
    dead = []
    for file, text in _doc_texts(root):
        for match in pattern.finditer(text):
            module, *attrs = match.group().split(".")
            prefixes = {".".join([module, *attrs[:i]]) for i in range(1, len(attrs) + 1)}
            quoted_error = re.match(r":\s", text[match.end() :])
            if prefixes & config or attrs[-1] in ("json", "csv", "bin", "py") or quoted_error:
                continue
            try:
                functools.reduce(getattr, attrs, modules[module])
            except AttributeError:
                dead.append(f"{file}: {match.group()}")
    return dead


def test_docs_name_only_live_code():
    stems = [path.stem for path in (ROOT / "src" / "rankcal").glob("*.py")]
    modules = {stem: importlib.import_module(f"rankcal.{stem}") for stem in stems if stem[0] != "_"}
    assert dead_doc_references(ROOT, modules) == []


def test_dead_doc_references_reports_names_that_do_not_resolve(tmp_path):
    pkg = tmp_path / "src" / "rankcal"
    pkg.mkdir(parents=True)
    (pkg / "cli.py").write_text(
        '"""Reads lib.LIMIT and lib.gone."""\n'
        "SECTIONS = {'lib': {'size': None}}\n"
    )
    (pkg / "lib.py").write_text(
        "LIMIT = 3  # not lib.LIMIT_OLD\n"
        "class Box:\n"
        '    """A box; see Box.gone, lib.Box.grow and lib.Box.shrink."""\n'
        "    def grow(self):\n        return LIMIT\n"
    )
    (tmp_path / "README.md").write_text(
        "Prose lib.unquoted is not read; `lib.LIMIT`, `lib.Box.grow()` and `cli.gone` are.\n"
        "```\nlib.fenced\n```\n"
        "`config.lib.x`, `lib.size`, `lib.json`, `lib.Box.size: unknown key`.\n"
    )
    modules = {}
    for path in sorted(pkg.glob("*.py")):
        modules[path.stem] = types.ModuleType(path.stem)
        exec(path.read_text(), vars(modules[path.stem]))
    assert dead_doc_references(tmp_path, modules) == [
        "README.md: cli.gone",
        "cli.py: lib.gone",
        "lib.py: lib.Box.shrink",
        "lib.py: lib.LIMIT_OLD",
    ]
