import ast
import dataclasses
from pathlib import Path

import hmic
from hmic.config import RunConfig
from hmic.datagen import AnomalySpec, SynthSpec
from hmic.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "hmic").glob("*.py") if p.name != "__init__.py")
OTHERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def test_every_export_resolves_and_the_list_is_sorted():
    missing = [name for name in hmic.__all__ if not hasattr(hmic, name)]
    assert missing == []
    assert hmic.__all__ == sorted(set(hmic.__all__))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from hmic import *", namespace)
    assert {name: namespace[name] for name in hmic.__all__} == {
        name: getattr(hmic, name) for name in hmic.__all__}


def _references(path: Path) -> list[tuple[int, str]]:
    """(top-level statement index, name) of every name, attribute and import
    the module at ``path`` refers to."""
    found = []
    for index, statement in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                found.append((index, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((index, node.attr))
            elif isinstance(node, ast.alias):
                found.append((index, node.name.rsplit(".", 1)[-1]))
    return found


def test_every_public_function_has_a_caller_outside_tests():
    # A public function in src/hmic is referred to from the package (outside
    # __init__.py's re-exports and its own body), scripts/ or bench/; one only
    # tests call belongs in tests/.
    callers: dict[str, set[tuple[Path, int]]] = {}
    for path in PACKAGE + OTHERS:
        for index, name in _references(path):
            callers.setdefault(name, set()).add((path, index))
    uncalled = [
        f"{path.stem}.{statement.name}"
        for path in PACKAGE
        for index, statement in enumerate(ast.parse(path.read_text(encoding="utf-8")).body)
        if isinstance(statement, ast.FunctionDef) and not statement.name.startswith("_")
        and not callers.get(statement.name, set()) - {(path, index)}
    ]
    assert uncalled == []


def test_every_setting_is_set_outside_tests():
    # A field of a settings dataclass is passed by keyword somewhere in
    # src/hmic, scripts/ or bench/; one only tests set belongs in a module
    # constant that those tests patch. ModelConfig is left out: the gradient
    # oracles need micro channel widths, and bench/layers.py reads them.
    keywords = {node.arg for path in PACKAGE + OTHERS
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.keyword)}
    unset = [f"{cls.__name__}.{field.name}"
             for cls in (RunConfig, TrainConfig, SynthSpec, AnomalySpec)
             for field in dataclasses.fields(cls) if field.name not in keywords]
    assert unset == []
