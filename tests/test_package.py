import ast
import dataclasses
from pathlib import Path

from hmic.config import RunConfig
from hmic.datagen import AnomalySpec, SynthSpec
from hmic.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hmic").glob("*.py"))
OTHERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


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
    # its own body), scripts/ or bench/; one only tests call belongs in tests/.
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


def test_no_module_imports_a_name_it_never_uses():
    # A name a src/hmic module imports is read in that module: nothing is
    # imported only to be re-exported, so each name has one import path, the
    # module that defines it.
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert unused == []


def test_binary_formats_have_one_home_each():
    # A module-level bytes constant is a file magic. checkpoint.py owns the
    # one format of named float64 arrays (checkpoints and embedding caches)
    # and dsp.py the float32 log-Mel cache; a second format for either would
    # be a second reader and writer to keep in step.
    homes = [path.stem for path in PACKAGE
             for statement in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(statement, (ast.Assign, ast.AnnAssign))
             and isinstance(statement.value, ast.Constant)
             and isinstance(statement.value.value, bytes)]
    assert homes == ["checkpoint", "dsp"]


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
