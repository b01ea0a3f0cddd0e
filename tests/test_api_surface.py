"""The public surface holds only what the library, demos, README or benchmark use."""
import ast
import inspect
import pkgutil
import re
from pathlib import Path

import bellmagic

ROOT = Path(__file__).resolve().parents[1]

# the paper's closed forms, checked by tests against the formulas they state
CLOSED_FORMS = {
    "two_class_samples",
    "haar_average_meyer_wallach",
    "mixed_bell_magic",
    "noisy_purity",
    "qfim_diagonal",
}


def _used_names() -> set[str]:
    """Names that code outside `bellmagic/__init__.py` and tests loads, imports or
    names in a "module.attr" string, plus every word of the README's code."""
    files = [p for p in (ROOT / "src" / "bellmagic").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    fenced = re.findall(r"```.*?```", readme, flags=re.S)
    inline = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", readme, flags=re.S))
    used = set(re.findall(r"\w+", " ".join(fenced + inline)))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"^\w+\.(\w+)$", node.value))
    return used


def test_every_export_has_a_caller():
    exports = [name for name in bellmagic.__all__
               if inspect.isfunction(getattr(bellmagic, name))
               or inspect.isclass(getattr(bellmagic, name))]
    unused = sorted(set(exports) - _used_names() - CLOSED_FORMS)
    assert not unused, f"exported but only tests call: {unused}"


def test_oracles_are_not_in_the_library():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert "bell_magic_brute" in defined
    modules = [bellmagic] + [
        __import__(f"bellmagic.{m.name}", fromlist=["_"])
        for m in pkgutil.iter_modules(bellmagic.__path__)
    ]
    leaked = sorted(f"{mod.__name__}.{name}" for mod in modules for name in defined
                    if hasattr(mod, name))
    assert not leaked, f"oracles importable from the library: {leaked}"
