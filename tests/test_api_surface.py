"""The public surface holds only what the library, demos, README or benchmark use."""
import ast
import importlib
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


def _submodules():
    return {m.name: importlib.import_module(f"bellmagic.{m.name}")
            for m in pkgutil.iter_modules(bellmagic.__path__)}


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
    # every public module-level function and class of every submodule,
    # which covers everything bellmagic.__all__ re-exports
    public = {f"{name}.{attr}" for name, mod in _submodules().items()
              for attr, obj in vars(mod).items()
              if not attr.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    used = _used_names() | CLOSED_FORMS
    unused = sorted(p for p in public if p.split(".")[1] not in used)
    assert not unused, f"public but only tests call: {unused}"


def test_traced_layers_are_public_functions():
    # perfbench/layers.py names each traced layer "module.function"; a layer
    # renamed or dropped under src/ would otherwise show only in a traced run
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    names = [key.value for key in layers.keys]
    assert names
    modules = _submodules()
    missing = []
    for name in names:
        module, function = name.split(".")
        obj = getattr(modules.get(module), function, None)
        if function.startswith("_") or not inspect.isfunction(obj):
            missing.append(name)
    assert not missing, f"traced layers that are not public functions: {missing}"


def test_oracles_are_not_in_the_library():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert {"bell_magic_brute", "_gf2_eliminate", "conjugation_offset_gf2",
            "apply_tableau_circuit", "apply_tableau_gate", "BooleanTableau", "exact_gradient_batched",
            "_cross_bell_dots", "_BLOCK_ENTRIES", "simulate_rows_per_row", "shifted_rows",
            "bell_transform_rows", "bell_amplitudes_whole", "fwht_two_buffer", "pair_swapped_copy",
            "fwht_unblocked", "all_quadruples_brute", "resampled_curve_rep",
            "LARGE_RESAMPLE_FACTOR", "pack_qubit_planes_unpacked", "pack_zx",
            "symplectic_product", "swap_pairs", "bell_form_whole", "zx_axis_order",
            "gradient_estimate_unstacked", "wht_one_gemm", "xor_convolve_three_calls",
            "check_probabilities_whole", "noisy_probabilities_two_pass", "sample_unsorted",
            "distinct_tuples_sorted"} <= defined
    modules = [bellmagic, *_submodules().values()]
    leaked = sorted(f"{mod.__name__}.{name}" for mod in modules for name in defined
                    if hasattr(mod, name))
    assert not leaked, f"oracles importable from the library: {leaked}"


SETTABLE_VALUES_CEILING = 301  # raising it needs a CHANGES.md line saying why


def _settable_values() -> int:
    """Every parameter of public module-level functions and of public methods
    (names without a leading underscore, plus `__init__`) of public classes,
    with `self`/`cls` excluded and `*args`/`**kwargs` counted, plus the
    annotated fields of public classes, over `src/bellmagic/*.py`."""
    def n_params(f):
        a = f.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        return sum(name not in ("self", "cls") for name in names)

    total = 0
    for path in sorted((ROOT / "src" / "bellmagic").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                total += n_params(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            not item.name.startswith("_") or item.name == "__init__"):
                        total += n_params(item)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        total += 1
    return total


def test_settable_values_do_not_grow():
    count = _settable_values()
    assert count <= SETTABLE_VALUES_CEILING, (
        f"{count} settable values, ceiling {SETTABLE_VALUES_CEILING}")
