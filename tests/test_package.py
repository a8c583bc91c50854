"""The package surface: one public name list, the standard library only, a
start-up that loads neither dataclasses nor inspect, exactness checks that
python -O keeps, and the README's library sketch."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import excol

PUBLIC_NAMES = [
    "BundleObject", "Character", "CohomologyAnswer", "CollectionSpec",
    "DominanceError", "ExcolError", "KClass", "LatticeError", "ParabolicSpace",
    "ParseError", "RootSystem", "Subsystem", "VerificationReport", "Weight",
    "build_beilinson", "build_igr26", "build_orthogonal_flag", "build_quadric",
    "build_root_system", "build_symplectic_flag", "bundle_weight",
    "canonical_bundle", "clear_character_cache", "cohomology",
    "dual_weight", "dump_collection",
    "euler_pairing", "format_graded", "full_mask", "graded_hom",
    "gram_matrix", "irrep_character", "is_dominant",
    "kclass_of", "load_collection", "make_dominant_dot", "mutate_pair_k",
    "parabolic_cell_count", "parabolic_space", "plain_dominantize", "pushforward",
    "space_from_string", "spinor_weight", "subsystem",
    "tensor_decompose", "thread_check", "validate_weight", "verify", "weight",
    "weyl_dim", "weyl_order",
]


def test_public_names_are_listed_once_in_order():
    assert excol.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(excol, name) is not None


def test_package_imports_only_the_standard_library():
    src = pathlib.Path(excol.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_import_loads_neither_dataclasses_nor_inspect():
    # each excol command is a fresh process, and these two modules, with the
    # ast, dis and tokenize that inspect pulls in, were most of its start-up
    src = str(pathlib.Path(excol.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import excol, excol.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_src_holds_no_assert_statement():
    # python -O strips assert statements; an exactness check must raise itself
    src = pathlib.Path(excol.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


def test_exactness_checks_survive_python_O():
    # a Freudenthal that misses two weights of V_(1,0,0) on A2 must still be
    # caught by the Weyl-dimension check when asserts are stripped
    src = str(pathlib.Path(excol.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from excol import build_root_system, characters, irrep_character, weight\n"
        "lam, real = weight(1, 0, 0), characters._freudenthal\n"
        "characters._freudenthal = lambda sub, mu: {mu: 1} if mu == lam else real(sub, mu)\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    irrep_character(build_root_system('A', 2), None, lam)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    run = subprocess.run([sys.executable, "-I", "-O", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "1\ncharacter of (1, 0, 0) sums to 1, Weyl dim is 3\n"


def test_readme_library_sketch_runs():
    root = pathlib.Path(excol.__file__).parents[2]
    readme = (root / "README.md").read_text()
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert sketch, "README.md has no python block under ## Library sketch"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", sketch.group(1)], capture_output=True, text=True, env=env
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (
        "{7: 1}\n"
        "12/12 exceptional, 66/66 semiorthogonal, length=cells=12, det=1, thread=true\n"
    )
