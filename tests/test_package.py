"""The package surface: one public name list, the standard library only, and
a start-up that loads neither dataclasses nor inspect."""

import ast
import pathlib
import subprocess
import sys

import excol

PUBLIC_NAMES = [
    "BundleObject", "Character", "CohomologyAnswer", "CollectionSpec",
    "DominanceError", "ExcolError", "KClass", "LatticeError", "ParabolicSpace",
    "ParseError", "RootSystem", "Subsystem", "VerificationReport", "Weight",
    "build_beilinson", "build_igr26", "build_orthogonal_flag", "build_quadric",
    "build_root_system", "build_symplectic_flag", "bundle_weight",
    "canonical_bundle", "chi_line", "clear_character_cache", "cohomology",
    "compose_fibration", "coroot_pairing", "dual_weight", "dump_collection",
    "euler_pairing", "format_graded", "full_mask", "graded_hom",
    "graded_hom_detail", "gram_matrix", "irrep_character", "is_dominant",
    "kclass_of", "load_collection", "make_dominant_dot", "mutate_pair_k",
    "parabolic_cell_count", "parabolic_space", "plain_dominantize", "pushforward",
    "reflect", "serre_operator", "space_from_string", "spinor_weight", "subsystem",
    "tensor_decompose", "thread_check", "validate_weight", "verify", "weight",
    "weyl_dim", "weyl_orbit", "weyl_order",
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
