"""The package holds what its routes, the demos and the benchmark call.

Every top-level function and class of src/qerasure, and every public method,
needs a reference, by name or as an attribute, somewhere in src/qerasure
outside its own definition and the package re-exports, in demos/ or in
perfbench/.  The few names kept for another reason are listed with it.
"""

import ast
import inspect
from pathlib import Path

import qerasure

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qerasure"

KEPT = {
    "annihilating_space": "the paper's zero-block space; the tests' reference for the "
                          "mixed factor of the union formulas",
    "code_to_json": "the inverse of the ingest format; the CLI tests write code files with it",
    "_Parser.error": "overrides argparse's error hook, which argparse itself calls",
}

DELETED = {
    qerasure: ("code_projector", "coords_to_matrix", "dagger", "matrix_element",
               "apply_pauli", "basis_state", "inner_product", "intersect", "RANK_RTOL",
               "apply_transform", "apply_to_amplitudes", "Ket", "basis_matrix"),
    qerasure.pauli: ("apply_to_amplitudes",),
    qerasure.states: ("apply_transform", "Ket", "basis_matrix"),
    qerasure.codes: ("Ket", "basis_matrix"),
    qerasure.erasure: ("_trace_over_dim",),
    qerasure.unions: ("_as_action", "_conjugates"),
    qerasure.operator_space: ("coords_to_matrix", "_rank", "_real_or_complex", "intersect",
                              "_new_directions"),
    qerasure.tolerances: ("RANK_RTOL", "REPROJECT_BELOW"),
    qerasure.OperatorSubspace: ("from_constraints", "full", "validate"),
    qerasure.CodeTransform: ("adjoint",),
    qerasure.UnitaryAction: ("identity", "adjoint", "apply"),
}


def definitions():
    """(qualified name, file, node) of every top-level def and class and public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", path, member


def references():
    """(name, file, line) of every ast.Name and ast.Attribute outside the re-exports."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, node.lineno


def test_every_definition_has_a_caller():
    seen = {}
    for name, path, line in references():
        seen.setdefault(name, []).append((path, line))
    orphans = []
    for qualified, path, node in definitions():
        name = qualified.rsplit(".", 1)[-1]
        outside = [(p, line) for p, line in seen.get(name, [])
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside and qualified not in KEPT:
            orphans.append(qualified)
    assert orphans == []


def test_kept_names_still_exist():
    defined = {qualified for qualified, _, _ in definitions()}
    assert set(KEPT) <= defined


def test_deleted_names_are_gone():
    for owner, names in DELETED.items():
        assert [name for name in names if hasattr(owner, name)] == []


def test_no_function_takes_a_tolerance():
    # every tolerance is a constant of qerasure.tolerances
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert [a.arg for a in args if "tol" in a.arg] == [], (path.name, node.name)
    for func in (qerasure.check_erasure, qerasure.check_pure, qerasure.hermitian_basis,
                 qerasure.operator_weight, qerasure.code_to_json):
        assert list(inspect.signature(func).parameters) in (
            ["code", "op"], ["s"], ["coords", "n"], ["code"]), func.__name__
