"""No input ends in a RecursionError: every function of the package that
calls itself is listed here, with the reason its depth stays bounded.

The scan parses src/tangency/ with ast.  A call resolves to the function
it is made in when it names it directly (a module function or a nested
one), or as self.name, cls.name or Class.name inside a method of that
class.  A call of the same name on anything else is another function:
FlagElt.text calls the text of its SchubertElt coefficients, and
SchubertElt.one calls DPoly.one, so neither recurses.
"""

import ast
from pathlib import Path

import tangency

SOURCE = Path(tangency.__file__).parent

# function: why its depth is bounded
BOUNDED = {
    "counting._cell_zeros": "one level per coordinate of a cell, and the 2^36 enumeration "
                            "budget keeps n at most 36",
    "fermat.pairings_of_six.rec": "depth 3: each level pairs two of six indices",
    "fields.PrimeField.of": "one level, from a Fraction to its two integers",
}


def _calls_itself(func: ast.AST, cls: str | None) -> bool:
    # calls in func's own body, not in the functions nested in it
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Name) and target.id == func.name and cls is None:
                return True
            if (isinstance(target, ast.Attribute) and target.attr == func.name
                    and cls is not None and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls", cls)):
                return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def self_calling_functions() -> dict[str, str]:
    """Qualified name -> file:line of every function that calls itself."""
    found = {}

    def visit(node, prefix: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, cls):
                    found[name] = f"{path.name}:{child.lineno}"
                visit(child, name, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child.name)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    return found


def test_every_function_that_calls_itself_has_a_bounded_depth():
    assert set(self_calling_functions()) == set(BOUNDED)


def test_the_scan_sees_direct_method_and_nested_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n"
        "    def m(self):\n        return self.m()\n"
        "    def k(self):\n        return C.k(self)\n"
        "    def text(self):\n        return self.other.text()\n"
        "def outer():\n    def inner():\n        return inner()\n    return outer\n")
    module, klass, outer = tree.body
    assert _calls_itself(module, None)
    assert [_calls_itself(m, "C") for m in klass.body] == [True, True, False]
    assert not _calls_itself(outer, None) and _calls_itself(outer.body[0], None)
