"""No function in the package calls itself.

A recursive walk fails on a tree deeper than the interpreter's recursion
limit, and the paper puts no limit on tree depth, so every model path (learn,
dumps, loads, export) walks the tree with an explicit stack. This test keeps
it that way by reading the source.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "probtree"
MODULES = sorted(SRC.glob("*.py"))


def self_calls(source: str) -> list[str]:
    """``name:line`` of every call a function makes to itself: by its own
    name (a module function or a nested def) or through ``self`` (a method)."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    # a method's bare name is not in scope inside it: there a call by that
    # name reaches a module function, such as a method that wraps one
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, functions)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, functions):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            by_name = (isinstance(f, ast.Name) and f.id == fn.name
                       and id(fn) not in methods)
            by_self = (isinstance(f, ast.Attribute) and f.attr == fn.name
                       and isinstance(f.value, ast.Name) and f.value.id == "self")
            if by_name or by_self:
                found.append(f"{fn.name}:{call.lineno}")
    return found


def test_modules_found():
    assert {"learner.py", "model_io.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_function_calls_itself(module):
    assert self_calls(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "def walk(n):\n    return walk(n - 1)\n",
    "def outer():\n    def build(n):\n        return build(n)\n    return build(0)\n",
    "class T:\n    def emit(self, n):\n        return self.emit(n)\n",
])
def test_detects_recursion(source):
    assert len(self_calls(source)) == 1


def test_method_may_call_the_module_function_it_wraps():
    source = ("def entropy(p):\n    return p\n"
              "class M:\n    def entropy(self):\n        return entropy(self.p)\n")
    assert self_calls(source) == []
