"""No Python file of the project imports a name it never uses.

The project's toolchain ships no linter, so this is its check for an
import that is never read: every name an import statement binds in a
module must appear in it as a loaded name (the root of an attribute chain
counts), or be listed in the module's __all__. The files are every .py
under src/, tests/, tools/ and demos/; perfbench/ is left out.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TREES = ("src", "tests", "tools", "demos")


def python_files():
    for tree in TREES:
        for base, dirs, files in os.walk(os.path.join(ROOT, tree)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    yield os.path.relpath(path, ROOT)


def imported_names(module):
    """{bound name: line} of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                names.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def used_names(module):
    """Names the module loads, plus the strings of its __all__."""
    used = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    """[(line, name)] of the imports in source that nothing reads."""
    module = ast.parse(source)
    used = used_names(module)
    return sorted((line, name)
                  for name, line in imported_names(module).items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\n__all__ = ['c']\nprint(os.sep, x.y)\n")
    assert unused_imports(source) == [(2, "np"), (3, "e")]


def test_no_unused_imports():
    found = []
    for path in python_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            found += [f"{path}:{line}: {name!r} imported but never used"
                      for line, name in unused_imports(fh.read())]
    assert not found, "\n".join(found)
