"""README's library quickstart runs and prints what its comments say."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart():
    """The first ```python block of README.md."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_readme_quickstart_prints_its_comments(capsys):
    code = _quickstart()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [
        line.split("#", 1)[1].split()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(comments) == 3
    for out, comment in zip(printed, comments):
        values = [float(v) for v in out.split()]
        assert len(values) == len(comment), out
        for value, note in zip(values, comment):
            if note.startswith("~"):  # an order of magnitude
                assert abs(value) <= 100.0 * float(note[1:]), out
            else:
                assert value == pytest.approx(float(note), rel=1e-12), out


def test_everything_is_reexported_from_the_package():
    """README: every module's public names, and every exception class,
    are re-exported from ``tripotential``, each once."""
    import tripotential
    from tripotential import center, errors, estimates, geometry, potential, riesz

    modules = (geometry, potential, center, riesz, estimates)
    names = [name for module in modules for name in module.__all__]
    names += [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert sorted(tripotential.__all__) == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(tripotential, name) for name in names)


def test_module_graph_is_acyclic_with_the_lambda_family_in_center():
    """README: ``riesz`` and ``estimates`` do not import ``center``, no
    module imports inside a function, and the package's modules import
    each other without a cycle."""
    import tripotential

    graph = {}
    for path in Path(tripotential.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deferred = [
            node.lineno
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert not deferred, (path.name, deferred)
        graph[path.stem] = {
            name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else
                         [alias.name for alias in node.names])
        }
    assert "center" not in graph["riesz"] | graph["estimates"]
    assert graph["estimates"] == {"geometry"}
    graph.pop("__init__")
    done = set()
    while graph:  # peel off modules whose imports are all done
        ready = {name for name, deps in graph.items() if deps <= done}
        assert ready, f"import cycle among {sorted(graph)}"
        done |= ready
        graph = {name: deps for name, deps in graph.items() if name not in ready}
