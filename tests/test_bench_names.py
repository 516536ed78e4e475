"""The names of oscdet that the benchmark under bench/ pins.

``bench/tracer.py`` patches the functions its ``TRACED`` table names and
reads the arguments and results of two of them by name, and
``bench/ops.py`` and ``bench/make_refs.py`` call oscdet through module
attributes; a rename in the package would break a traced run or a reference
rebuild without failing any other test.  The bench scripts are read, not
imported: ``ops.py`` imports scipy.
"""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from oscdet import predictions, spectrum

from helpers import uncoupled

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_are_plain_functions():
    # Tracer.install raises on a missing name and skips a name bound to
    # anything but a function (an lru_cache wrapper, say) without a word
    traced = runpy.run_path(str(BENCH / "tracer.py"))["TRACED"]
    for layer, names in traced.items():
        module = importlib.import_module(f"oscdet.{layer}")
        for name in names or ():
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def _traced_call(fn, *args, **kwargs):
    """The result of a call, and its arguments bound as the tracer binds them."""
    result = fn(*args, **kwargs)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound, result


def test_traced_info_reads_resolve():
    # the tracer reads spec, count, tol and the basis size and error
    # estimates off an eigen solve, and N, g, count and tol off a measured
    # point; a rename would raise there only in a traced benchmark run
    info = runpy.run_path(str(BENCH / "tracer.py"))["_INFO"]
    spec = uncoupled(4, 1.0)
    bound, result = _traced_call(spectrum.eigenvalues, spec, 8, tol=1e-7)
    eigen = info["spectrum.eigenvalues"](bound, result)
    assert eigen == {"key": repr((spec, 8, 1e-7)), "n": result.params.n,
                     "err_over_tol": max(e.err_est for e in result.entries) / 1e-7}
    bound, result = _traced_call(predictions.measure_point, 4, 1e-2, count=64, tol=1e-6)
    assert info["predictions.measure_point"](bound, result) == {"key": repr((4, 1e-2, 64, 1e-6))}


def _oscdet_bindings(tree) -> dict:
    """local name -> (module, attribute or None) for every oscdet import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("oscdet.") and alias.asname:
                    bound[alias.asname] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oscdet"):
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def _resolve(node, bound):
    """(module, dotted attribute) of a name or an attribute read off an
    imported oscdet module or object, else None."""
    if isinstance(node, ast.Name) and node.id in bound and bound[node.id][1]:
        return bound[node.id]
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound):
        module, attr = bound[node.value.id]
        return module, f"{attr}.{node.attr}" if attr else node.attr
    return None


def _oscdet_names(path: Path):
    """(module, attribute) for every oscdet name the script imports or reads
    off an imported oscdet module or object."""
    tree = ast.parse(path.read_text())
    bound = _oscdet_bindings(tree)
    pairs = {pair for pair in bound.values() if pair[1]}
    pairs.update(filter(None, (_resolve(node, bound) for node in ast.walk(tree))))
    return pairs


def _oscdet_calls(path: Path):
    """(line, module, dotted name, positional count, keyword names) of every
    call of an oscdet name whose arguments are all spelled out."""
    tree = ast.parse(path.read_text())
    bound = _oscdet_bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (target := _resolve(node.func, bound)):
            keywords = [kw.arg for kw in node.keywords]
            if None not in keywords and not any(isinstance(a, ast.Starred) for a in node.args):
                yield node.lineno, *target, len(node.args), keywords


def _lookup(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("script", ["ops.py", "make_refs.py"])
def test_bench_calls_resolve(script):
    # every name resolves, and every call binds to its callee's signature,
    # so a renamed keyword such as count= fails here, not in a benchmark run
    pairs = _oscdet_names(BENCH / script)
    assert pairs
    for module, dotted in sorted(pairs):
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{script}: {module}.{dotted}"
            obj = getattr(obj, part)
    calls = list(_oscdet_calls(BENCH / script))
    assert calls
    for line, module, dotted, positional, keywords in calls:
        try:
            inspect.signature(_lookup(module, dotted)).bind(*range(positional),
                                                            **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{script}:{line}: {module}.{dotted}: {exc}")
