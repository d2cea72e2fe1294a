"""Every layer the benchmark traces is a module of the library, and the
kernel still passes what the benchmark's hooks read.

bench/layers.py imports `sublap.<layer>` for each name in its LAYERS, so
deleting one of those modules breaks the benchmark.  This test reads LAYERS
from the file without importing the harness, and imports each module.  Its
`_after_box` reads the sample count of each `_mc_over_box` run at a fixed
position or keyword, and the accepted count at result[2]; the test reads
both the same way.  Every function key it traces must still name a
function that its tracer wraps, except the stale ones listed here.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def traced_layers() -> tuple[str, ...]:
    tree = ast.parse(LAYERS_FILE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {LAYERS_FILE}")


def test_layers_are_named():
    assert "montecarlo" in traced_layers()


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layer_imports(layer):
    importlib.import_module(f"sublap.{layer}")


def after_box_samples_arg() -> tuple[int, str]:
    """The (index, keyword) at which bench/layers.py's `_after_box` reads the
    kernel's sample count: its `_arg(args, kwargs, index, name)` call."""
    tree = ast.parse(LAYERS_FILE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_after_box":
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "_arg"):
                    return call.args[2].value, call.args[3].value
    raise AssertionError(f"no _arg call in _after_box of {LAYERS_FILE}")


@pytest.mark.parametrize("argv", [
    ["sigma"], ["ahlfors"], ["density"], ["dirac"], ["capacity", "--method", "mc"],
], ids=lambda argv: argv[0])
def test_kernel_arguments_the_bench_reads(argv, monkeypatch, capsys):
    # the benchmark's traced runs count each kernel run's samples and
    # accepted points as `_after_box` reads them: the sample count at a
    # fixed position or keyword, and the accepted count at result[2]
    from sublap import montecarlo
    from sublap.cli import main

    index, name = after_box_samples_arg()
    kernel, runs = montecarlo._mc_over_box, []

    def read_as_the_bench(*args, **kwargs):
        result = kernel(*args, **kwargs)
        runs.append((args[index] if len(args) > index else kwargs[name], result[2]))
        return result

    monkeypatch.setattr(montecarlo, "_mc_over_box", read_as_the_bench)
    assert main(argv + ["--samples", "10000", "--seed", "3", "--threads", "1"]) in (0, 2)
    records = json.loads(capsys.readouterr().out)["results"]
    accepted = [rec["accepted"] for rec in records if "accepted" in rec]
    assert runs and [samples for samples, _ in runs] == [10**4] * len(runs)
    assert [acc for _, acc in runs] == accepted


def test_capacity_calls_the_names_the_bench_rebinds(monkeypatch, capsys):
    # the tracer wraps `capacity.minimize_radial` and `capacity.mc_energy` by
    # rebinding the names where a sublap module imported them; the CLI must
    # look them up there when it runs, or the traced capacity metrics read 0
    from sublap import cli

    calls = []
    for name in ("minimize_radial", "mc_energy"):
        real = getattr(cli, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    argv = ["capacity", "--method", "all", "--samples", "10000", "--seed", "3", "--knots", "16"]
    assert cli.main(argv) in (0, 2)
    assert json.loads(capsys.readouterr().out)["results"]
    assert sorted(calls) == ["mc_energy", "minimize_radial"]


def _assigned(tree, name):
    """The value node of the module-level assignment to `name`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise AssertionError(f"no {name} assignment in {LAYERS_FILE}")


def traced_keys() -> set[str]:
    """The function keys bench/layers.py names: the dict keys and set items
    of LAYER_OVERRIDE, INTEGRAND, OPERATORS, ALWAYS_SPAN and AFTER, and the
    `per_call(...)` and `incl[...]` reads of `layer_metrics`."""
    tree = ast.parse(LAYERS_FILE.read_text(encoding="utf-8"))
    keys = set()
    for name in ("LAYER_OVERRIDE", "INTEGRAND", "OPERATORS", "ALWAYS_SPAN", "AFTER"):
        for node in ast.walk(_assigned(tree, name)):
            if isinstance(node, ast.Dict):
                keys.update(key.value for key in node.keys)
            elif isinstance(node, ast.Set):
                keys.update(item.value for item in node.elts)
    metrics = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    for node in ast.walk(metrics):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "per_call"):
            keys.add(node.args[0].value)
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "incl" and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)  # per_call's own incl[key] reads a variable
    return keys


def wrapped_by_the_bench(key: str, skip: set[str]) -> bool:
    """Whether `Instrumentation.install` wraps a function under this key: a
    function defined in the layer's module, or a method in the own `vars`
    of a class defined there (not one of the skipped dunders)."""
    layer, _, qualname = key.partition(".")
    module = importlib.import_module(f"sublap.{layer}")
    owner, _, attr = qualname.rpartition(".")
    if owner:
        cls = vars(module).get(owner)
        if not (inspect.isclass(cls) and cls.__module__ == module.__name__) or attr in skip:
            return False
        member = vars(cls).get(attr)
        fn = member.__func__ if isinstance(member, staticmethod) else member
    else:
        fn = vars(module).get(qualname)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


# Names the benchmark still traces, which the library no longer defines
# where the tracer looks: each reads 0 until the benchmark drops it.
STALE_TRACED_KEYS = {
    "extrapolation.geometric_limit", "fields.AnnulusPotential.eta_prime",
    "fields.CutoffBump.d_dh", "fields.CutoffBump.values",
    "frame.p_laplacian_divergence_form", "montecarlo.grad_psi_norm_sq",
}


def test_traced_names_exist():
    # a deletion under src/ that leaves its name in bench/layers.py makes
    # that metric read 0 with no error: every other traced key must resolve
    skip = ast.literal_eval(_assigned(ast.parse(LAYERS_FILE.read_text(encoding="utf-8")),
                                      "SKIP_METHODS"))
    keys = traced_keys()
    unresolved = {key for key in keys if not wrapped_by_the_bench(key, skip)}
    assert unresolved == STALE_TRACED_KEYS
    assert len(keys - unresolved) == 9
