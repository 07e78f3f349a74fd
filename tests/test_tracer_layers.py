"""The benchmark's traced run wraps the public functions of named layers.

`python3 ampbench/run.py --trace 1` imports every module in
`ampbench/tracer.py`'s LAYERS and wraps its public functions and the public
methods of its classes; a layer that is renamed, or left with nothing to
wrap, breaks that run.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "ampbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("ampbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _public_functions(mod):
    """Public functions of mod and public methods of the classes it defines:
    what the tracer wraps."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield name
        elif isinstance(obj, type):
            yield from (
                f"{name}.{attr}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and isinstance(member, (types.FunctionType, staticmethod))
            )


def test_every_traced_layer_imports_and_defines_a_public_function():
    for layer in _layers():
        mod = importlib.import_module(f"ampletori.{layer}")
        assert any(_public_functions(mod)), f"ampletori.{layer} defines no public function"
