"""The benchmark's tracer wraps helpers at their call sites ("module.attr" in
the calling module's namespace). Each binding must stay a module-level
callable that its module calls, or ``perfbench/run.py --trace 1`` loses the
layer."""
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.BINDINGS)


@pytest.mark.parametrize("binding", _bindings())
def test_binding_resolves_to_a_called_helper(binding):
    mod_name, attr = binding.split(".")
    mod = importlib.import_module(f"minplus.{mod_name}")
    assert callable(getattr(mod, attr, None)), f"minplus.{binding} is not a callable"
    calls = re.search(rf"(?<!def )\b{attr}\(", inspect.getsource(mod))
    assert calls, f"minplus.{mod_name} never calls {attr}"
