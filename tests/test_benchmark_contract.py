"""The names that the benchmark tracer patches must exist in medrule.

``perfbench/tracer.py`` swaps the functions in ``FUNCTION_LAYERS`` and the
``fit``/``predict`` methods of the classes it lists for timing wrappers, and
restores on exit the value it read. A listed class that subclasses another
listed class would read that class's wrapper and keep it after the trace.
"""
import importlib
import importlib.util
import itertools
import sys
from pathlib import Path

from medrule import learners

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_functions_resolve():
    for module_name, attr, _ in _tracer().FUNCTION_LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_traced_classes_exist_and_patch_independently():
    tracer = _tracer()
    for names, method in ((tracer.LEARNER_CLASSES, "fit"), (tracer.MODEL_CLASSES, "predict")):
        classes = [getattr(learners, name, None) for name in names]
        assert all(isinstance(cls, type) for cls in classes), names
        assert all(callable(getattr(cls, method, None)) for cls in classes), method
        for a, b in itertools.permutations(classes, 2):
            owner = next(k for k in a.__mro__ if method in vars(k))
            assert not (issubclass(a, b) and issubclass(b, owner)), \
                f"{a.__name__} inherits {method} from {b.__name__}"
